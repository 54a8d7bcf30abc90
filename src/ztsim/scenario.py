"""Scenario document parsing, validation, and serialization.

The on-disk format is YAML with an explicit schema version. Probability tables
are written as labeled rows keyed by type/action/evidence identifiers, never
positional arrays, so every validation failure can name the section and key
that caused it.
"""
from __future__ import annotations

from contextlib import contextmanager

import yaml

from .errors import ScenarioFormatError, ZtsimError
from .sim import EntitySpec, PolicyConfig, Profile, Scenario
from .trust import BehaviorModel, EvidenceModel, TypeSpace

SCHEMA_VERSION = 1


def _require(mapping, section, key, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioFormatError(section, key, "missing required key")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioFormatError(
            section, key, f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_row_sum(row, section, key):
    total = sum(row.values())
    if abs(total - 1.0) > 1e-9:
        raise ScenarioFormatError(section, key, f"probability row sums to {total}, expected 1")


@contextmanager
def _section(section):
    """Report any non-package exception raised while building `section` as a
    ScenarioFormatError naming that section."""
    try:
        yield
    except ZtsimError:
        raise
    except Exception as exc:
        raise ScenarioFormatError(section, "-", f"{type(exc).__name__}: {exc}") from exc


def _load_yaml(text, what):
    # libyaml's loader when PyYAML was built with it; both build the same documents.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(what, "-", f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(what, "-", "top level must be a mapping")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            what, "schema_version", f"expected {SCHEMA_VERSION}, got {version!r}"
        )
    return doc


def parse_scenario(text) -> Scenario:
    """Parse and validate a scenario document; diagnostics name the section
    and key of the first failure."""
    doc = _load_yaml(text, "scenario")

    with _section("type_space"):
        ts_doc = _require(doc, "scenario", "type_space", dict)
        types = _require(ts_doc, "type_space", "types", list)
        trusted = _require(ts_doc, "type_space", "trusted", list)
        if not types:
            raise ScenarioFormatError("type_space", "types", "must be non-empty")
        for t in trusted:
            if t not in types:
                raise ScenarioFormatError("type_space", "trusted", f"unknown type {t!r}")
        try:
            space = TypeSpace(types=tuple(types), trusted=frozenset(trusted))
        except Exception as exc:
            raise ScenarioFormatError("type_space", "types", str(exc)) from exc

    profiles = {}
    for name, pdoc in _require(doc, "scenario", "profiles", dict).items():
        section = f"profiles.{name}"
        with _section(section):
            behavior_doc = _require(pdoc, section, "behavior", dict)
            actions = None
            likelihood = {}
            for theta, row in behavior_doc.items():
                if theta not in types:
                    raise ScenarioFormatError(section, f"behavior.{theta}", "unknown type")
                if not isinstance(row, dict) or not row:
                    raise ScenarioFormatError(
                        section,
                        f"behavior.{theta}",
                        "must be a non-empty mapping action -> probability",
                    )
                if actions is None:
                    actions = list(row)
                elif set(row) != set(actions):
                    raise ScenarioFormatError(
                        section, f"behavior.{theta}", f"actions differ from first row {actions}"
                    )
                _check_row_sum(row, section, f"behavior.{theta}")
                for a, p in row.items():
                    likelihood[(theta, a)] = float(p)
            missing = [t for t in types if t not in behavior_doc]
            if missing:
                raise ScenarioFormatError(section, "behavior", f"missing rows for types {missing}")
            try:
                behavior = BehaviorModel(actions=tuple(actions), likelihood=likelihood)
            except Exception as exc:
                raise ScenarioFormatError(section, "behavior", str(exc)) from exc

            evidence_doc = _require(pdoc, section, "evidence", dict)
            evidence_values = None
            ev_likelihood = {}
            for action in actions:
                if action not in evidence_doc:
                    raise ScenarioFormatError(
                        section, "evidence", f"missing rows for action {action!r}"
                    )
                per_type = evidence_doc[action]
                for theta in types:
                    if not isinstance(per_type, dict) or theta not in per_type:
                        raise ScenarioFormatError(
                            section, f"evidence.{action}", f"missing row for type {theta!r}"
                        )
                    row = per_type[theta]
                    if evidence_values is None:
                        evidence_values = list(row)
                    elif set(row) != set(evidence_values):
                        raise ScenarioFormatError(
                            section,
                            f"evidence.{action}.{theta}",
                            f"evidence values differ from first row {evidence_values}",
                        )
                    _check_row_sum(row, section, f"evidence.{action}.{theta}")
                    for e, p in row.items():
                        ev_likelihood[(action, theta, e)] = float(p)
            try:
                evidence = EvidenceModel(
                    evidence_values=tuple(evidence_values), likelihood=ev_likelihood
                )
            except Exception as exc:
                raise ScenarioFormatError(section, "evidence", str(exc)) from exc
            profiles[name] = Profile(behavior=behavior, evidence=evidence)

    entities = []
    for i, edoc in enumerate(_require(doc, "scenario", "entities", list)):
        section = f"entities[{i}]"
        with _section(section):
            eid = _require(edoc, section, "id")
            true_type = _require(edoc, section, "true_type")
            profile = _require(edoc, section, "profile")
            if true_type not in types:
                raise ScenarioFormatError(section, "true_type", f"unknown type {true_type!r}")
            if profile not in profiles:
                raise ScenarioFormatError(section, "profile", f"unknown profile {profile!r}")
            sources = edoc.get("prior", [{"score": 0.5, "weight": 1.0}])
            parsed_sources = []
            for j, sdoc in enumerate(sources):
                score = _require(sdoc, f"{section}.prior[{j}]", "score", (int, float))
                weight = sdoc.get("weight", 1.0)
                parsed_sources.append((float(score), float(weight)))
            entities.append(
                EntitySpec(
                    id=str(eid),
                    true_type=true_type,
                    profile=profile,
                    prior_sources=tuple(parsed_sources),
                )
            )

    with _section("policy"):
        pdoc = _require(doc, "scenario", "policy", dict)
        grant = _require(pdoc, "policy", "grant_threshold", (int, float))
        deny = _require(pdoc, "policy", "deny_threshold", (int, float))
        decay = pdoc.get("decay_rate", 0.0)
        if not 0.0 <= deny <= grant <= 1.0:
            raise ScenarioFormatError(
                "policy",
                "deny_threshold",
                f"thresholds must satisfy 0 <= deny ({deny}) <= grant ({grant}) <= 1",
            )
        try:
            policy = PolicyConfig(
                grant_threshold=float(grant),
                deny_threshold=float(deny),
                decay_rate=float(decay),
                observe_while_denied=bool(pdoc.get("observe_while_denied", False)),
            )
        except Exception as exc:
            raise ScenarioFormatError("policy", "-", str(exc)) from exc

    with _section("run"):
        rdoc = doc.get("run", {})
        horizon = rdoc.get("horizon", 1)
        seed = rdoc.get("seed", 0)
        if not isinstance(horizon, int) or horizon < 1:
            raise ScenarioFormatError("run", "horizon", f"must be an integer >= 1, got {horizon!r}")
        if not isinstance(seed, int):
            raise ScenarioFormatError("run", "seed", f"must be an integer, got {seed!r}")

    try:
        return Scenario(
            space=space,
            profiles=profiles,
            entities=tuple(entities),
            policy=policy,
            horizon=horizon,
            seed=seed,
        )
    except Exception as exc:
        raise ScenarioFormatError("scenario", "-", str(exc)) from exc


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical YAML rendering; parse(serialize(s)) == s for valid scenarios."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type_space": {
            "types": list(scenario.space.types),
            "trusted": [t for t in scenario.space.types if t in scenario.space.trusted],
        },
        "profiles": {},
        "entities": [],
        "policy": {
            "grant_threshold": scenario.policy.grant_threshold,
            "deny_threshold": scenario.policy.deny_threshold,
            "decay_rate": scenario.policy.decay_rate,
            "observe_while_denied": scenario.policy.observe_while_denied,
        },
        "run": {"horizon": scenario.horizon, "seed": scenario.seed},
    }
    for name, profile in scenario.profiles.items():
        behavior = {
            theta: {a: profile.behavior.prob(a, theta) for a in profile.behavior.actions}
            for theta in scenario.space.types
        }
        evidence = {
            a: {
                theta: {
                    e: profile.evidence.prob(e, a, theta)
                    for e in profile.evidence.evidence_values
                }
                for theta in scenario.space.types
            }
            for a in profile.behavior.actions
        }
        doc["profiles"][name] = {"behavior": behavior, "evidence": evidence}
    for e in scenario.entities:
        doc["entities"].append(
            {
                "id": e.id,
                "true_type": e.true_type,
                "profile": e.profile,
                "prior": [{"score": s, "weight": w} for s, w in e.prior_sources],
            }
        )
    return yaml.safe_dump(doc, sort_keys=False)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFormatError("scenario", str(path), f"cannot read file: {exc}") from exc
    return parse_scenario(text)
