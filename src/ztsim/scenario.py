"""Scenario document parsing and serialization.

The on-disk format is YAML with an explicit schema version. Probability tables
are written as labeled rows keyed by type/action/evidence identifiers, never
positional arrays, so every validation failure can name the section and key
that caused it. The parser maps the document onto the model constructors and
checks only its structure; the constructors make every value check.
"""
from __future__ import annotations

import re
from contextlib import contextmanager

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .errors import ScenarioFormatError, ValidationError
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


def _row(table, label, section, key):
    """`table[label]`, which must be a non-empty mapping: an empty row would
    leave its type out of the model's likelihood table."""
    row = table.get(label) if isinstance(table, dict) else None
    if not isinstance(row, dict) or not row:
        raise ScenarioFormatError(section, key, "missing, or not a non-empty mapping")
    return row


@contextmanager
def _section(section):
    """Report any exception raised while building `section`, other than a
    ScenarioFormatError, as a ScenarioFormatError naming that section. A
    model's ValidationError keeps its key; anything else gets key "-"."""
    try:
        yield
    except ScenarioFormatError:
        raise
    except ValidationError as exc:
        raise ScenarioFormatError(section, exc.key, exc.reason) from exc
    except Exception as exc:
        raise ScenarioFormatError(section, "-", f"{type(exc).__name__}: {exc}") from exc


_STR, _INT, _FLOAT, _MAP, _SEQ = ("tag:yaml.org,2002:" + t for t in ("str", "int", "float", "map", "seq"))
# Forms that int() and float() read as PyYAML does; octal, `_`, base 60 and .inf are its own.
_PLAIN_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)").fullmatch
_PLAIN_FLOAT = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?").fullmatch


def _build(node, loader):
    """What `loader` constructs for `node`. Strings, decimals, and lists and
    maps keyed by those are built here, memoized where the constructor looks,
    so aliases stay shared; it builds the rest, such as maps with `<<` or `=`
    keys. Not a closure: that would hold each document in a reference cycle."""
    tag, value = node.tag, node.value
    if type(node) is ScalarNode:
        if tag == _STR:
            return value
        if tag == _INT and _PLAIN_INT(value):
            return int(value)
        if tag == _FLOAT and _PLAIN_FLOAT(value):
            return float(value)
    elif node in loader.constructed_objects:
        return loader.constructed_objects[node]
    elif tag == _SEQ and type(node) is SequenceNode:
        data = loader.constructed_objects[node] = []
        data.extend([_build(item, loader) for item in value])
        return data
    elif tag == _MAP and type(node) is MappingNode and all(
        type(key) is ScalarNode and key.tag in (_STR, _INT, _FLOAT) for key, _ in value
    ):
        data = loader.constructed_objects[node] = {}
        for key, item in value:
            data[_build(key, loader)] = _build(item, loader)
        return data
    return loader.construct_object(node)


def _parse_yaml(text):
    """`yaml.load(text, Loader=cls)`, with libyaml's loader when PyYAML has it.
    construct_document takes `_build`'s root and fills what it handed over."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        _build(node, loader)
        return loader.construct_document(node)
    finally:
        loader.dispose()


def _load_yaml(text, what):
    try:
        doc = _parse_yaml(text)
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        # PyYAML's constructors raise the others on a tag they cannot read: `!!float abc`.
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
    """Map a scenario document onto the model constructors, which make every
    value check; diagnostics name the section and key of the first failure."""
    doc = _load_yaml(text, "scenario")

    with _section("type_space"):
        ts_doc = _require(doc, "scenario", "type_space", dict)
        space = TypeSpace(
            types=_require(ts_doc, "type_space", "types", list),
            trusted=_require(ts_doc, "type_space", "trusted", list),
        )
    types = space.types

    profiles = {}
    for name, pdoc in _require(doc, "scenario", "profiles", dict).items():
        section = f"profiles.{name}"
        with _section(section):
            behavior_doc = _require(pdoc, section, "behavior", dict)
            for theta in behavior_doc:
                if theta not in types:
                    raise ScenarioFormatError(section, f"behavior.{theta}", "unknown type")
            for theta in types:
                _row(behavior_doc, theta, section, f"behavior.{theta}")
            # Category order, which sampling walks: actions as in the first row.
            actions = tuple(next(iter(behavior_doc.values())))
            behavior = BehaviorModel(
                actions=actions,
                likelihood={
                    (theta, a): p for theta, row in behavior_doc.items() for a, p in row.items()
                },
            )

            evidence_doc = _require(pdoc, section, "evidence", dict)
            ev_likelihood = {}
            for action in actions:
                rows = evidence_doc.get(action)
                for theta in types:
                    row = _row(rows, theta, section, f"evidence.{action}.{theta}")
                    ev_likelihood.update(((action, theta, e), p) for e, p in row.items())
            # Category order: evidence values as in the first action's first type.
            evidence = EvidenceModel(
                evidence_values=tuple(evidence_doc[actions[0]][types[0]]),
                likelihood=ev_likelihood,
            )
            profiles[name] = Profile(behavior=behavior, evidence=evidence)

    entity_docs = _require(doc, "scenario", "entities", list)
    if not entity_docs:  # a run needs someone to observe; the API allows none
        raise ScenarioFormatError("scenario", "entities", "must be non-empty")
    entities = []
    for i, edoc in enumerate(entity_docs):
        section = f"entities[{i}]"
        with _section(section):
            fields = [_require(edoc, section, key) for key in ("id", "true_type", "profile")]
            sources = [
                (_require(sdoc, f"{section}.prior[{j}]", "score"), sdoc.get("weight", 1.0))
                for j, sdoc in enumerate(edoc.get("prior", [{"score": 0.5, "weight": 1.0}]))
            ]
            entities.append(EntitySpec(*fields, prior_sources=tuple(sources)))

    with _section("policy"):
        pdoc = _require(doc, "scenario", "policy", dict)
        policy = PolicyConfig(
            grant_threshold=_require(pdoc, "policy", "grant_threshold"),
            deny_threshold=_require(pdoc, "policy", "deny_threshold"),
            decay_rate=pdoc.get("decay_rate", 0.0),
            observe_while_denied=pdoc.get("observe_while_denied", False),
        )

    with _section("run"):
        rdoc = doc.get("run", {})
        horizon, seed = rdoc.get("horizon", 1), rdoc.get("seed", 0)

    with _section("scenario"):
        return Scenario(
            space=space,
            profiles=profiles,
            entities=entities,
            policy=policy,
            horizon=horizon,
            seed=seed,
        )


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
