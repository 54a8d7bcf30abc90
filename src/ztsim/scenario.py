"""Scenario document parsing.

The on-disk format is YAML with an explicit schema version. Probability tables
are written as labeled rows keyed by type/action/evidence identifiers, never
positional arrays, so every validation failure can name the section and key
that caused it. The parser maps the document onto the model constructors and
checks only its structure; the constructors make every value check, the
non-empty entity list included. The document states every field the model
holds.
"""
from __future__ import annotations

from .document import _fields, _flatten, _load_yaml, _read, _section
from .sim import EntitySpec, PolicyConfig, Profile, Scenario
from .trust import BehaviorModel, EvidenceModel, TypeSpace


def parse_scenario(text) -> Scenario:
    """Map a scenario document onto the model constructors, which make every
    value check; diagnostics name the section and key of the first failure."""
    doc = _load_yaml(text, "scenario")

    # The type space is read before the top level, so that a document written
    # top-down reports a fault in it before the sections it has yet to write.
    with _section("type_space"):
        space = TypeSpace(**_fields(doc.get("type_space"), "type_space", types=list, trusted=list))
    top = _fields(doc, "scenario", schema_version=object, type_space=dict, profiles=dict,
                  entities=list, policy=dict, run={})

    profiles = {}
    for name, pdoc in top["profiles"].items():
        section = f"profiles.{name}"
        with _section(section):
            pdoc = _fields(pdoc, section, behavior=dict, evidence=dict)
            likelihood = _flatten(pdoc["behavior"], 2, section, "behavior")
            # Category order, which sampling walks: actions as in the first row.
            behavior = BehaviorModel(tuple(next(iter(pdoc["behavior"].values()), ())), likelihood)
            likelihood = _flatten(pdoc["evidence"], 3, section, "evidence")
            # Evidence values as in the first action's first type; when that row is
            # missing, as first written, so that the scenario can report the gap.
            first = (behavior.actions[0], space.types[0])
            values = [e for a, t, e in likelihood if (a, t) == first]
            values = values or dict.fromkeys(e for *_, e in likelihood)
            profiles[name] = Profile(behavior, EvidenceModel(tuple(values), likelihood))

    entities = []
    for i, edoc in enumerate(top["entities"]):
        section = f"entities[{i}]"
        with _section(section):
            fields = _fields(
                edoc, section, id=object, true_type=object, profile=object, prior=[{"score": 0.5}]
            )
            sources = [
                tuple(_fields(sdoc, f"{section}.prior[{j}]", score=object, weight=1.0).values())
                for j, sdoc in enumerate(fields.pop("prior"))
            ]
            entities.append(EntitySpec(**fields, prior_sources=tuple(sources)))

    with _section("policy"):
        policy = PolicyConfig(**_fields(
            top["policy"], "policy", grant_threshold=object, deny_threshold=object,
            decay_rate=0.0, observe_while_denied=False,
        ))
    with _section("run"):
        run = _fields(top["run"], "run", horizon=1, seed=0)

    with _section("scenario"):
        return Scenario(
            space=space,
            profiles=profiles,
            entities=entities,
            policy=policy,
            **run,
        )


def load_scenario(path) -> Scenario:
    return parse_scenario(_read(path, "scenario"))
