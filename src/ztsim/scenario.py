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


def _fields(mapping, section, *required, **optional):
    """`mapping`'s value under each `required` key, then under each `optional`
    key or its default. Any other key is rejected: misspelt, an optional key
    would silently read as its default."""
    for key in mapping if isinstance(mapping, dict) else ():
        if key not in required and key not in optional:
            expected = [*required, *optional]
            raise ScenarioFormatError(section, str(key), f"unknown key; expected one of {expected}")
    fields = {key: _require(mapping, section, key) for key in required}
    return fields | {key: mapping.get(key, default) for key, default in optional.items()}


def _flatten(table, depth, section, key):
    """A mapping nested `depth` deep as {(label, ...): value}. Every entry is
    kept, for the model to check against its declared labels; a value that is
    not a mapping where one belongs is rejected at its key."""
    level = {(): table}
    for _ in range(depth):
        deeper = {}
        for path, node in level.items():
            if not isinstance(node, dict):
                where = ".".join(map(str, (key, *path)))
                raise ScenarioFormatError(section, where, "expected a mapping")
            for label, child in node.items():
                deeper[(*path, label)] = child
        level = deeper
    return level


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


_INT, _FLOAT = "tag:yaml.org,2002:int", "tag:yaml.org,2002:float"
# Forms that int() and float() read as PyYAML does; octal, `_`, base 60 and .inf are its own.
_PLAIN_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)").fullmatch
_PLAIN_FLOAT = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?").fullmatch
_OTHER = object()  # no key read yet; as a document, one that yaml.load builds


def _document(loader):
    """The document `loader` composes and constructs, built from its events on a
    stack of dicts and lists. A plain scalar takes the first implicit resolver
    listed under its first character that matches: the safe loaders have no path
    resolvers. Anchors, aliases, tags, `<<` and `=`, collection keys, a second
    document and a scalar that its constructor rejects make it return _OTHER."""
    get, resolvers = loader.get_event, loader.yaml_implicit_resolvers
    get()  # StreamStartEvent
    if type(get()) is yaml.StreamEndEvent:
        return None
    root = top = []
    key, stack = _OTHER, []
    while True:
        event = get()
        cls = type(event)
        if cls is yaml.ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                return _OTHER
            value = event.value
            if event.implicit[0]:
                for tag, regexp in resolvers.get(value[:1], ()):
                    if regexp.match(value):
                        if tag == _INT and _PLAIN_INT(value):
                            value = int(value)
                        elif tag == _FLOAT and _PLAIN_FLOAT(value):
                            value = float(value)
                        else:
                            try:  # `<<` and `=` have no constructor
                                value = loader.construct_object(yaml.ScalarNode(tag, value))
                            except (yaml.YAMLError, ValueError):  # yaml.load raises its first error
                                return _OTHER
                        break
        elif cls is yaml.MappingStartEvent or cls is yaml.SequenceStartEvent:
            if (event.anchor is not None or event.tag is not None
                    or type(top) is dict and key is _OTHER):  # a collection as a key
                return _OTHER
            stack.append((top, key))
            top, key = {} if cls is yaml.MappingStartEvent else [], _OTHER
            continue
        elif cls is yaml.MappingEndEvent or cls is yaml.SequenceEndEvent:
            value = top
            top, key = stack.pop()
        elif cls is yaml.DocumentEndEvent:
            return root[0] if type(get()) is yaml.StreamEndEvent else _OTHER
        else:  # AliasEvent
            return _OTHER
        if type(top) is list:
            top.append(value)
        elif key is _OTHER:
            key = value
        else:
            top[key] = value
            key = _OTHER


def _parse_yaml(text):
    """`yaml.load(text, Loader=base)`, where base is libyaml's loader when PyYAML
    has it; `text` is str or bytes. yaml.load builds only what `_document` does not."""
    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    loader = base(text)
    try:
        doc = _document(loader)
    finally:
        loader.dispose()
    return yaml.load(text, Loader=base) if doc is _OTHER else doc


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
        _fields(ts_doc, "type_space", "types", "trusted")
        space = TypeSpace(
            types=_require(ts_doc, "type_space", "types", list),
            trusted=_require(ts_doc, "type_space", "trusted", list),
        )

    profiles = {}
    for name, pdoc in _require(doc, "scenario", "profiles", dict).items():
        section = f"profiles.{name}"
        with _section(section):
            _fields(pdoc, section, "behavior", "evidence")
            behavior_doc = _require(pdoc, section, "behavior", dict)
            likelihood = _flatten(behavior_doc, 2, section, "behavior")
            # Category order, which sampling walks: actions as in the first row.
            behavior = BehaviorModel(tuple(next(iter(behavior_doc.values()), ())), likelihood)
            likelihood = _flatten(_require(pdoc, section, "evidence", dict), 3, section, "evidence")
            # Evidence values as in the first action's first type; when that row is
            # missing, as first written, so that the scenario can report the gap.
            first = (behavior.actions[0], space.types[0])
            values = [e for a, t, e in likelihood if (a, t) == first]
            values = values or dict.fromkeys(e for *_, e in likelihood)
            profiles[name] = Profile(behavior, EvidenceModel(tuple(values), likelihood))

    entity_docs = _require(doc, "scenario", "entities", list)
    if not entity_docs:  # a run needs someone to observe; the API allows none
        raise ScenarioFormatError("scenario", "entities", "must be non-empty")
    entities = []
    for i, edoc in enumerate(entity_docs):
        section = f"entities[{i}]"
        with _section(section):
            fields = _fields(edoc, section, "id", "true_type", "profile", prior=[{"score": 0.5}])
            sources = [
                tuple(_fields(sdoc, f"{section}.prior[{j}]", "score", weight=1.0).values())
                for j, sdoc in enumerate(fields.pop("prior"))
            ]
            entities.append(EntitySpec(**fields, prior_sources=tuple(sources)))

    with _section("policy"):
        pdoc = _require(doc, "scenario", "policy", dict)
        policy = PolicyConfig(**_fields(
            pdoc, "policy", "grant_threshold", "deny_threshold",
            decay_rate=0.0, observe_while_denied=False,
        ))

    top = _fields(
        doc, "scenario", "schema_version", "type_space", "profiles", "entities", "policy", run={}
    )
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


def _read(path, what):
    """The document's bytes: the YAML loader decodes them, so bad UTF-8 is a YAML error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioFormatError(what, str(path), f"cannot read file: {exc}") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(_read(path, "scenario"))
