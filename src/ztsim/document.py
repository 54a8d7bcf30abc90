"""Reading scenario and game-spec documents: the bytes, the YAML, the schema
version, and one rule for every mapping whose keys are fixed names. Both
document kinds read through this module; it knows no model.
"""
import re
from contextlib import contextmanager

import yaml

from .errors import ScenarioFormatError, ValidationError

SCHEMA_VERSION = 1


def _fields(mapping, section, **keys):
    """`mapping`'s value under each key of `keys`, in that order. A key whose
    entry is a type (`list`, `dict` or `object`) is required, and its value
    must be of that type; any other entry is an optional key's default, and a
    value given for a list or dict default must be of the same type. Any other
    key is rejected: misspelt, an optional key would silently read as its
    default."""
    if not isinstance(mapping, dict):
        raise ScenarioFormatError(section, "-", f"expected a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in keys:
            expected = list(keys)
            raise ScenarioFormatError(section, str(key), f"unknown key; expected one of {expected}")
    fields = {}
    for key, kind in keys.items():
        if isinstance(kind, type):
            if key not in mapping:
                raise ScenarioFormatError(section, key, "missing required key")
            value = mapping[key]
        else:
            value = mapping.get(key, kind)
            kind = type(kind) if type(kind) in (list, dict) else object
        fields[key] = value
        if not isinstance(value, kind):
            got = type(value).__name__
            raise ScenarioFormatError(section, key, f"expected {kind.__name__}, got {got}")
    return fields


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


def _read(path, what):
    """The document's bytes: the YAML loader decodes them, so bad UTF-8 is a YAML error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioFormatError(what, str(path), f"cannot read file: {exc}") from exc
