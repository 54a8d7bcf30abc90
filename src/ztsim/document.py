"""Reading scenario and game-spec documents: the bytes, the YAML, the schema
version, and one rule for every mapping whose keys are fixed names. Both
document kinds read through this module; it knows no model.
"""
import json
import re
from contextlib import contextmanager

import yaml

from .errors import ScenarioFormatError, ValidationError

SCHEMA_VERSION = 1
MAX_DEPTH = 100  # collections nested in a document; no model reads more than 5


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
_STARTS = (yaml.MappingStartEvent, yaml.SequenceStartEvent)
_ENDS = (yaml.MappingEndEvent, yaml.SequenceEndEvent)
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"


def _rest(get, event, depth):
    """_OTHER, once the events are read that yaml.load composes from `event`
    on, in `depth` open collections: it never sees a document nested deeper
    than MAX_DEPTH. Reading stops where its composer fails first, at an
    undefined alias or a repeated anchor."""
    anchors = set()
    while True:
        cls, anchor = type(event), getattr(event, "anchor", None)
        if anchor is not None:
            if (anchor in anchors) != (cls is yaml.AliasEvent):
                return _OTHER
            anchors.add(anchor)
        depth += (cls in _STARTS) - (cls in _ENDS)
        if depth > MAX_DEPTH:
            raise yaml.YAMLError(_TOO_DEEP)
        if not depth:
            return _OTHER
        event = get()


def _document(loader):
    """The document `loader` composes and constructs, built from its events on a
    stack of dicts and lists. A plain scalar takes the first implicit resolver
    listed under its first character that matches: the safe loaders have no path
    resolvers. Anchors, aliases, tags, `<<` and `=`, collection keys, a second
    document and a scalar that its constructor rejects make it return _OTHER,
    after it reads on to the end of the collections open there."""
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
                return _rest(get, event, len(stack))
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
                                return _rest(get, event, len(stack))
                        break
        elif cls is yaml.MappingStartEvent or cls is yaml.SequenceStartEvent:
            if (event.anchor is not None or event.tag is not None
                    or type(top) is dict and key is _OTHER):  # a collection as a key
                return _rest(get, event, len(stack))
            stack.append((top, key))
            if len(stack) > MAX_DEPTH:
                raise yaml.YAMLError(_TOO_DEEP)
            top, key = {} if cls is yaml.MappingStartEvent else [], _OTHER
            continue
        elif cls is yaml.MappingEndEvent or cls is yaml.SequenceEndEvent:
            value = top
            top, key = stack.pop()
        elif cls is yaml.DocumentEndEvent:
            return root[0] if type(get()) is yaml.StreamEndEvent else _OTHER
        else:  # AliasEvent
            return _rest(get, event, len(stack))
        if type(top) is list:
            top.append(value)
        elif key is _OTHER:
            key = value
        else:
            top[key] = value
            key = _OTHER


# `_plain` reads lines of these forms, besides blank lines and comment lines:
# `key:`, `key: value`, `-`, `- value`, `- key:` and `- key: value`. A value is
# a word or a one-line flow collection nested at most _FLOW_DEPTH deep; a word
# is a run of [A-Za-z0-9_.+-], and a key one of at most 1000 (YAML allows 1024).
# Any other line, a `:` that a space does not follow, or a flow word of more
# than 1000 characters leaves the text to `_document`.
_FLOW_DEPTH, _KEY = 4, r"[A-Za-z0-9_.+-]{1,1000}"
_FLOW = "[A-Za-z0-9_.+, :-]*"  # json.loads rejects `[k: v]`, `{v}`, `[v,]` and `[v}`
for _ in range(_FLOW_DEPTH - 1):
    _FLOW = rf"[A-Za-z0-9_.+, :-]*(?:[\[{{]{_FLOW}[\]}}][A-Za-z0-9_.+, :-]*)*"
_VALUE = rf"[A-Za-z0-9_.+-]+|[\[{{]{_FLOW}[\]}}]"
_LINES = re.compile(
    rf"( *)(?:(-(?: +|(?=\n)))?(?:({_KEY}):(?: +({_VALUE}))?|({_VALUE}))? *|#[ -~]*)\n|(.*\n)"
).findall
_BAD_COLON, _LONG_WORD = re.compile(r":[^ ]").search, re.compile(r"[A-Za-z0-9_.+-]{1001}").search
# Every word but a number is quoted for json.loads, and a word YAML reads as a
# bool or null is then written as JSON's. The text is left to `_document` if a
# letter is left outside the quotes once the exponents are taken out that YAML
# reads as JSON does, after a fraction and signed: `1e5`, `1.0e5` and
# `-Infinity` are numbers to JSON and strings to YAML.
_QUOTE = re.compile(r"([A-Za-z_](?<![A-Za-z0-9_.+-].)[A-Za-z0-9_.+-]*)").split
_EXPONENT, _LETTER = re.compile(r"\.[0-9]+[eE][-+][0-9]").sub, re.compile("[A-Za-z]").search
_LITERALS = {
    **dict.fromkeys("yes Yes YES true True TRUE on On ON".split(), "true"),
    **dict.fromkeys("no No NO false False FALSE off Off OFF".split(), "false"),
    **dict.fromkeys("null Null NULL".split(), "null"),
}


def _plain(text):
    """The document yaml.load builds from `text`, read by one json.loads when
    `text` is in the plain subset above; _OTHER for any other text. It never
    raises."""
    if type(text) is bytes:  # what is not ASCII is not in the subset
        text = text.decode("ascii", "replace")
    out, stack = [], []  # JSON pieces; (column, closer) of each open block collection
    pending, under_key = -1, False  # a nested block starts right of column `pending`
    for indent, dash, key, value, item, bad in _LINES(text + "\n"):
        if not (dash or key or item):
            if bad:
                return _OTHER
            continue  # a blank line or a comment
        col = len(indent)
        if pending is not None and (col > pending or col == pending and under_key and dash):
            stack.append((col, "]" if dash else "}"))  # at `pending`, a sequence in a mapping
            out.append("[" if dash else "{")
        else:
            if pending is not None:
                out.append("null")
            while stack and (stack[-1][0] > col or stack[-1] == (col, "]") and not dash):
                out.append(stack.pop()[1])
            if not stack or stack[-1] != (col, "]" if dash else "}"):
                return _OTHER
            out.append(",")
        pending = None
        if dash and key:  # a mapping in a sequence entry
            col += len(dash)
            stack.append((col, "}"))
            out.append("{")
        if key:
            out += key, ": "
            if value:
                out.append(value)
            else:
                pending, under_key = col, True
        elif not dash:  # a bare value: a scalar document, or a scalar's second line
            return _OTHER
        elif item:
            out.append(item)
        else:
            pending, under_key = col, False
        if len(stack) > MAX_DEPTH - _FLOW_DEPTH:  # near the bound, `_document` counts exactly
            return _OTHER
        if len(value or item) > 1000 and _LONG_WORD(value or item):
            return _OTHER
    if not stack:  # no line
        return _OTHER
    if pending is not None:
        out.append("null")
    out += [closer for _, closer in reversed(stack)]
    text = "".join(out)
    if _BAD_COLON(text):
        return _OTHER
    parts = _QUOTE(text)
    if _LETTER(_EXPONENT("", " ".join(parts[::2]))):
        return _OTHER
    text = '"'.join(parts)
    for word in _LITERALS.keys() & parts[1::2]:
        text = text.replace(f'"{word}"', _LITERALS[word])
    try:
        return json.loads(text)
    except ValueError:  # a bool or null key, what else JSON does not take, and ints too long for int()
        return _OTHER


def _parse_yaml(text):
    """`yaml.load(text, Loader=base)`, where base is libyaml's loader when PyYAML
    has it; `text` is str or bytes. A document nested deeper than MAX_DEPTH is a
    YAMLError. `_plain` reads the plain documents, `_document` most others, and
    yaml.load builds only what neither does."""
    doc = _plain(text)
    if doc is not _OTHER:
        return doc
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
