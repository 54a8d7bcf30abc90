"""Reading scenario and game-spec documents: the bytes, the YAML, the schema
version, and one rule for every mapping whose keys are fixed names. Both
document kinds read through this module; it knows no model. PyYAML is
imported only for a document outside the plain subset that `_plain` reads.
"""
import json
import re
from contextlib import contextmanager

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


_OTHER = object()  # not a document `_plain` reads


def _check_depth(get):
    """Read the events `get` returns, from the start of the stream, as far as
    yaml.load composes them, so that it never sees a document nested deeper than
    MAX_DEPTH. Reading stops where its composer fails first, at an undefined
    alias or a repeated anchor, and at the end of the first document."""
    import yaml

    starts = (yaml.MappingStartEvent, yaml.SequenceStartEvent)
    ends = (yaml.MappingEndEvent, yaml.SequenceEndEvent)
    depth, anchors = 0, set()
    while True:
        event = get()
        cls, anchor = type(event), getattr(event, "anchor", None)
        if cls is yaml.DocumentEndEvent or cls is yaml.StreamEndEvent:
            return
        if anchor is not None:
            if (anchor in anchors) != (cls is yaml.AliasEvent):
                return
            anchors.add(anchor)
        depth += (cls in starts) - (cls in ends)
        if depth > MAX_DEPTH:
            raise yaml.YAMLError(f"nesting deeper than {MAX_DEPTH} levels")


# `_plain` reads lines of these forms, besides blank lines and comment lines:
# `key:`, `key: value`, `-`, `- value`, `- key:` and `- key: value`. A value is
# a word or a one-line flow collection nested at most _FLOW_DEPTH deep; a word
# is a run of [A-Za-z0-9_.+-], and a key one of at most 1000 (YAML allows 1024).
# Any other line, a `:` that a space does not follow, or a flow word of more
# than 1000 characters leaves the text to yaml.load.
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
# bool or null is then written as JSON's. The text is left to yaml.load if a
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
        if len(stack) > MAX_DEPTH - _FLOW_DEPTH:  # near the bound, `_check_depth` counts exactly
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
    YAMLError. `_plain` reads the plain documents, and yaml.load every other one
    once `_check_depth` has read it."""
    doc = _plain(text)
    if doc is not _OTHER:
        return doc
    import yaml

    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    loader = base(text)
    try:
        _check_depth(loader.get_event)
    finally:
        loader.dispose()
    return yaml.load(text, Loader=base)


def _yaml_errors():
    """What `_parse_yaml` raises on text that is not valid YAML. PyYAML's
    constructors raise the others on a tag they cannot read: `!!float abc`."""
    import yaml

    return yaml.YAMLError, ValueError, LookupError, AttributeError


def _load_yaml(text, what):
    try:
        doc = _parse_yaml(text)
    except _yaml_errors() as exc:  # evaluated only once something raised
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
