"""Fuzz the document parsers with mutated copies of the shipped YAML files.

Each example deletes or renames keys, or swaps values for junk (None, bools,
strings, lists, mappings, negatives, NaN and infinities). Parsing must either
succeed or raise ScenarioFormatError, and the CLI must exit 0 or 1 without a
traceback. A label added to a labeled table, at any depth, must be rejected,
and so must a key added to any other mapping.
"""
import contextlib
import copy
import io
import pathlib
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ztsim.cli import main
from ztsim.errors import ScenarioFormatError
from ztsim.gamespec import GAME_KINDS, parse_game
from ztsim.scenario import parse_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = [("run", p) for p in sorted((REPO_ROOT / "scenarios").glob("*.yaml"))]
SHIPPED += [("solve", p) for p in sorted((REPO_ROOT / "game_specs").glob("*.yaml"))]
DOCS = [(command, yaml.safe_load(p.read_text(encoding="utf-8"))) for command, p in SHIPPED]
PARSE = {"run": parse_scenario, "solve": parse_game}
JUNK = (
    None, True, False, "junk", "0.5", "false", [], [1, 2], {}, {"a": 1}, -1, -0.5,
    float("nan"), float("inf"), float("-inf"),
)


def _paths(node, prefix=()):
    """Every (container path, key) pair below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    command, doc = draw(st.sampled_from(DOCS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        parent = doc
        for k in prefix:
            parent = parent[k]
        op = draw(st.sampled_from(("delete", "rename", "junk")))
        if op == "delete":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            new = draw(st.sampled_from([k for k in parent if k != key] + ["renamed"]))
            parent[new] = parent.pop(key)
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return command, yaml.safe_dump(doc, sort_keys=False)


# Labeled tables of the game kinds: key -> nesting depth.
TABLE_DEPTHS = {
    "payoff": 2, "leader_payoff": 2, "follower_payoff": 2, "prior": 1, "sender_utility": 3,
    "receiver_utility": 2, "types": 1, "actions": 1,
}


def _tables(doc):
    """(mapping, depth) for every labeled table of a shipped document."""
    for profile in doc.get("profiles", {}).values():
        yield profile["behavior"], 2
        yield profile["evidence"], 3
    for kind in ("matrix_game", "bimatrix_game", "signaling_game", "bayesian_game"):
        body = doc.get(kind, {})
        for key, depth in TABLE_DEPTHS.items():
            if isinstance(body.get(key), dict):
                yield body[key], depth
    bayesian = doc.get("bayesian_game", {})
    for entry in bayesian.get("prior", []) + bayesian.get("utilities", []):  # maps over the players
        yield from ((entry[k], 1) for k in ("actions", "types", "u") if k in entry)


@st.composite
def undeclared_label_documents(draw):
    """A shipped document with one key added to a labeled table, at any depth,
    holding a copy of a sibling's value."""
    command, doc = draw(st.sampled_from(DOCS))
    doc = copy.deepcopy(doc)
    node, depth = draw(st.sampled_from(list(_tables(doc))))
    for _ in range(draw(st.integers(0, depth - 1))):
        node = node[draw(st.sampled_from(list(node)))]
    node["undeclared"] = copy.deepcopy(draw(st.sampled_from(list(node.values()))))
    return command, yaml.safe_dump(doc, sort_keys=False)


def _records(doc):
    """Every mapping of a shipped document whose keys are fixed names, not labels."""
    yield doc
    for section in ("type_space", "policy", "run", *GAME_KINDS):
        if section in doc:
            yield doc[section]
    yield from doc.get("profiles", {}).values()
    for entity in doc.get("entities", []):
        yield entity
        yield from entity.get("prior", [])
    bayesian = doc.get("bayesian_game", {})
    yield from bayesian.get("prior", []) + bayesian.get("utilities", [])


@st.composite
def unknown_key_documents(draw):
    """A shipped document with a key no reader defines (none starts with `x`)
    added to one of its fixed-key mappings, at any depth; and that key."""
    command, doc = draw(st.sampled_from(DOCS))
    doc = copy.deepcopy(doc)
    key = draw(st.from_regex(r"x[a-z_]{0,8}", fullmatch=True))
    draw(st.sampled_from(list(_records(doc))))[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    return command, yaml.safe_dump(doc, sort_keys=False), key


# Never fewer examples than the active profile asks for, so a deeper profile
# (`--hypothesis-profile=ci`) deepens these tests too.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(mutated_documents())
def test_parse_succeeds_or_raises_format_error(case):
    command, text = case
    try:
        PARSE[command](text)
    except ScenarioFormatError:
        pass


@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(mutated_documents())
def test_cli_exits_zero_or_one_without_traceback(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.yaml"
        path.write_text(text, encoding="utf-8")
        flag = "--scenario" if command == "run" else "--game"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, flag, str(path), "--out", str(pathlib.Path(tmp) / "out")])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(undeclared_label_documents())
def test_undeclared_label_rejected(case):
    command, text = case
    with pytest.raises(ScenarioFormatError):
        PARSE[command](text)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(unknown_key_documents())
def test_unknown_key_rejected(case):
    command, text, key = case
    with pytest.raises(ScenarioFormatError) as info:
        PARSE[command](text)
    assert info.value.key == key
    assert info.value.reason.startswith("unknown key")
