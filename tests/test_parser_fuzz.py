"""Fuzz the document parsers with mutated copies of the shipped YAML files.

Each example deletes or renames keys, or swaps values for junk (None, bools,
strings, lists, mappings, negatives, NaN and infinities). Parsing must either
succeed or raise ScenarioFormatError, and the CLI must exit 0 or 1 without a
traceback.
"""
import contextlib
import copy
import io
import pathlib
import tempfile

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ztsim.cli import main
from ztsim.errors import ScenarioFormatError
from ztsim.gamespec import parse_game
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
