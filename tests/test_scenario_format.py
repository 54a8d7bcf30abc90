import ast
import io
import json
import os
import pathlib
import re
import string
import subprocess
import sys
from unittest import mock

import pytest
import yaml
from doc_writer import serialize_game, serialize_scenario
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_kernel import scenarios

from ztsim import document
from ztsim.document import _OTHER, _load_yaml, _parse_yaml
from ztsim.errors import ScenarioFormatError, TraceWriteError
from ztsim.games import BayesianGameSpec, BimatrixGame, MatrixGame, SignalingGameSpec
from ztsim.gamespec import load_game, parse_game
from ztsim.scenario import load_scenario, parse_scenario
from ztsim.sim import run
from ztsim.trace import emit_trace, metrics_to_dict, step_record_to_dict

MINIMAL = """
schema_version: 1
type_space:
  types: [good, bad]
  trusted: [good]
profiles:
  default:
    behavior:
      good: {act: 1.0}
      bad: {act: 1.0}
    evidence:
      act:
        good: {obs: 1.0}
        bad: {obs: 1.0}
entities:
  - id: e1
    true_type: good
    profile: default
policy:
  grant_threshold: 0.8
  deny_threshold: 0.2
"""


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED_SCENARIOS = sorted((REPO_ROOT / "scenarios").glob("*.yaml"))
SHIPPED_GAMES = sorted((REPO_ROOT / "game_specs").glob("*.yaml"))


def test_parse_minimal_applies_defaults():
    scenario = parse_scenario(MINIMAL)
    assert scenario.policy.decay_rate == 0.0
    assert scenario.horizon == 1
    assert scenario.seed == 0
    assert scenario.entities[0].prior_sources == ((0.5, 1.0),)
    assert scenario.space.types == ("good", "bad")


def test_bad_row_sum_names_profile_and_type():
    text = MINIMAL.replace("good: {act: 1.0}", "good: {act: 0.9}", 1)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    msg = str(info.value)
    assert "profiles.default" in msg
    assert "behavior.good" in msg
    assert "0.9" in msg


def test_missing_section_named():
    text = MINIMAL.replace("policy:", "notpolicy:").replace("grant_threshold", "g")
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert "policy" in str(info.value)


@pytest.mark.parametrize("text", ["- schema_version: 1\n- 2\n", "[1, 2]\n", "1\n"], ids=["block-list", "flow-list", "scalar"])
@pytest.mark.parametrize("parse, section", [(parse_scenario, "scenario"), (parse_game, "game")], ids=["scenario", "game"])
def test_top_level_that_is_not_a_mapping_is_rejected(parse, section, text):
    with pytest.raises(ScenarioFormatError) as info:
        parse(text)
    assert str(info.value) == f"[{section}] -: top level must be a mapping"


def test_wrong_schema_version_rejected():
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(MINIMAL.replace("schema_version: 1", "schema_version: 2"))
    assert "schema_version" in str(info.value)


def test_unknown_entity_type_named():
    text = MINIMAL.replace("true_type: good", "true_type: ugly")
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert "entities[0]" in str(info.value)
    assert "ugly" in str(info.value)


@pytest.mark.parametrize("trusted, reason", [
    ("[]", "positive trust score but no trusted types"),
    ("[good, bad]", "trust score below 1 but no untrusted types"),
])
def test_prior_the_type_space_cannot_spread_is_rejected(trusted, reason):
    text = MINIMAL.replace("trusted: [good]", f"trusted: {trusted}")
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert str(info.value) == f"[scenario] entities[0].prior: {reason}"
    # The same scores at the edge PROB_TOL allows are accepted.
    score = "0.000000001" if trusted == "[]" else "0.999999999"
    parse_scenario(text.replace("profile: default", f"profile: default\n    prior: [{{score: {score}}}]"))


def test_threshold_order_enforced():
    text = MINIMAL.replace("grant_threshold: 0.8", "grant_threshold: 0.1")
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert "deny" in str(info.value)


def test_loaded_scenario_repr_is_independent_of_hash_seed(tmp_path):
    """Two trusted types: held as a set of strings, they would be listed in an
    order that follows the per-process string hash."""
    path = tmp_path / "two_trusted.yaml"
    path.write_text(
        MINIMAL.replace("types: [good, bad]", "types: [good, fine, bad]")
        .replace("trusted: [good]", "trusted: [fine, good]")
        .replace("      bad: {act: 1.0}", "      fine: {act: 1.0}\n      bad: {act: 1.0}")
        .replace("        bad: {obs: 1.0}", "        fine: {obs: 1.0}\n        bad: {obs: 1.0}")
    )
    code = f"from ztsim.scenario import load_scenario; print(repr(load_scenario({str(path)!r})))"
    src = str(REPO_ROOT / "src")
    reprs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        ).stdout
        for seed in ("1", "2")
    }
    assert len(reprs) == 1
    assert "trusted=('good', 'fine')" in reprs.pop()


def _package_imports(module):
    """The `ztsim` modules that `module` imports, directly or through one another."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        path = REPO_ROOT.joinpath("src", *name.split("."))
        if path.is_dir():
            path, package = path / "__init__.py", name
        else:
            path, package = path.with_suffix(".py"), name.rpartition(".")[0]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level:
                base = package.rsplit(".", node.level - 1)[0]
                modules = [node.module] if node.module else [alias.name for alias in node.names]
                names = [f"{base}.{m}" for m in modules]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            for name in names:
                if name.startswith("ztsim.") and name not in seen:
                    seen.add(name)
                    todo.append(name)
    return seen


def test_document_reader_imports_only_errors():
    """Both document kinds read through `document`, so loading a game spec
    needs neither the scenario parser nor the simulator."""
    assert _package_imports("ztsim.document") == {"ztsim.errors"}
    assert not _package_imports("ztsim.gamespec") & {"ztsim.scenario", "ztsim.sim"}
    assert "ztsim.sim" in _package_imports("ztsim.scenario")  # the walk follows imports


def test_scenario_round_trip_identity(scenarios_dir):
    for name in ("deterministic_attacker.yaml", "apt_stealth.yaml"):
        scenario = load_scenario(scenarios_dir / name)
        text = serialize_scenario(scenario)
        again = parse_scenario(text)
        assert again == scenario
        assert serialize_scenario(again) == text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_drawn_scenario_round_trips_through_its_document(scenario):
    # Every field the model holds is one a document can state.
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_game_round_trip_identity(game_specs_dir):
    kinds = {
        "rock_paper_scissors.yaml": MatrixGame,
        "commitment_demo.yaml": BimatrixGame,
        "insider_matching.yaml": BayesianGameSpec,
        "honeypot_signaling.yaml": SignalingGameSpec,
    }
    for name, cls in kinds.items():
        game = load_game(game_specs_dir / name)
        assert isinstance(game, cls)
        text = serialize_game(game)
        assert parse_game(text) == game


def test_game_requires_exactly_one_kind(game_specs_dir):
    text = (game_specs_dir / "rock_paper_scissors.yaml").read_text()
    with pytest.raises(ScenarioFormatError) as info:
        parse_game(text + "\nbimatrix_game: {}\n")
    assert "exactly one" in str(info.value)


def test_game_missing_payoff_row_named(game_specs_dir):
    text = (game_specs_dir / "rock_paper_scissors.yaml").read_text()
    with pytest.raises(ScenarioFormatError) as info:
        parse_game(text.replace("rock:", "pebble:", 1))
    assert "payoff" in str(info.value)


def test_load_scenario_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(missing)
    assert str(missing) in str(info.value)


def test_emit_trace_empty():
    sink = io.StringIO()
    assert emit_trace([], sink) == 0
    assert sink.getvalue() == ""


def test_emit_trace_step_records(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "deterministic_attacker.yaml")
    trace = run(scenario)
    sink = io.StringIO()
    count = emit_trace(trace.records, sink)
    lines = sink.getvalue().splitlines()
    assert count == len(lines) == len(trace.records)
    first = json.loads(lines[0])
    assert list(first) == [
        "schema_version", "tick", "entity", "decision",
        "action", "evidence", "score_before", "score_after",
    ]
    assert first["schema_version"] == 1
    assert first["score_after"] == pytest.approx(0.005 / 0.505, abs=1e-6)


def test_emit_trace_byte_identical(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "apt_stealth.yaml")
    outputs = []
    for _ in range(2):
        sink = io.StringIO()
        emit_trace(run(scenario).records, sink)
        outputs.append(sink.getvalue())
    assert outputs[0] == outputs[1]


class _FailingSink:
    def __init__(self, after):
        self.after = after
        self.lines = 0

    def write(self, _):
        if self.lines >= self.after:
            raise OSError("disk full")
        self.lines += 1


def test_emit_trace_partial_failure_reports_count(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "deterministic_attacker.yaml")
    records = run(scenario).records
    assert len(records) >= 2
    with pytest.raises(TraceWriteError) as info:
        emit_trace(records, _FailingSink(after=1))
    assert info.value.written == 1


@pytest.mark.parametrize("k", [0, 1, 7])
def test_emit_sim_trace_failure_counts_whole_ticks(scenarios_dir, k):
    trace = run(load_scenario(scenarios_dir / "apt_stealth.yaml"))
    entities = len(trace.scenario.entities)
    assert entities > 1 and trace.scenario.horizon > k
    with pytest.raises(TraceWriteError) as info:
        emit_trace(trace, _FailingSink(after=k))
    assert info.value.written == k * entities
    sink = _FailingSink(after=trace.scenario.horizon)  # one write per tick
    assert emit_trace(trace, sink) == trace.scenario.horizon * entities
    assert sink.lines == trace.scenario.horizon


def test_metrics_to_dict_shape(scenarios_dir):
    from ztsim.sim import compute_metrics

    scenario = load_scenario(scenarios_dir / "deterministic_attacker.yaml")
    doc = metrics_to_dict(compute_metrics(run(scenario)))
    assert doc["schema_version"] == 1
    entry = doc["entities"]["mallory"]
    assert entry["time_to_detection"] == 1
    assert entry["false_lockout"] is False
    assert entry["final_score"] == pytest.approx(0.005 / 0.505, abs=1e-6)


@pytest.mark.parametrize("path", SHIPPED_SCENARIOS + SHIPPED_GAMES, ids=lambda p: p.name)
def test_chosen_loader_builds_the_pure_python_documents(path):
    text = path.read_text(encoding="utf-8")
    reference = yaml.load(text, Loader=yaml.SafeLoader)
    doc = _load_yaml(text, path.stem)
    assert doc == reference
    assert repr(doc) == repr(reference)


def _spy_on_loaders(monkeypatch):
    """Record the PyYAML loader class each instantiated loader derives from."""
    used = []
    for cls in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:

        def spy(self, stream, init=cls.__init__, cls=cls):
            used.append(cls)
            init(self, stream)

        monkeypatch.setattr(cls, "__init__", spy)
    return used


def _outside_subset(text):
    """`text` with its first key quoted, which leaves it to yaml.load."""
    return text.replace("schema_version: 1", '"schema_version": 1', 1)


def test_libyaml_loader_used_when_available(monkeypatch):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    expected = parse_scenario(MINIMAL)
    used = _spy_on_loaders(monkeypatch)
    assert parse_scenario(_outside_subset(MINIMAL)) == expected
    assert set(used) == {yaml.CSafeLoader}


def test_pure_python_fallback_parses_shipped_files(monkeypatch):
    scenarios = [load_scenario(p) for p in SHIPPED_SCENARIOS]
    games = [load_game(p) for p in SHIPPED_GAMES]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used = _spy_on_loaders(monkeypatch)
    texts = [_outside_subset(p.read_text(encoding="utf-8")) for p in SHIPPED_SCENARIOS + SHIPPED_GAMES]
    assert [parse_scenario(t) for t in texts[: len(scenarios)]] == scenarios
    assert [parse_game(t) for t in texts[len(scenarios):]] == games
    assert set(used) == {yaml.SafeLoader}


@pytest.mark.parametrize("fallback", [False, True], ids=["chosen", "fallback"])
def test_plain_documents_are_read_without_a_yaml_loader(monkeypatch, fallback):
    # The subset reader reads every document the package ships or the tests write,
    # and the benchmark's test data, whichever loader PyYAML offers.
    texts = [p.read_text(encoding="utf-8") for p in SHIPPED_SCENARIOS + SHIPPED_GAMES + TESTDATA]
    texts += [MINIMAL] + [serialize_scenario(load_scenario(p)) for p in SHIPPED_SCENARIOS]
    texts += [serialize_game(load_game(p)) for p in SHIPPED_GAMES + TESTDATA]
    expected = [yaml.load(text, Loader=yaml.SafeLoader) for text in texts]
    if fallback:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    used = _spy_on_loaders(monkeypatch)
    assert [_parse_yaml(text) for text in texts] == expected
    assert used == []


# Documents outside the plain subset, which yaml.load builds once the depth
# check has read them: block scalars, explicit keys and markers, quoted `<<`,
# timestamps, number forms JSON reads otherwise, anchors and aliases, tags,
# merge and value keys, collection keys, a second document, a scalar its
# constructor rejects, and errors that the composer raises before the depth
# check could reach a list nested too deep.
YAML_EDGE_CASES = {
    "anchor-alias": "a: &x {k: [1, 2]}\nb: 2\nc: *x\n",
    "merge-override": "base: &b {x: 1, y: 2}\nmerged: {<<: *b, y: 3}\n",
    "value-key": "=: 2\n",
    "duplicate-key": "a: 1\na: 2\n",
    "sequence-key": "? [1, 2]\n: x\n",
    "recursive-alias": "&r [1, *r]\n",
    "recursive-omap": "&r !!omap [{k: *r}]\n",
    "recursive-under-merge": "d: {<<: {}, c: &r {self: *r}}\n",
    "empty": "",
    "bare-scalar": "just text\n",
    "explicit-float": "!!float 1\n",
    "explicit-float-signs": "!!float +-1\n",
    "set": "!!set {a, b}\n",
    "omap": "!!omap [a: 1, b: 2]\n",
    "pairs": "!!pairs [a: 1, a: 2]\n",
    "binary": "!!binary aGVsbG8=\n",
    "explicit-map": "!!map {a: 1}\n",
    "explicit-seq": "!!seq [1, 2]\n",
    "str-tag-on-map": "!!str {a: 1}\n",
    "map-tag-on-seq": "!!map [1]\n",
    "bool-null-keys": "~: 1\ntrue: 2\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "unclosed": "key: [1, 2\n",
    "non-specific-tag": "a: ! 12\n",
    "local-tag": "!foo 1\n",
    "quoted-merge-key": "'<<': {a: 1}\n",
    "anchor-deep-in-sequence": "a: [1, [2, &x {k: [v]}]]\nb: *x\n",
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
    "duplicate-anchor-on-collections": "a: &x [1]\nb: &x {k: v}\n",
    "explicit-markers": "--- \na: 1\n...\n",
    "bare-start": "---\n",
    "block-scalars": "a: |\n  one\n  two\nb: >\n  folded\n  text\n",
    "multi-line-plain": "a: one\n  two\n  3\n",
    "explicit-scalar-key": "? a\n: 1\n",
    "complex-key-after-simple-keys": "a: 1\nb: 2\n? [c]\n: 3\n",
    "syntax-error-after-anchor": "a: &x 1\nb: [\n",
    "invalid-timestamp": "a: 2001-02-30\n",
    "invalid-timestamp-then-syntax-error": "a: 2001-02-30\nb: [\n",
    "constructor-errors-in-load-order": "- [0x_]\n- 0b_\n",
    "timestamp-key": "2001-12-14: x\n",
    "undefined-alias-before-too-deep": "a: *x\nb: " + "[" * 101 + "]" * 101 + "\n",
    "duplicate-anchor-before-too-deep": "a: &x 1\nb: &x 2\nc: " + "[" * 101 + "]" * 101 + "\n",
    "too-deep-second-document": "a: 1\n---\n" + "[" * 101 + "]" * 101 + "\n",
}
YAML_EDGE_CASES.update(
    (f"v: {value}", f"v: {value}\n")
    for value in "0x1F 0o17 012 -012 00 -0 1_000 1:20 1_0.5 1:20.5 .inf -.INF -.nan 1e5 1.e+5"
    " .5 +.5e-3 -0.0 +3 yes ~ 2001-12-14 '1.5' \"3\"".split()
)
TESTDATA = sorted((REPO_ROOT / "perfbench" / "testdata").glob("*.yaml"))
YAML_INPUTS = [
    pytest.param(path.read_text(encoding="utf-8"), id=path.name)
    for path in SHIPPED_SCENARIOS + SHIPPED_GAMES + TESTDATA
] + [pytest.param(text, id=name) for name, text in YAML_EDGE_CASES.items()]


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def yaml_loader(request, monkeypatch):
    """Each loader `_parse_yaml` can pick: SafeLoader once CSafeLoader is hidden."""
    if request.param == "SafeLoader":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    return getattr(yaml, request.param)


def _assert_loads_as_yaml_load(text, loader):
    """`_parse_yaml(text)` returns what yaml.load does, or raises the same error."""
    try:
        expected = yaml.load(text, Loader=loader)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            _parse_yaml(text)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    doc = _parse_yaml(text)
    assert repr(doc) == repr(expected)
    if "*" not in text:  # == on a recursive document never ends
        # PyYAML builds one NaN object, which equals itself inside a list as
        # anywhere inside a document; a bare `.nan` document would not.
        assert [doc] == [expected]


@pytest.mark.parametrize("text", YAML_INPUTS)
def test_parse_yaml_builds_what_yaml_load_builds(yaml_loader, text):
    _assert_loads_as_yaml_load(text, yaml_loader)


def test_parse_yaml_keeps_aliases_shared(yaml_loader):
    doc = _parse_yaml(YAML_EDGE_CASES["anchor-alias"])
    assert doc["c"] is doc["a"]
    assert doc["a"]["k"] == [1, 2]
    recursive = _parse_yaml(YAML_EDGE_CASES["recursive-alias"])
    assert recursive[1] is recursive


# Plain scalars of every implicit tag, and the first characters with a resolver.
RESOLVER_SEEDS = (
    "", "~", "null", "Null", "NULL", "On", "off", "yes", "No", "TRUE", "false", "0x1F", "0o17",
    "012", "0b101", "1_000", "-0", "+3", "1:30", "1:20.5", "1.5", "1e5", "1.e+5", ".5", ".inf",
    "-.INF", ".nan", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "<<", "=", "!", "&", "*",
    "0", "Y", "n", "o", "t", "f", "-", ".", "plain",
)


def _yaml_text(node, block, pad=""):
    """`node` as YAML: a scalar in its quoting style, or a list or dict of nodes
    in block style `block` levels deep and in flow style below; each with its
    decoration (an anchor, a tag, or an alias that stands in for the node)."""
    deco, value = node
    if deco.startswith("*"):
        return deco
    if isinstance(value, tuple):
        text, style = value
        if style == "'":
            return deco + "'" + text.replace("'", "''") + "'"
        return deco + (json.dumps(text) if style == '"' else text)
    pairs, inner = isinstance(value, dict), pad + "  "
    if not (block and value):
        if pairs:
            return deco + "{%s}" % ", ".join(
                f"{_yaml_text(k, 0)}: {_yaml_text(v, 0)}" for k, v in value.items()
            )
        return deco + "[%s]" % ", ".join(_yaml_text(v, 0) for v in value)
    if pairs:
        lines = [f"{pad}{_yaml_text(k, 0)}: {_yaml_text(v, block - 1, inner)}" for k, v in value.items()]
    else:
        lines = [f"{pad}- {_yaml_text(v, block - 1, inner)}" for v in value]
    return deco + "\n" + "\n".join(lines)


# Text without control characters, which YAML rejects wherever they are,
# and mostly undecorated nodes: one decoration leaves the document to yaml.load.
_SCALARS = st.tuples(
    st.sampled_from(RESOLVER_SEEDS) | st.text(st.characters(exclude_categories=["Cc"]), max_size=8),
    st.sampled_from(["", "'", '"']),
)
_DECORATIONS = st.sampled_from([""] * 30 + ["&a ", "&b ", "*a", "!!str ", "! ", "!x "])
_NODES = st.recursive(
    st.tuples(_DECORATIONS, _SCALARS),
    lambda children: st.tuples(
        _DECORATIONS,
        st.lists(children, max_size=3)
        | st.dictionaries(st.tuples(st.just(""), _SCALARS), children, max_size=3),
    ),
    max_leaves=10,
)


@given(node=_NODES, block=st.integers(0, 9))
def test_parse_yaml_builds_what_yaml_load_builds_generated(node, block):
    text = _yaml_text(node, block) + "\n"
    for loader in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:
        with mock.patch.object(yaml, "CSafeLoader", loader, create=True):
            _assert_loads_as_yaml_load(text, loader)


# Words of every kind a plain scalar can be: names, the bool and null words in
# their three casings, and numbers in each form YAML 1.1 gives, most of which
# JSON reads otherwise or not at all. Keys are mostly names.
_NAMES = st.builds(
    str.__add__, st.sampled_from(string.ascii_letters + "_"), st.text(string.ascii_letters + string.digits + "_.+-", max_size=6)
)
_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False).map(lambda x: re.sub(r"^(-?[0-9]+)e", r"\1.0e", repr(x))),
    st.floats(allow_nan=False).map(repr),
    st.floats(min_value=1e16).map(lambda x: repr(x).replace("e+", "e")),
)
_SPECIAL = st.sampled_from(
    [w for b in "yes no true false on off null".split() for w in (b, b.title(), b.upper())]
    + "1e5 1.0e5 1.0e-09 1. .5 007 +3 -0 1_000 0x1F 1:30 2001-12-14 -Infinity NaN".split()
)
_PLAIN_WORDS = st.integers(0, 9).flatmap(lambda i: _NAMES if i < 5 else _NUMBERS if i < 8 else _SPECIAL)
_KEYS = st.integers(0, 4).flatmap(lambda i: _PLAIN_WORDS if i == 0 else _NAMES)
_PLAIN_NODES = st.recursive(
    _PLAIN_WORDS.map(lambda word: ("", (word, ""))),
    lambda children: st.tuples(
        st.just(""),
        st.lists(children, max_size=3)
        | st.dictionaries(_KEYS.map(lambda key: ("", (key, ""))), children, max_size=3),
    ),
    max_leaves=12,
)


# Edits that may take a document out of the subset: each turns one match of
# its pattern into its template.
_EDITS = {
    "comment": (r"\n", "\n  # note\n"),
    "trailing-comment": (r"\n", " # note\n"),
    "indent": (r"\n", "\n "),
    "dedent": (r"\n ", "\n"),
    "no-space-colon": (r"([{,] *[A-Za-z0-9_.+-]+): ", r"\1:"),  # in a flow mapping
    "trailing-comma": (r"(?<=[^[{])(?=[]}])", ","),
}


@st.composite
def _plain_documents(draw):
    """A document in or near the subset `_plain` reads, with up to two edits:
    a comment, an indent off by one, `a:1`, a trailing comma."""
    top = st.dictionaries(_NAMES.map(lambda key: ("", (key, ""))), _PLAIN_NODES, min_size=1, max_size=4)
    top |= st.lists(_PLAIN_NODES, min_size=1, max_size=4)
    node = draw(st.tuples(st.just(""), top) | _PLAIN_NODES)
    text = _yaml_text(node, draw(st.integers(1, 3))) + "\n"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pattern, new = _EDITS[draw(st.sampled_from(sorted(_EDITS)))]
        spots = list(re.finditer(pattern, text))
        if spots:
            spot = draw(st.sampled_from(spots))
            text = text[: spot.start()] + spot.expand(new) + text[spot.end():]
    return text


def test_plain_subset_builds_what_yaml_load_builds():
    # Every document `_plain` reads is yaml.load's, under both loaders, and a
    # quarter of the generated ones at least are read by it, not left to
    # yaml.load.
    read = []

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=_plain_documents())
    def check(text):
        read.append(document._plain(text) is not _OTHER)
        for loader in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:
            with mock.patch.object(yaml, "CSafeLoader", loader, create=True):
                _assert_loads_as_yaml_load(text, loader)

    check()
    print(f"read by the subset: {sum(read)} of {len(read)}")
    assert sum(read) >= len(read) / 4


@pytest.mark.parametrize("text, expected", [
    ("a: 1.0e-09\nb: -0\nc: [x, 2]\n", {"a": 1e-09, "b": 0, "c": ["x", 2]}),
    ("a: Yes\nb: off\nc: NULL\nd:\n", {"a": True, "b": False, "c": None, "d": None}),
    ("a:\n- k: v\n  l:\n  - 1\nb: {c: {d: [e]}}\n", {"a": [{"k": "v", "l": [1]}], "b": {"c": {"d": ["e"]}}}),
    ("# comment\n\n- x\n-\n  # comment\n  y: 1\n", ["x", {"y": 1}]),
])
def test_plain_subset_reads(text, expected):
    assert repr(document._plain(text)) == repr(expected)


@pytest.mark.parametrize("text", [
    "a: 1e5\n", "a: 1.0e5\n", "a: 1.\n", "a: .5\n", "a: 007\n", "a: +3\n", "a: 1_000\n",
    "a: 0x1F\n", "a: 1:30\n", "a: 2001-12-14\n", "a: -Infinity\n", "a: [b:1]\n", "a: {b:1}\n",
    "a: b:1\n", "a: [b, c,]\n", "true: 1\n", "a: {null: 1}\n", "1: a\n", "a: [b], [c]\n",
    "- [b], [c]\n", "a: b, c\n", "a: 'b'\n", "a: b # c\n", "a: &x b\n", "a: b\n  c\n",
    " a: 1\nb: 2\n", "a:\n  b: 1\n c: 2\n", "a: [[[[[b]]]]]\n", "%s: 1\n" % ("k" * 1001),
    "a: {%s: 1}\n" % ("k" * 1001), "a: 1\r\n", "a:\tb\n", "a: b\u00e9\n", "b\n", "", "# only\n",
    "---\na: 1\n",
])
def test_plain_subset_leaves_other_text(text):
    # Text yaml.load reads otherwise than JSON would, or rejects, or that the
    # subset does not cover, goes to yaml.load.
    assert document._plain(text) is _OTHER


def _deep(depth, form):
    """A document `depth` collections deep."""
    if form == "block":
        return "".join(" " * i + "k:\n" for i in range(depth - 1)) + " " * (depth - 1) + "k: 1\n"
    return ("&a " if form == "anchored" else "") + "[" * depth + "]" * depth + "\n"


@pytest.mark.parametrize("form", ["flow", "anchored", "block"])
def test_nesting_is_bounded_at_100_levels(yaml_loader, form):
    text = _deep(100, form)
    assert repr(_parse_yaml(text)) == repr(yaml.load(text, Loader=yaml_loader))
    with pytest.raises(yaml.YAMLError, match="^nesting deeper than 100 levels$"):
        _parse_yaml(_deep(101, form))


@pytest.mark.parametrize("anchor", ["", "&a "], ids=["plain", "anchored"])
def test_deep_document_is_a_diagnostic_before_yaml_load(yaml_loader, monkeypatch, anchor):
    # On this document yaml.load dies in libyaml (SIGSEGV) or raises
    # RecursionError in PyYAML; libyaml takes about a minute just to parse it
    # without the anchor. Its depth is checked before yaml.load could see it.
    text = f"schema_version: 1\nmatrix_game: {anchor}{{x: " + "[" * 100_000 + "]" * 100_000 + "}\n"
    monkeypatch.setattr(yaml, "load", _refuse)
    assert document._plain(text) is _OTHER
    with pytest.raises(ScenarioFormatError) as info:
        parse_game(text)
    assert str(info.value) == "[game] -: not valid YAML: nesting deeper than 100 levels"


def _refuse(*args, **kwargs):
    raise AssertionError("yaml.load called")


@pytest.mark.parametrize("parse", [parse_scenario, parse_game], ids=["scenario", "game"])
def test_documents_are_built_without_yaml_load(yaml_loader, monkeypatch, parse):
    # Were every document left to yaml.load, the tests above would still pass.
    paths = SHIPPED_SCENARIOS if parse is parse_scenario else SHIPPED_GAMES + TESTDATA
    texts = [p.read_bytes() for p in paths] + ([MINIMAL] if parse is parse_scenario else [])
    with monkeypatch.context() as m:
        m.setattr(document, "_parse_yaml", lambda text: yaml.load(text, Loader=yaml_loader))
        expected = [parse(text) for text in texts]

    monkeypatch.setattr(yaml, "load", _refuse)
    assert [parse(text) for text in texts] == expected


@pytest.mark.parametrize("fallback", [False, True], ids=["chosen", "fallback"])
@pytest.mark.parametrize("parse", [parse_scenario, parse_game])
def test_malformed_yaml_is_a_format_error(monkeypatch, fallback, parse):
    if fallback:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ScenarioFormatError) as info:
        parse("schema_version: 1\nkey: [unclosed\n")
    assert "not valid YAML" in str(info.value)


@pytest.mark.parametrize("cell", ["abc", "[1, 2]"], ids=["string", "list"])
def test_non_numeric_payoff_cell_is_a_format_error(game_specs_dir, cell):
    text = (game_specs_dir / "rock_paper_scissors.yaml").read_text()
    text = text.replace("rock: {rock: 0,", f"rock: {{rock: {cell},", 1)
    with pytest.raises(ScenarioFormatError) as info:
        parse_game(text)
    assert info.value.section == "matrix_game"
    assert info.value.key == "payoff"
    assert info.value.reason.startswith("must be a finite number")


@pytest.mark.parametrize(
    "old, new, section",
    [
        (
            "    profile: default",
            "    profile: default\n    prior: [{score: 0.5, weight: abc}]",
            "entities[0]",
        ),
        ("good: {act: 1.0}", "good: {act: abc}", "profiles.default"),
    ],
    ids=["prior-weight", "behavior-probability"],
)
def test_non_numeric_scenario_value_is_a_format_error(old, new, section):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(MINIMAL.replace(old, new, 1))
    assert info.value.section == section


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("trusted: [good]", "trusted: []", "entities[0].prior"),
        ("trusted: [good]", "trusted: [good, bad]", "entities[0].prior"),
        ("entities:\n  - id: e1\n    true_type: good\n    profile: default\n",
         "entities: []\n", "entities"),
    ],
    ids=["no-trusted-type", "no-untrusted-type", "no-entities"],
)
def test_scenario_that_cannot_run_is_rejected_at_load(old, new, key):
    # Each would otherwise fail only inside `ztsim run`.
    assert old in MINIMAL
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(MINIMAL.replace(old, new, 1))
    assert info.value.section == "scenario"
    assert info.value.key == key
