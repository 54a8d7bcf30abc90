"""What a fresh process imports. `import ztsim` imports no submodule: each
public name is imported from its module on first use. PyYAML is imported
only for a document outside the plain subset that `document._plain` reads;
every shipped document is in that subset."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ztsim

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = sorted(str(p) for p in (REPO_ROOT / "scenarios").glob("*.yaml"))
GAMES = sorted(str(p) for p in (REPO_ROOT / "game_specs").glob("*.yaml"))


def _python(*args):
    """Run a fresh `python *args`; its stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules(code):
    """The modules a fresh process holds after running `code`."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    return set(json.loads(_python("-c", probe).stdout))


def _imported_by_cli(*argv):
    """The modules `python -m ztsim *argv` imports, as `-X importtime` lists them."""
    lines = _python("-X", "importtime", "-m", "ztsim", *argv).stderr.splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def test_only_document_py_imports_yaml():
    """The package reads documents and writes none, so one module knows PyYAML.
    Every import statement counts, a function-level one included."""
    importers = set()
    for path in (REPO_ROOT / "src" / "ztsim").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from .x import`
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "yaml" for name in names):
                importers.add(path.relative_to(REPO_ROOT / "src").as_posix())
    assert importers == {"ztsim/document.py"}


def test_import_ztsim_imports_no_submodule():
    modules = _modules("import ztsim")
    assert "ztsim" in modules
    assert not {m for m in modules if m.startswith("ztsim.") or m in ("yaml", "numpy")}


def test_load_scenario_leaves_games_and_yaml_unloaded():
    modules = _modules(f"import ztsim\nfor p in {SCENARIOS!r}: ztsim.load_scenario(p)")
    assert "ztsim.scenario" in modules
    assert not {"yaml", "ztsim.games", "ztsim.gamespec"} & modules


def test_load_game_leaves_simulator_and_yaml_unloaded():
    modules = _modules(f"import ztsim\nfor p in {GAMES!r}: ztsim.load_game(p)")
    assert "ztsim.gamespec" in modules
    assert not {"yaml", "ztsim.sim", "ztsim.trust", "ztsim.scenario"} & modules


@pytest.mark.parametrize(
    "argv",
    [("run", "--scenario", p) for p in SCENARIOS] + [("solve", "--game", p) for p in GAMES],
    ids=lambda argv: f"{argv[0]}-{pathlib.Path(argv[2]).stem}",
)
def test_cli_on_shipped_documents_leaves_yaml_unloaded(tmp_path, argv):
    imported = _imported_by_cli(*argv, "--out", str(tmp_path / "out.jsonl"))
    assert "ztsim.cli" in imported
    assert "yaml" not in imported


def test_quoted_id_scenario_is_read_by_yaml_load(tmp_path):
    """A quoted id leaves the plain subset: the document goes to yaml.load,
    which builds the model the plain reader builds."""
    text = pathlib.Path(SCENARIOS[0]).read_text(encoding="utf-8")
    quoted = tmp_path / "quoted.yaml"
    quoted.write_text(text.replace("id: alice", 'id: "alice"', 1), encoding="utf-8")
    assert 'id: "alice"' in quoted.read_text(encoding="utf-8")
    code = f"""
import sys
import ztsim
plain = ztsim.load_scenario({SCENARIOS[0]!r})
assert "yaml" not in sys.modules
assert ztsim.load_scenario({str(quoted)!r}) == plain
import yaml
calls, load = [], yaml.load
yaml.load = lambda *args, **kwargs: calls.append(args) or load(*args, **kwargs)
assert ztsim.load_scenario({str(quoted)!r}) == plain
assert len(calls) == 1
"""
    assert "yaml" in _modules(code)


def test_public_names_resolve_and_are_listed():
    code = """
import importlib
import sys
import ztsim
assert set(ztsim.__all__) <= set(dir(ztsim))
assert not [m for m in sys.modules if m.startswith("ztsim.")]
names = {}
exec("from ztsim import *", names)
for name in ztsim.__all__:
    module = importlib.import_module(f"ztsim.{ztsim._MODULE_OF[name]}")
    assert names[name] is getattr(ztsim, name) is getattr(module, name), name
"""
    _python("-c", code)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ztsim.no_such_name
    assert not hasattr(ztsim, "load_scenarios")
    assert ztsim.load_scenario is ztsim.scenario.load_scenario
