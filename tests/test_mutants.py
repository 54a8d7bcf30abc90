"""Self-test of `scripts/mutants.py`. The catalog itself runs outside tier-1:
`python3 scripts/mutants.py`."""
import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("mutants", REPO_ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_a_mutant_no_test_catches_survives():
    comment = mutants.Mutant(
        "comment reworded",
        "ztsim/games/signaling.py",
        "# (sender profile, signal) pairs per array pass of find_pbe",
        "# pairs per block",
        ("tests/test_signaling_games.py::test_spec_validation",),
    )
    assert mutants.run(comment) == "survived"


@pytest.mark.parametrize("count", [0, 2])
def test_a_snippet_must_occur_exactly_once(tmp_path, count):
    (tmp_path / "mod.py").write_text("x = 1\n" + "x = 2\n" * count)
    mutant = mutants.Mutant("edit", "mod.py", "x = 2", "x = 3", ())
    with pytest.raises(mutants.CatalogError, match=f"occurs {count} times"):
        mutants.apply(mutant, tmp_path)
