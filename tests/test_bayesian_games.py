import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bne_reference import random_bayesian_game, reference_pure_bne
from ztsim.errors import EnumerationBudgetExceeded, UnreachableType, ValidationError
from ztsim.games import BayesianGameSpec, BayesianStrategy, bayes_expected_utility, find_bne
from ztsim.games import bayesian
from ztsim.games.bayesian import strategy_space_size
from ztsim.gamespec import load_game


def two_type_matching_game():
    """Type-x prefers A, type-y prefers B (opponent-independent); the single-type
    observer earns 1 for matching the realized action."""
    players = ("p1", "p2")
    types = {"p1": ("x", "y"), "p2": ("solo",)}
    actions = {"p1": ("A", "B"), "p2": ("A", "B")}
    prior = {("x", "solo"): 0.5, ("y", "solo"): 0.5}
    u1, u2 = {}, {}
    for a1 in "AB":
        for a2 in "AB":
            for t1 in "xy":
                ap, tp = (a1, a2), (t1, "solo")
                u1[(ap, tp)] = 3.0 if (t1 == "x") == (a1 == "A") else 0.0
                u2[(ap, tp)] = 1.0 if a1 == a2 else 0.0
    return BayesianGameSpec(players, types, actions, prior, {"p1": u1, "p2": u2})


def matching_pennies_single_types():
    players = ("row", "col")
    types = {"row": ("t",), "col": ("t",)}
    actions = {"row": ("H", "T"), "col": ("H", "T")}
    prior = {("t", "t"): 1.0}
    u_row, u_col = {}, {}
    for a1 in "HT":
        for a2 in "HT":
            val = 1.0 if a1 == a2 else -1.0
            u_row[((a1, a2), ("t", "t"))] = val
            u_col[((a1, a2), ("t", "t"))] = -val
    return BayesianGameSpec(players, types, actions, prior, {"row": u_row, "col": u_col})


def test_expected_utility_single_type_opponent_is_table_entry():
    spec = matching_pennies_single_types()
    strat = BayesianStrategy.from_dict({"row": {"t": "H"}, "col": {"t": "T"}})
    assert bayes_expected_utility(spec, strat, "row", "t") == pytest.approx(-1.0)


def test_expected_utility_matching_game():
    spec = two_type_matching_game()
    strat = BayesianStrategy.from_dict({"p1": {"x": "A", "y": "B"}, "p2": {"solo": "A"}})
    assert bayes_expected_utility(spec, strat, "p2", "solo") == pytest.approx(0.5)


def test_expected_utility_constant_utilities():
    spec = matching_pennies_single_types()
    const = {k: 7.5 for k in spec.utilities["row"]}
    spec2 = BayesianGameSpec(
        spec.players, spec.types, spec.actions, spec.prior,
        {"row": const, "col": dict(spec.utilities["col"])},
    )
    for strat in (
        BayesianStrategy.from_dict({"row": {"t": "H"}, "col": {"t": "H"}}),
        BayesianStrategy.from_dict({"row": {"t": "T"}, "col": {"t": "H"}}),
    ):
        assert bayes_expected_utility(spec2, strat, "row", "t") == pytest.approx(7.5)


def test_expected_utility_unreachable_type():
    players = ("p1",)
    spec = BayesianGameSpec(
        players,
        {"p1": ("a", "b")},
        {"p1": ("x",)},
        {("a",): 1.0, ("b",): 0.0},
        {"p1": {(("x",), ("a",)): 1.0, (("x",), ("b",)): 0.0}},
    )
    strat = BayesianStrategy.from_dict({"p1": {"a": "x", "b": "x"}})
    with pytest.raises(UnreachableType):
        bayes_expected_utility(spec, strat, "p1", "b")


def test_find_bne_dominant_actions():
    # both types of the single player strictly prefer action "d"
    spec = BayesianGameSpec(
        ("p1",),
        {"p1": ("a", "b")},
        {"p1": ("d", "e")},
        {("a",): 0.6, ("b",): 0.4},
        {
            "p1": {
                (("d",), ("a",)): 2.0,
                (("e",), ("a",)): 0.0,
                (("d",), ("b",)): 2.0,
                (("e",), ("b",)): 0.0,
            }
        },
    )
    eqs = find_bne(spec)
    assert eqs == [BayesianStrategy.from_dict({"p1": {"a": "d", "b": "d"}})]


def test_find_bne_matching_game():
    spec = two_type_matching_game()
    got = set(find_bne(spec))
    expected = {
        BayesianStrategy.from_dict({"p1": {"x": "A", "y": "B"}, "p2": {"solo": "A"}}),
        BayesianStrategy.from_dict({"p1": {"x": "A", "y": "B"}, "p2": {"solo": "B"}}),
    }
    assert got == expected


def test_find_bne_matching_pennies_empty():
    assert find_bne(matching_pennies_single_types()) == []


def test_find_bne_budget_error():
    spec = two_type_matching_game()
    with pytest.raises(EnumerationBudgetExceeded) as info:
        find_bne(spec, budget=4)
    assert info.value.budget == 4
    assert "4" in str(info.value)


def test_prior_must_sum_to_one():
    with pytest.raises(ValidationError):
        BayesianGameSpec(
            ("p1",),
            {"p1": ("a",)},
            {"p1": ("x",)},
            {("a",): 0.9},
            {"p1": {(("x",), ("a",)): 0.0}},
        )


def test_prior_types_must_be_declared():
    with pytest.raises(ValidationError) as info:
        BayesianGameSpec(
            ("p1",),
            {"p1": ("a",)},
            {"p1": ("x",)},
            {("a",): 0.5, ("typo",): 0.5},
            {"p1": {(("x",), ("a",)): 0.0}},
        )
    assert str(info.value) == "prior.('typo',): undeclared label ('typo',)"


@pytest.mark.parametrize("profile, message", [
    (("x", "typo"), "prior.('x', 'typo'): undeclared label ('x', 'typo')"),
    (("x",), "prior.('x',): undeclared label ('x',)"),
    (("x", "z", "z"), "prior.('x', 'z', 'z'): undeclared label ('x', 'z', 'z')"),
], ids=["undeclared_type", "short_profile", "long_profile"])
def test_prior_keys_are_declared_type_profiles(profile, message):
    """The prior is a table over one axis, the type profiles, so a profile
    of the wrong length is an undeclared label like a profile naming an
    undeclared type."""
    players, types, actions = ("p", "q"), {"p": ("x", "y"), "q": ("z",)}, {"p": ("a",), "q": ("c",)}
    cells = itertools.product([("a", "c")], [("x", "z"), ("y", "z")])
    utilities = {p: dict.fromkeys(cells, 0.0) for p in players}
    with pytest.raises(ValidationError) as info:
        BayesianGameSpec(players, types, actions, {("x", "z"): 0.5, profile: 0.5}, utilities)
    assert str(info.value) == message


def test_prior_is_stored_over_every_type_profile():
    """A profile the prior leaves out is stored at 0, in type-profile order."""
    spec = BayesianGameSpec(
        ("p1",), {"p1": ("a", "b", "c")}, {"p1": ("x",)}, {("c",): 0.25, ("a",): 0.75},
        {"p1": {(("x",), (t,)): 0.0 for t in "abc"}},
    )
    assert spec.prior == {("a",): 0.75, ("b",): 0.0, ("c",): 0.25}
    assert list(spec.prior) == [("a",), ("b",), ("c",)]


def test_utility_table_must_be_total():
    with pytest.raises(ValidationError):
        BayesianGameSpec(
            ("p1",),
            {"p1": ("a",)},
            {"p1": ("x", "y")},
            {("a",): 1.0},
            {"p1": {(("x",), ("a",)): 0.0}},
        )


@pytest.mark.parametrize("key", ["players", "types.p", "actions.p"])
def test_repeated_labels_rejected(key):
    players = ("p", "q")
    types = {"p": ("x", "y"), "q": ("z",)}
    actions = {"p": ("a", "b"), "q": ("c",)}
    if key == "players":
        players = ("p", "p")
    else:
        table = types if key == "types.p" else actions
        table["p"] = (table["p"][0],) * 2
    type_profiles = list(itertools.product(*(types[p] for p in players)))
    cells = itertools.product(itertools.product(*(actions[p] for p in players)), type_profiles)
    zeros = dict.fromkeys(cells, 0.0)
    with pytest.raises(ValidationError) as info:
        BayesianGameSpec(
            players, types, actions,
            {t: 1.0 / len(type_profiles) for t in type_profiles},
            {p: zeros for p in players},
        )
    assert info.value.key == key
    assert info.value.reason == "identifiers must be unique"


def test_find_bne_matches_reference_on_random_games():
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec = random_bayesian_game(rng)
        got = {eq.choices for eq in find_bne(spec)}
        assert got == reference_pure_bne(spec)


def test_find_bne_deterministic():
    spec = two_type_matching_game()
    assert find_bne(spec) == find_bne(spec)


def deviation_find_bne(spec):
    """`find_bne` as a loop of `bayes_expected_utility` calls over deep-copied
    deviation profiles: the formulation the interim tables must reproduce,
    equilibrium for equilibrium and in the same order."""
    per_player = []
    for p in spec.players:
        ts = spec.types[p]
        per_player.append(
            [dict(zip(ts, combo)) for combo in itertools.product(spec.actions[p], repeat=len(ts))]
        )
    live_types = {
        p: [t for t in spec.types[p] if spec.marginal(p, t) > 0] for p in spec.players
    }

    def is_bne(strategy):
        for p in spec.players:
            for t in live_types[p]:
                base = bayes_expected_utility(spec, strategy, p, t)
                for alt in spec.actions[p]:
                    if alt == strategy[p][t]:
                        continue
                    trial = {q: dict(m) for q, m in strategy.items()}
                    trial[p][t] = alt
                    if bayes_expected_utility(spec, trial, p, t) > base + bayesian.EQ_TOL:
                        return False
        return True

    results = []
    for combo in itertools.product(*per_player):
        strategy = {p: dict(m) for p, m in zip(spec.players, combo)}
        if is_bne(strategy):
            results.append(BayesianStrategy.from_dict(strategy))
    return results


@st.composite
def correlated_bayesian_games(draw):
    """Games with a correlated joint prior, often with zero-probability type
    profiles and zero-marginal types, and payoffs that tie often."""
    n_players = draw(st.integers(1, 3))
    players = tuple(f"p{i}" for i in range(n_players))
    types = {p: tuple(f"t{j}" for j in range(draw(st.integers(1, 3)))) for p in players}
    actions = {p: tuple(f"a{j}" for j in range(draw(st.integers(1, 3)))) for p in players}
    tprofiles = list(itertools.product(*(types[p] for p in players)))
    weights = [draw(st.sampled_from([0, 0, 1, 2, 3, 7])) for _ in tprofiles]
    assume(sum(weights) > 0)
    total = sum(weights)
    prior = {prof: w / total for prof, w in zip(tprofiles, weights)}
    assume(abs(sum(prior.values()) - 1.0) <= 1e-9)
    payoff = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-3, 3)]))
    utilities = {p: {} for p in players}
    for aprof in itertools.product(*(actions[p] for p in players)):
        for tprof in tprofiles:
            for p in players:
                utilities[p][(aprof, tprof)] = draw(payoff)
    spec = BayesianGameSpec(players, types, actions, prior, utilities)
    assume(strategy_space_size(spec) <= 729)
    return spec


# With a zero tolerance, exact ties between deviations decide the result, so
# any last-bit difference in an interim payoff would change the equilibria.
zero_and_eq_tol = pytest.mark.parametrize(
    "tol", [bayesian.EQ_TOL, 0.0], ids=["eq_tol", "zero_tol"]
)


@zero_and_eq_tol
# 150 examples locally; the CI profile's 500 when it asks for more.
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(spec=correlated_bayesian_games())
def test_find_bne_matches_deviation_loop(tol, spec):
    with mock.patch.object(bayesian, "EQ_TOL", tol):
        assert find_bne(spec) == deviation_find_bne(spec)


def test_find_bne_breaks_exact_ties_in_belief_order():
    """`up` and `down` earn the same three products, summed in opposite orders,
    so their interim payoffs differ in the last bit. With a zero tolerance,
    only summing in `bayes_expected_utility`'s order picks the same single
    equilibrium."""
    types = {"row": ("r",), "nature": ("t0", "t1", "t2")}
    actions = {"row": ("up", "down"), "nature": ("n",)}
    prior = {("r", t): 1 / 3 for t in types["nature"]}
    payoff = {"up": (0.1, 0.2, 0.3), "down": (0.3, 0.2, 0.1)}
    utilities = {"row": {}, "nature": {}}
    for a, row in payoff.items():
        for t, u in zip(types["nature"], row):
            utilities["row"][((a, "n"), ("r", t))] = u
            utilities["nature"][((a, "n"), ("r", t))] = 0.0
    spec = BayesianGameSpec(("row", "nature"), types, actions, prior, utilities)
    nature = {"nature": {t: "n" for t in types["nature"]}}
    up = bayes_expected_utility(spec, {"row": {"r": "up"}, **nature}, "row", "r")
    down = bayes_expected_utility(spec, {"row": {"r": "down"}, **nature}, "row", "r")
    assert up != down
    with mock.patch.object(bayesian, "EQ_TOL", 0.0):
        got = find_bne(spec)
        assert got == deviation_find_bne(spec)
    assert len(got) == 1


def table_game(types, actions, payoff, weight=lambda tprof: 1.0):
    """A game over players p0, p1, ... with `types[i]` type and `actions[i]`
    action labels for player i, utility ``payoff(player index, action profile,
    type profile)`` and a joint prior proportional to `weight`."""
    players = tuple(f"p{i}" for i in range(len(types)))
    types = dict(zip(players, types))
    actions = dict(zip(players, actions))
    tprofiles = list(itertools.product(*types.values()))
    total = sum(weight(t) for t in tprofiles)
    prior = {t: weight(t) / total for t in tprofiles}
    utilities = {
        p: {
            (aprof, tprof): payoff(i, aprof, tprof)
            for aprof in itertools.product(*actions.values())
            for tprof in tprofiles
        }
        for i, p in enumerate(players)
    }
    return BayesianGameSpec(players, types, actions, prior, utilities)


def test_is_bne_runs_once_per_strategy_of_the_other_players(monkeypatch):
    """With untied payoffs each type of the last player has one best response,
    so each of the first player's 3^4 strategies leaves one candidate; the old
    full product checked up to 3^8 = 6561 profiles."""
    rng = np.random.default_rng(11)
    cells = iter(rng.uniform(-1, 1, size=2 * 9 * 16).tolist())
    four = ("t0", "t1", "t2", "t3")
    three = ("a0", "a1", "a2")
    spec = table_game((four, four), (three, three), lambda *_: next(cells))
    calls = []
    is_bne = bayesian._is_bne

    def counting(checks, combo):
        calls.append(combo)
        return is_bne(checks, combo)

    monkeypatch.setattr(bayesian, "_is_bne", counting)
    got = find_bne(spec)
    assert len(calls) == 81
    assert got == deviation_find_bne(spec)


@zero_and_eq_tol
def test_constant_game_returns_every_profile_in_product_order(tol):
    spec = table_game((("x", "y"), ("u", "v")), (("A", "B"), ("C", "D", "E")), lambda *_: 1.5)
    every = [
        BayesianStrategy.from_dict({"p0": dict(zip(("x", "y"), s0)), "p1": dict(zip(("u", "v"), s1))})
        for s0 in itertools.product("AB", repeat=2)
        for s1 in itertools.product("CDE", repeat=2)
    ]
    with mock.patch.object(bayesian, "EQ_TOL", tol):
        assert find_bne(spec) == every == deviation_find_bne(spec)


@zero_and_eq_tol
def test_one_player_game(tol):
    """The other players' strategies are the empty head; ties keep both the
    first and the third action."""
    table = {"x": {"A": 2.0, "B": 1.0, "C": 2.0}, "y": {"A": 0.0, "B": 0.3, "C": 0.1}}
    spec = table_game((("x", "y"),), (("A", "B", "C"),), lambda i, a, t: table[t[0]][a[0]])
    with mock.patch.object(bayesian, "EQ_TOL", tol):
        got = find_bne(spec)
        assert got == deviation_find_bne(spec)
    assert [eq.as_dict()["p0"] for eq in got] == [{"x": "A", "y": "B"}, {"x": "C", "y": "B"}]


@zero_and_eq_tol
def test_zero_marginal_type_of_the_last_player_keeps_every_action(tol):
    """`ghost` never occurs, so any action of it is an equilibrium choice."""
    spec = table_game(
        (("x",), ("real", "ghost")),
        (("A", "B"), ("C", "D")),
        lambda i, a, t: float(a[0] == "A") + float(a[1] == "C") * (1 + i),
        weight=lambda tprof: float(tprof[1] == "real"),
    )
    with mock.patch.object(bayesian, "EQ_TOL", tol):
        got = find_bne(spec)
        assert got == deviation_find_bne(spec)
    assert [eq.as_dict()["p1"] for eq in got] == [
        {"real": "C", "ghost": "C"},
        {"real": "C", "ghost": "D"},
    ]


@zero_and_eq_tol
def test_three_player_game(tol):
    """Each player earns 1 for matching the next player's action (the last
    matches the first), scaled by its own type: every all-equal profile is an
    equilibrium, the head spans two players."""
    scale = {"lo": 1.0, "hi": 2.0}
    spec = table_game(
        (("lo", "hi"), ("lo",), ("lo", "hi")),
        (("A", "B"), ("A", "B", "C"), ("A", "B")),
        lambda i, a, t: scale[t[i]] * float(a[i] == a[(i + 1) % 3]),
        weight=lambda tprof: 1.0 + (tprof[0] == tprof[2]),
    )
    with mock.patch.object(bayesian, "EQ_TOL", tol):
        got = find_bne(spec)
        assert got == deviation_find_bne(spec)
    assert len(got) == 2


def test_budget_boundary():
    spec = two_type_matching_game()
    required = strategy_space_size(spec)
    assert find_bne(spec, budget=required) == find_bne(spec)
    with pytest.raises(EnumerationBudgetExceeded) as info:
        find_bne(spec, budget=required - 1)
    assert info.value.required == required


_INSIDER = {"insider": {"diligent": "comply", "negligent": "shortcut"}, "auditor": {"generic": "comply"}}


@pytest.mark.parametrize(
    "strategy, player, ptype, message",
    [
        ({**_INSIDER, "insider": {**_INSIDER["insider"], "extra": "comply"}}, "insider", "diligent",
         "strategy.insider.extra: undeclared label 'extra'"),
        ({"insider": {"diligent": "comply"}, "auditor": _INSIDER["auditor"]}, "insider", "diligent",
         "strategy.insider.negligent: missing"),
        ({"insider": _INSIDER["insider"]}, "insider", "diligent", "strategy.auditor: missing"),
        ({**_INSIDER, "boss": {"generic": "comply"}}, "insider", "diligent", "strategy.boss: undeclared label 'boss'"),
        ({**_INSIDER, "auditor": {"generic": "nap"}}, "auditor", "generic",
         "strategy.auditor.generic: undeclared label 'nap'"),
        (_INSIDER, "boss", "generic", "player: undeclared label 'boss'"),
        (_INSIDER, "insider", "sloppy", "ptype: undeclared label 'sloppy'"),
        ({**_INSIDER, "insider": "comply"}, "insider", "diligent", "strategy.insider: expected a mapping"),
        ([_INSIDER], "insider", "diligent", "strategy: expected a mapping"),
    ],
    ids=["undeclared_type", "missing_type", "missing_player", "undeclared_player", "undeclared_action",
         "undeclared_player_argument", "undeclared_type_argument", "row_not_a_mapping",
         "strategy_not_a_mapping"],
)
def test_expected_utility_checks_labels_naming_the_entry(game_specs_dir, strategy, player, ptype, message):
    """The strategy is a `table` over the players and their types, and each
    choice, player and type must be declared: none reads as a raw KeyError
    or as an unreachable type."""
    spec = load_game(game_specs_dir / "insider_matching.yaml")
    assert bayes_expected_utility(spec, _INSIDER, "insider", "diligent") == 3.0
    with pytest.raises(ValidationError) as info:
        bayes_expected_utility(spec, strategy, player, ptype)
    assert str(info.value) == message
