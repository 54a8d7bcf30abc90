"""Brute-force pure-equilibrium checker kept deliberately independent of the
solver implementation: conditionals, interim utilities, and deviation checks
are recomputed from the raw tables with plain loops."""

import itertools

from ztsim.errors import left_sum


def _interim_utility(spec, player_idx, own_type, own_action, strategy_maps):
    players = spec.players
    marginal = 0.0
    weighted = 0.0
    for tprof, p in spec.prior.items():
        if tprof[player_idx] != own_type or p <= 0:
            continue
        marginal += p
        actions = []
        for j, pl in enumerate(players):
            if j == player_idx:
                actions.append(own_action)
            else:
                actions.append(strategy_maps[pl][tprof[j]])
        weighted += p * spec.utilities[players[player_idx]][(tuple(actions), tprof)]
    return weighted / marginal


def reference_pure_bne(spec):
    """All pure strategy profiles surviving every unilateral type-level deviation."""
    players = spec.players
    option_lists = []
    for pl in players:
        ts = spec.types[pl]
        option_lists.append(
            [dict(zip(ts, combo)) for combo in itertools.product(spec.actions[pl], repeat=len(ts))]
        )
    marginals = {
        pl: {
            t: left_sum(p for prof, p in spec.prior.items() if prof[i] == t)
            for t in spec.types[pl]
        }
        for i, pl in enumerate(players)
    }
    equilibria = []
    for combo in itertools.product(*option_lists):
        strategy = dict(zip(players, combo))
        ok = True
        for i, pl in enumerate(players):
            for t in spec.types[pl]:
                if marginals[pl][t] <= 0:
                    continue
                held = _interim_utility(spec, i, t, strategy[pl][t], strategy)
                for alt in spec.actions[pl]:
                    if _interim_utility(spec, i, t, alt, strategy) > held + 1e-9:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            equilibria.append(tuple((pl, tuple(sorted(strategy[pl].items(), key=lambda kv: str(kv[0])))) for pl in players))
    return set(equilibria)


def random_bayesian_game(rng, max_players=2, max_types=2, max_actions=3):
    """Random small game with i.i.d. integer payoffs in [-5, 5]."""
    from ztsim.games import BayesianGameSpec

    n_players = int(rng.integers(1, max_players + 1))
    players = tuple(f"p{i}" for i in range(n_players))
    types = {p: tuple(f"t{j}" for j in range(int(rng.integers(1, max_types + 1)))) for p in players}
    actions = {p: tuple(f"a{j}" for j in range(int(rng.integers(1, max_actions + 1)))) for p in players}
    tprofiles = list(itertools.product(*(types[p] for p in players)))
    raw = rng.random(len(tprofiles)) + 0.05
    raw = raw / raw.sum()
    prior = {prof: float(w) for prof, w in zip(tprofiles, raw)}
    utilities = {p: {} for p in players}
    for aprof in itertools.product(*(actions[p] for p in players)):
        for tprof in tprofiles:
            for p in players:
                utilities[p][(aprof, tprof)] = float(rng.integers(-5, 6))
    return BayesianGameSpec(players, types, actions, prior, utilities)
