"""Metamorphic relations for `find_pbe`: reordering the declared signals,
receiver actions or sender types maps the set of PBEs onto itself, each
result carrying its labels along. `find_pbe` lists results in declared
order, so the relations compare sets, not lists. They need no oracle, so
they check the solver's keyed belief table without relying on the
enumeration order `tests/pbe_reference.py` shares with it.

The games have integer utilities and dyadic priors, one type at prior 0.0
and one at -0.0. Then every belief and every receiver value is computed
exactly or with the same rounding in any order, and values that differ
differ by far more than `EQ_TOL`, so no tie depends on the order. The
pessimistic rule breaks its ties by type and action order, so it is
applied only where its choice of point belief has no tie."""
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ztsim.games import SignalingGameSpec, find_pbe, receiver_best_response
from ztsim.games.signaling import EQ_TOL

# Dyadic priors of the positive-prior types.
_LIVE_PRIORS = [(1.0,), (0.5, 0.5), (0.25, 0.75), (0.75, 0.25), (0.25, 0.25, 0.5), (0.125, 0.375, 0.5)]


@st.composite
def games(draw):
    live = draw(st.sampled_from(_LIVE_PRIORS))
    prior = dict(zip(("zero", "negzero") + tuple(f"t{i}" for i in range(len(live))), (0.0, -0.0) + live))
    types = draw(st.permutations(list(prior)))
    signals = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    actions = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    cell = st.integers(-2, 2).map(float)
    return SignalingGameSpec(
        types=types,
        prior=prior,
        signals=signals,
        receiver_actions=actions,
        sender_utility={(t, s, a): draw(cell) for t in types for s in signals for a in actions},
        receiver_utility={(a, t): draw(cell) for a in actions for t in types},
    )


def _rules(spec, field):
    """The off-path rules whose beliefs no reordering of `field` changes. The
    pessimistic rule takes the first best reply to each point belief, in
    action order, and the first point belief that deters deviations most, in
    type order; it is kept only where the reordered labels break no tie."""
    n = len(spec.types)
    replies = [receiver_best_response(spec, [float(j == i) for j in range(n)]) for i in range(n)]
    tied = False
    if field == "receiver_actions":
        tied = any(tie for _, _, tie in replies)
    elif field == "types":
        for s in spec.signals:
            gains = sorted(max(spec.sender_utility[(t, s, a)] for t in spec.types) for a, _, _ in replies)
            tied |= gains[1] - gains[0] <= EQ_TOL
    return ("uniform", "prior") + (() if tied else ("pessimistic",))


def _pbe_set(spec, rule):
    """The PBEs as a set of label-keyed results, each belief as type -> the
    bits of its probability, so 0.0 and -0.0 stay apart."""
    results = find_pbe(spec, rule)
    keyed = {
        (
            frozenset(r.sender_strategy),
            frozenset(r.receiver_strategy),
            frozenset(
                (s, b.on_path, frozenset((t, p.hex()) for t, p in zip(spec.types, b.probs)))
                for s, b in r.beliefs.by_signal
            ),
            r.classification,
        )
        for r in results
    }
    assert len(keyed) == len(results)
    return keyed


def _reordered(spec, field, order):
    """`spec` with the labels of `field` declared in `order`."""
    labels = {f: getattr(spec, f) for f in ("types", "signals", "receiver_actions")}
    labels[field] = tuple(labels[field][i] for i in order)
    return SignalingGameSpec(
        **labels,
        prior=spec.prior,
        sender_utility=spec.sender_utility,
        receiver_utility=spec.receiver_utility,
    )


def _assert_reordering_keeps_pbe_sets(spec, field, data):
    n = len(getattr(spec, field))
    order = data.draw(st.permutations(range(n)), label=f"{field} order")
    other = _reordered(spec, field, order)
    for rule in _rules(spec, field):
        expected = _pbe_set(spec, rule)
        assert _pbe_set(other, rule) == expected, rule
        event(f"{rule}: {'no PBE' if not expected else 'PBEs'}")


@settings(deadline=None)
@given(spec=games(), data=st.data())
def test_reordering_signals_keeps_the_pbe_set(spec, data):
    _assert_reordering_keeps_pbe_sets(spec, "signals", data)


@settings(deadline=None)
@given(spec=games(), data=st.data())
def test_reordering_receiver_actions_keeps_the_pbe_set(spec, data):
    _assert_reordering_keeps_pbe_sets(spec, "receiver_actions", data)


@settings(deadline=None)
@given(spec=games(), data=st.data())
def test_reordering_types_keeps_the_pbe_set(spec, data):
    _assert_reordering_keeps_pbe_sets(spec, "types", data)
