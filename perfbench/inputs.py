"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes its YAML documents with the
small emitter below, never through ztsim's own serializers, so a change to the
program cannot change the benchmark's inputs. Randomness comes only from
``random.Random(seed).random()``, whose stream is stable across Python
versions; every derived draw is built from it here.

Sizes are fixed per workload and only the contents vary with the seed, so the
work one pass does is the same from seed to seed and run-to-run spread
reflects the machine, not the input size.
"""
from __future__ import annotations

import random
from pathlib import Path


class Draws:
    """Derived draws from one ``random.Random`` stream."""

    def __init__(self, *key):
        self._rng = random.Random(":".join(map(str, key)))

    def unit(self):
        return self._rng.random()

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self._rng.random()

    def below(self, n):
        return min(n - 1, int(self._rng.random() * n))

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def simplex_row(self, n, floor):
        """Probability row with every entry >= floor, summing to 1, rounded to
        6 decimals so the file stays readable."""
        raw = [self.unit() + 0.05 for _ in range(n)]
        total = sum(raw)
        row = [round(floor + (1.0 - n * floor) * r / total, 6) for r in raw]
        row[-1] = round(1.0 - sum(row[:-1]), 6)
        return row


# --------------------------------------------------------------------------
# YAML emitter: flow-style mappings for rows, block style for sections.


def fnum(x):
    """A float PyYAML's YAML 1.1 resolver reads back as the same float: the
    exponent form needs a dot (``1.0e-09``), which ``repr`` may omit."""
    text = repr(float(x))
    if "e" in text and "." not in text:
        mant, exp = text.split("e")
        text = f"{mant}.0e{exp}"
    return text


def _scalar(v):
    return fnum(v) if isinstance(v, float) else str(v)


def flow(mapping):
    return "{" + ", ".join(f"{k}: {_scalar(v)}" for k, v in mapping.items()) + "}"


def flow_list(items):
    return "[" + ", ".join(_scalar(v) for v in items) + "]"


def write(path, lines):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Scenarios (sim_fleet)

FLEET_ENTITIES = 1000
FLEET_HORIZON = 40
# Three trusted and two untrusted types: with more than one type on each side
# the score no longer determines the posterior, so the checker must track the
# full mass vector, and trust_score sums over a real subset.
FLEET_TRUSTED = ("staff", "contractor", "service")
FLEET_UNTRUSTED = ("apt", "insider")
# Fixed type quotas (80% trusted) keep the grant/challenge/deny mix, and so the
# sampled work, nearly the same for every seed.
FLEET_QUOTA = {"staff": 400, "contractor": 240, "service": 160, "apt": 120, "insider": 80}
# Profiles differ in action and evidence alphabet sizes, so sample_action,
# generate_evidence and the likelihood tables see 2..4 categories.
FLEET_PROFILES = {
    "workstation": (("routine", "anomalous"), ("quiet", "alarm")),
    "server": (("routine", "admin", "exfil"), ("quiet", "alarm", "critical")),
    "laptop": (("routine", "travel", "anomalous", "exfil"), ("quiet", "alarm")),
    "kiosk": (("routine", "probe", "anomalous"), ("quiet", "noise", "alarm")),
}
# Two decay rates, one scenario each: attenuate short-circuits at rate 0 and
# does full work otherwise, and at rate 0 denied entities stay denied, so the
# two scenarios differ in which layers do the work. A rate drawn per seed
# would instead change the work per pass from seed to seed.
FLEET_DECAY_RATES = (0.0, 0.03)


def _fleet_profile(d, actions, evidence):
    types = FLEET_TRUSTED + FLEET_UNTRUSTED
    behavior = {}
    for t in types:
        # Untrusted types put more weight on the later (riskier) actions, so
        # observations separate the types and scores drift apart.
        row = sorted(d.simplex_row(len(actions), 0.02), reverse=t in FLEET_TRUSTED)
        behavior[t] = dict(zip(actions, row))
    ev = {}
    for a_idx, a in enumerate(actions):
        ev[a] = {}
        for t in types:
            row = d.simplex_row(len(evidence), 0.02)
            # Alarms are likelier for risky actions and untrusted types.
            risky = a_idx > 0 or t in FLEET_UNTRUSTED
            row = sorted(row) if risky else sorted(row, reverse=True)
            ev[a][t] = dict(zip(evidence, row))
    return behavior, ev


def fleet_scenario(seed, decay_rate, n_entities, horizon=FLEET_HORIZON):
    """Lines of one fleet scenario document."""
    d = Draws("fleet", seed, decay_rate, n_entities)
    types = FLEET_TRUSTED + FLEET_UNTRUSTED
    lines = [
        f"# generated fleet scenario: seed {seed}, {n_entities} entities, decay {decay_rate}",
        "schema_version: 1",
        "type_space:",
        f"  types: {flow_list(types)}",
        f"  trusted: {flow_list(FLEET_TRUSTED)}",
        "profiles:",
    ]
    for name, (actions, evidence) in FLEET_PROFILES.items():
        behavior, ev = _fleet_profile(d, actions, evidence)
        lines.append(f"  {name}:")
        lines.append("    behavior:")
        for t in types:
            lines.append(f"      {t}: {flow(behavior[t])}")
        lines.append("    evidence:")
        for a in actions:
            lines.append(f"      {a}:")
            for t in types:
                lines.append(f"        {t}: {flow(ev[a][t])}")
    true_types = []
    for t in types:
        true_types += [t] * (FLEET_QUOTA[t] * n_entities // FLEET_ENTITIES)
    true_types += [FLEET_TRUSTED[0]] * (n_entities - len(true_types))
    d.shuffle(true_types)
    profile_names = list(FLEET_PROFILES)
    lines.append("entities:")
    for i, t in enumerate(true_types):
        lines.append(f"  - id: {t[:3]}-{i:05d}")
        lines.append(f"    true_type: {t}")
        lines.append(f"    profile: {profile_names[d.below(len(profile_names))]}")
        # Mixed priors: a tenth use the default (no prior key), the rest
        # combine one to three weighted sources, so initial scores spread
        # across all three decision bands.
        n_src = d.below(10)
        if n_src == 0:
            continue
        n_src = 1 + n_src % 3
        lines.append("    prior:")
        for _ in range(n_src):
            score = round(d.uniform(0.1, 0.95), 4)
            weight = round(d.uniform(0.5, 3.0), 3)
            lines.append(f"      - {flow({'score': score, 'weight': weight})}")
    lines += [
        "policy:",
        "  grant_threshold: 0.75",
        "  deny_threshold: 0.25",
        f"  decay_rate: {fnum(decay_rate)}",
        "run:",
        f"  horizon: {horizon}",
        f"  seed: {seed}",
    ]
    return lines


# --------------------------------------------------------------------------
# Matrix and bimatrix games (solve_lp, solve_lp_scale)

# Zero-sum sizes span 10..40 rows/columns: solve_zero_sum runs two LPs whose
# tableau grows with both sides, so latency spreads over about two decades.
ZERO_SUM_SIZES = ((10, 10), (12, 16), (16, 12), (20, 20), (24, 18), (28, 28), (34, 30), (40, 40))
# Stackelberg sizes stay smaller: the mixed solver runs one LP per follower
# column, most of them infeasible, and its cost grows much faster.
STACKELBERG_SIZES = ((8, 8), (10, 12), (12, 10), (14, 14), (16, 16), (18, 18))
# Payoff scale 10^k. solve_lp spreads k over [-4, 4], where ztsim 0.1.0's
# absolute simplex tolerances hold; solve_lp_scale spreads k over [-9, 9] and
# exposes the known scale defect (see README.md).
LP_SCALES = tuple(range(-4, 5))
LP_SCALES_FULL = tuple(range(-9, 10))


def _payoff_rows(d, n_rows, n_cols, scale):
    # Six significant digits: exact in the file, and ties stay improbable.
    return [
        [float(f"{d.uniform(-1.0, 1.0) * scale:.5e}") for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def _labeled(rows, row_labels, col_labels, indent):
    out = []
    for r, row in zip(row_labels, rows):
        out.append(f"{indent}{r}: {flow(dict(zip(col_labels, row)))}")
    return out


def matrix_game(d, n_rows, n_cols, k):
    rows = [f"r{i}" for i in range(n_rows)]
    cols = [f"c{j}" for j in range(n_cols)]
    payoff = _payoff_rows(d, n_rows, n_cols, 10.0**k)
    lines = [
        f"# generated zero-sum game {n_rows}x{n_cols}, payoff scale 1e{k}",
        "schema_version: 1",
        "matrix_game:",
        f"  row_labels: {flow_list(rows)}",
        f"  col_labels: {flow_list(cols)}",
        "  payoff:",
    ]
    return lines + _labeled(payoff, rows, cols, "    ")


def bimatrix_game(d, n_rows, n_cols, k):
    rows = [f"r{i}" for i in range(n_rows)]
    cols = [f"c{j}" for j in range(n_cols)]
    leader = _payoff_rows(d, n_rows, n_cols, 10.0**k)
    follower = _payoff_rows(d, n_rows, n_cols, 10.0**k)
    lines = [
        f"# generated bimatrix game {n_rows}x{n_cols}, payoff scale 1e{k}",
        "schema_version: 1",
        "bimatrix_game:",
        f"  row_labels: {flow_list(rows)}",
        f"  col_labels: {flow_list(cols)}",
        "  leader_payoff:",
    ]
    lines += _labeled(leader, rows, cols, "    ")
    lines.append("  follower_payoff:")
    return lines + _labeled(follower, rows, cols, "    ")


# --------------------------------------------------------------------------
# Bayesian and signaling games (solve_enum)

# (types per player, actions per player). Profile counts prod(|A|^|T|) span
# 81..6561 so find_bne's per-profile cost and the profile count both vary;
# the three-player shapes make conditional beliefs range over type pairs.
BAYESIAN_SHAPES = (
    ((2, 2), (3, 3)),  # 81 profiles
    ((3, 2), (3, 3)),  # 243
    ((2, 2, 2), (2, 3, 3)),  # 324
    ((3, 3), (3, 3)),  # 729
    ((2, 3), (4, 3)),  # 432
    ((4, 4), (3, 3)),  # 6561
)
# (types, signals, receiver actions). Profile counts |S|^|T| * |A|^|S| span
# 72..20736 while sender profiles |S|^|T| span 9..256; each game is solved
# under all three off-path rules, because the pessimistic rule does extra work
# at every off-path signal.
SIGNALING_SHAPES = ((3, 2, 3), (3, 3, 3), (4, 3, 4), (5, 3, 3), (4, 4, 3))
OFF_PATH_RULES = ("uniform", "prior", "pessimistic")


def bayesian_game(d, n_types, n_actions):
    players = [f"p{i}" for i in range(len(n_types))]
    types = {p: [f"t{p[1:]}{j}" for j in range(n)] for p, n in zip(players, n_types)}
    actions = {p: [f"a{p[1:]}{j}" for j in range(n)] for p, n in zip(players, n_actions)}
    lines = [
        f"# generated Bayesian game, types {n_types}, actions {n_actions}",
        "schema_version: 1",
        "bayesian_game:",
        f"  players: {flow_list(players)}",
        "  types:",
    ]
    lines += [f"    {p}: {flow_list(types[p])}" for p in players]
    lines.append("  actions:")
    lines += [f"    {p}: {flow_list(actions[p])}" for p in players]
    tprofiles = _product([types[p] for p in players])
    aprofiles = _product([actions[p] for p in players])
    # A full-support joint prior, not a product one: beliefs then depend on
    # the player's own type, as in a correlated-types game.
    prior = d.simplex_row(len(tprofiles), 0.01)
    lines.append("  prior:")
    for tprof, p in zip(tprofiles, prior):
        lines.append(f"    - {{types: {flow(dict(zip(players, tprof)))}, p: {fnum(p)}}}")
    lines.append("  utilities:")
    for aprof in aprofiles:
        for tprof in tprofiles:
            u = {p: round(d.uniform(-5.0, 5.0), 4) for p in players}
            lines.append(
                f"    - {{actions: {flow(dict(zip(players, aprof)))}, "
                f"types: {flow(dict(zip(players, tprof)))}, u: {flow(u)}}}"
            )
    return lines


def signaling_game(d, n_types, n_signals, n_actions):
    types = [f"t{i}" for i in range(n_types)]
    signals = [f"s{i}" for i in range(n_signals)]
    ractions = [f"a{i}" for i in range(n_actions)]
    prior = d.simplex_row(n_types, 0.05)
    lines = [
        f"# generated signaling game, {n_types} types, {n_signals} signals, {n_actions} actions",
        "schema_version: 1",
        "signaling_game:",
        f"  types: {flow_list(types)}",
        f"  prior: {flow(dict(zip(types, prior)))}",
        f"  signals: {flow_list(signals)}",
        f"  receiver_actions: {flow_list(ractions)}",
        "  sender_utility:",
    ]
    for t in types:
        lines.append(f"    {t}:")
        for s in signals:
            u = {a: round(d.uniform(-3.0, 3.0), 4) for a in ractions}
            lines.append(f"      {s}: {flow(u)}")
    lines.append("  receiver_utility:")
    for a in ractions:
        u = {t: round(d.uniform(-3.0, 3.0), 4) for t in types}
        lines.append(f"    {a}: {flow(u)}")
    return lines


def _product(lists):
    out = [()]
    for items in lists:
        out = [prefix + (x,) for prefix in out for x in items]
    return out


def solve_games(seed, scales, copies):
    """(name, lines, extra argv, scale exponent) for every LP game of one pass.
    Each size appears ``copies`` times, more often when ``scales`` is longer,
    so that every scale is used; the size-scale pairing is shuffled by the
    seed. Two copies per size halve the seed-to-seed spread of the pivot
    count that one copy shows (7.7k..9.4k pivots per pass)."""
    d = Draws("lp", seed)
    games = []
    kinds = (
        ("zs", ZERO_SUM_SIZES, matrix_game, []),
        ("st", STACKELBERG_SIZES, bimatrix_game, ["--mode", "mixed"]),
    )
    for kind, sizes, make, extra in kinds:
        count = max(len(scales), copies * len(sizes))
        ks = d.shuffle([scales[i % len(scales)] for i in range(count)])
        for i, k in enumerate(ks):
            n, m = sizes[i % len(sizes)]
            games.append((f"{kind}{i:02d}_{n}x{m}_k{k}", make(d, n, m, k), extra, k))
    return games


def enum_games(seed, copies):
    """(name, lines, extra argv, None) for every enumeration solve of one
    pass: ``copies`` games of every shape, to average out how early
    find_bne's deviation checks stop on a given game."""
    d = Draws("enum", seed)
    games = []
    for c in range(copies):
        for i, (n_types, n_actions) in enumerate(BAYESIAN_SHAPES):
            games.append((f"bne{c}{i}", bayesian_game(d, n_types, n_actions), [], None))
        for i, shape in enumerate(SIGNALING_SHAPES):
            lines = signaling_game(d, *shape)
            for rule in OFF_PATH_RULES:
                games.append((f"pbe{c}{i}_{rule}", lines, ["--off-path", rule], None))
    return games

