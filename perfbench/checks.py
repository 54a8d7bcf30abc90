"""Independent output checkers.

They read the inputs with PyYAML and the outputs as plain JSON, and recompute
what they need with numpy; nothing here imports ztsim. Each checker returns a
list of failure messages, empty when the output is correct. They run outside
the timed region.
"""
from __future__ import annotations

import itertools
import json

import numpy as np
import yaml

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

SCORE_TOL = 1e-9  # recomputed posteriors vs. the trace
# Scores must lie in [0, 1] up to rounding: a sum of normalised masses can
# exceed 1 by an ulp (1.0000000000000002 occurs once an untrusted mass is
# ~1e-16), which is float summation, not a wrong posterior.
RANGE_TOL = 1e-12
REL_TOL = 1e-6  # solver certificates, as a share of the payoff range
EQ_TOL = 1e-9  # the solvers' own equilibrium tolerance


def load_doc(path):
    with open(path, encoding="utf-8") as fh:
        return yaml.load(fh, Loader=_Loader)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# --------------------------------------------------------------------------
# Simulation traces


def _decide(score, grant, deny):
    if score >= grant:
        return "grant"
    if score < deny:
        return "deny"
    return "challenge"


def _prior_score(sources):
    total = sum(s["score"] * s.get("weight", 1.0) for s in sources)
    weight = sum(s.get("weight", 1.0) for s in sources)
    return min(1.0, max(0.0, total / weight))


def check_sim(doc, rows, metrics):
    """Check one seed's trace rows and metrics entry against the scenario.

    The posterior is recomputed with numpy from the trace's own observations:
    attenuation toward the uniform baseline, then Bayes' rule on every
    non-denied tick. Draws are not re-sampled; the trace's actions and evidence
    are taken as given."""
    errors = []
    types = list(doc["type_space"]["types"])
    trusted = np.array([t in doc["type_space"]["trusted"] for t in types])
    policy = doc["policy"]
    grant, deny = policy["grant_threshold"], policy["deny_threshold"]
    rate = float(policy.get("decay_rate", 0.0))
    observe_denied = bool(policy.get("observe_while_denied", False))
    horizon = doc.get("run", {}).get("horizon", 1)
    entities = doc["entities"]
    ids = [str(e["id"]) for e in entities]
    n, n_types = len(entities), len(types)

    if len(rows) != n * horizon:
        return [f"{len(rows)} rows, expected {n} entities x {horizon} ticks"]

    # Initial state: the composed prior score spread evenly over the trusted
    # and the untrusted types.
    mass = np.empty((n, n_types))
    for i, e in enumerate(entities):
        s = _prior_score(e.get("prior", [{"score": 0.5, "weight": 1.0}]))
        mass[i] = np.where(trusted, s / trusted.sum(), (1.0 - s) / (~trusted).sum())
    baseline = np.full(n_types, 1.0 / n_types)
    k = np.exp(-rate)

    profiles = doc["profiles"]
    lik = {}  # (profile, action, evidence) -> likelihood over types

    def likelihood(pname, action, evidence):
        key = (pname, action, evidence)
        if key not in lik:
            prof = profiles[pname]
            lik[key] = np.array(
                [prof["evidence"][action][t][evidence] * prof["behavior"][t][action] for t in types]
            )
        return lik[key]

    before_all = np.empty((horizon, n))
    after_all = np.empty((horizon, n))
    for tick in range(1, horizon + 1):
        block = rows[(tick - 1) * n : tick * n]
        if k != 1.0:
            raw = baseline + (mass - baseline) * k
            mass = raw / raw.sum(axis=1, keepdims=True)
        like = np.ones((n, n_types))
        update = np.zeros(n, dtype=bool)
        for i, (row, eid) in enumerate(zip(block, ids)):
            where = f"tick {tick} entity {eid}"
            if row.get("schema_version") != 1 or row.get("tick") != tick or row.get("entity") != eid:
                errors.append(f"{where}: row out of order or malformed: {row}")
                return errors
            before, after = row["score_before"], row["score_after"]
            if not (-RANGE_TOL <= before <= 1.0 + RANGE_TOL and -RANGE_TOL <= after <= 1.0 + RANGE_TOL):
                errors.append(f"{where}: score outside [0, 1]")
            if row["decision"] != _decide(before, grant, deny):
                errors.append(f"{where}: decision {row['decision']} for score {before}")
            observed = row["decision"] != "deny" or observe_denied
            if not observed:
                if row["action"] is not None or row["evidence"] is not None:
                    errors.append(f"{where}: denied row carries an observation")
                continue
            pname = entities[i]["profile"]
            prof = profiles[pname]
            if row["action"] not in prof["evidence"] or row["evidence"] not in prof["evidence"][row["action"]][types[0]]:
                errors.append(f"{where}: unknown observation {row['action']}/{row['evidence']}")
                continue
            like[i] = likelihood(pname, row["action"], row["evidence"])
            update[i] = True
        before_all[tick - 1] = [r["score_before"] for r in block]
        after_all[tick - 1] = [r["score_after"] for r in block]
        score = mass[:, trusted].sum(axis=1)
        bad = np.flatnonzero(np.abs(score - before_all[tick - 1]) > SCORE_TOL)
        if bad.size:
            errors.append(f"tick {tick}: score_before differs from the recomputed posterior for {ids[bad[0]]} and {bad.size - 1} more")
        joint = mass * like
        mass = np.where(update[:, None], joint / joint.sum(axis=1, keepdims=True), mass)
        score = mass[:, trusted].sum(axis=1)
        bad = np.flatnonzero(np.abs(score - after_all[tick - 1]) > SCORE_TOL)
        if bad.size:
            errors.append(f"tick {tick}: score_after differs from the recomputed posterior for {ids[bad[0]]} and {bad.size - 1} more")
        if len(errors) > 20:
            return errors
    errors += _check_metrics(doc, rows, metrics, ids, deny, after_all)
    return errors


def _check_metrics(doc, rows, metrics, ids, deny, after_all):
    errors = []
    if metrics.get("schema_version") != 1 or set(metrics.get("entities", {})) != set(ids):
        return ["metrics document does not list exactly the scenario's entities"]
    trusted = set(doc["type_space"]["trusted"])
    n = len(ids)
    decisions = np.array([r["decision"] for r in rows]).reshape(-1, n)
    for i, e in enumerate(doc["entities"]):
        m = metrics["entities"][ids[i]]
        traj = after_all[:, i]
        below = np.flatnonzero(traj < deny)
        ttd = int(below[0]) + 1 if below.size else None
        lockout = e["true_type"] in trusted and bool((decisions[:, i] == "deny").any())
        if m["trajectory"] != traj.tolist() or m["final_score"] != traj[-1]:
            errors.append(f"metrics for {ids[i]}: trajectory differs from the trace")
        if m["time_to_detection"] != ttd or m["false_lockout"] != lockout:
            errors.append(f"metrics for {ids[i]}: detection {m['time_to_detection']}/{m['false_lockout']}, expected {ttd}/{lockout}")
    return errors


# --------------------------------------------------------------------------
# LP-based solvers


def _matrix(body, key):
    rows, cols = body["row_labels"], body["col_labels"]
    return np.array([[float(body[key][r][c]) for c in cols] for r in rows])


def _strategy(weights, labels, tol, what):
    x = np.array([float(weights[label]) for label in labels])
    errors = []
    if (x < -tol).any() or abs(x.sum() - 1.0) > tol:
        errors.append(f"{what} is not a distribution: {x.tolist()}")
    return x, errors


def check_zero_sum(doc, records):
    """Bilateral certificate: min_j (x'A)_j >= v - tol and max_i (Ay)_i <= v +
    tol, with tol relative to the payoff range."""
    body = doc["matrix_game"]
    A = _matrix(body, "payoff")
    if len(records) != 1 or records[0].get("kind") != "zero_sum":
        return [f"expected one zero_sum record, got {len(records)}"]
    rec = records[0]
    tol = REL_TOL * max(A.max() - A.min(), np.finfo(float).tiny)
    x, errors = _strategy(rec["row_strategy"], body["row_labels"], 1e-9, "row strategy")
    y, err_y = _strategy(rec["col_strategy"], body["col_labels"], 1e-9, "column strategy")
    errors += err_y
    v = rec["value"]
    if (x @ A).min() < v - tol:
        errors.append(f"row strategy guarantees {float((x @ A).min())!r} < value {v!r}")
    if (A @ y).max() > v + tol:
        errors.append(f"column strategy concedes {float((A @ y).max())!r} > value {v!r}")
    return errors


def check_stackelberg(doc, records):
    """Follower best-responds to the leader's mix, the reported values match
    it, and the leader does at least as well as its max-min row and its best
    pure commitment."""
    body = doc["bimatrix_game"]
    L = _matrix(body, "leader_payoff")
    F = _matrix(body, "follower_payoff")
    if len(records) != 1 or records[0].get("kind") != "stackelberg":
        return [f"expected one stackelberg record, got {len(records)}"]
    rec = records[0]
    tol_l = REL_TOL * max(L.max() - L.min(), np.finfo(float).tiny)
    tol_f = REL_TOL * max(F.max() - F.min(), np.finfo(float).tiny)
    x, errors = _strategy(rec["leader_strategy"], body["row_labels"], 1e-9, "leader strategy")
    cols = body["col_labels"]
    if rec["follower_action"] not in cols:
        return errors + [f"unknown follower action {rec['follower_action']!r}"]
    j = cols.index(rec["follower_action"])
    follower = x @ F
    if follower[j] < follower.max() - tol_f:
        errors.append(f"follower action {cols[j]} is not a best response ({follower[j]!r} < {follower.max()!r})")
    if abs(rec["leader_value"] - x @ L[:, j]) > tol_l or abs(rec["follower_value"] - follower[j]) > tol_f:
        errors.append("reported values differ from the strategy's payoffs")
    maximin = L.min(axis=1).max()
    if rec["leader_value"] < maximin - tol_l:
        errors.append(f"leader value {rec['leader_value']!r} below max-min {float(maximin)!r}")
    # Best pure commitment: the follower best-responds to each row, ties in
    # the leader's favour.
    pure = max(
        L[i, np.flatnonzero(F[i] >= F[i].max() - EQ_TOL)].max() for i in range(L.shape[0])
    )
    if rec["leader_value"] < pure - tol_l:
        errors.append(f"leader value {rec['leader_value']!r} below best pure commitment {float(pure)!r}")
    return errors


# --------------------------------------------------------------------------
# Enumeration solvers


def check_bne(doc, records):
    """Every returned profile leaves no player type with positive marginal a
    profitable unilateral deviation; the summary count matches."""
    body = doc["bayesian_game"]
    players = body["players"]
    types = [body["types"][p] for p in players]
    actions = [body["actions"][p] for p in players]
    shape_t = tuple(len(t) for t in types)
    prior = np.zeros(shape_t)
    for entry in body["prior"]:
        idx = tuple(types[i].index(entry["types"][p]) for i, p in enumerate(players))
        prior[idx] += entry["p"]
    U = np.zeros((len(players),) + tuple(len(a) for a in actions) + shape_t)
    for entry in body["utilities"]:
        a_idx = tuple(actions[i].index(entry["actions"][p]) for i, p in enumerate(players))
        t_idx = tuple(types[i].index(entry["types"][p]) for i, p in enumerate(players))
        for i, p in enumerate(players):
            U[(i,) + a_idx + t_idx] = entry["u"][p]
    if not records or records[0].get("kind") != "bne_summary":
        return ["missing bne_summary record"]
    eqs = records[1:]
    errors = []
    if records[0]["count"] != len(eqs) or any(r.get("kind") != "bne" for r in eqs):
        errors.append(f"summary count {records[0]['count']} but {len(eqs)} bne records")
    tol = REL_TOL * max(U.max() - U.min(), 1.0)
    for n, rec in enumerate(eqs):
        try:
            choice = [[actions[i].index(rec["strategy"][p][t]) for t in types[i]] for i, p in enumerate(players)]
        except (KeyError, ValueError):
            errors.append(f"equilibrium {n}: incomplete or unknown strategy")
            continue
        for i in range(len(players)):
            for ti in range(shape_t[i]):
                # Interim payoff of each action of player i with type ti,
                # averaged over the others' types under the joint prior.
                values = np.zeros(len(actions[i]))
                for t_idx in itertools.product(*(range(s) for s in shape_t)):
                    if t_idx[i] != ti or prior[t_idx] <= 0:
                        continue
                    a_idx = [choice[q][t_idx[q]] for q in range(len(players))]
                    for a in range(len(actions[i])):
                        a_idx[i] = a
                        values[a] += prior[t_idx] * U[(i,) + tuple(a_idx) + t_idx]
                marginal = prior.take(ti, axis=i).sum()
                if marginal <= 0:
                    continue
                values /= marginal
                if values.max() > values[choice[i][ti]] + tol:
                    errors.append(f"equilibrium {n}: {players[i]} type {types[i][ti]} gains {values.max() - values[choice[i][ti]]!r} by deviating")
    return errors


def _pessimistic_belief(spec_types, recv, send, signal):
    """Point belief whose best-responding receiver action minimises the best
    payoff any sender type gets at this signal (first type on ties)."""
    best = None
    for i in range(len(spec_types)):
        action = int(np.flatnonzero(recv[:, i] >= recv[:, i].max() - EQ_TOL)[0])
        worst = send[:, signal, action].max()
        if best is None or worst < best[0] - EQ_TOL:
            best = (worst, i)
    point = np.zeros(len(spec_types))
    point[best[1]] = 1.0
    return point


def check_pbe(doc, records, off_path_rule):
    """Every returned PBE has Bayes-consistent on-path beliefs, off-path
    beliefs by the rule, receiver best responses at every signal, and no
    sender type with a profitable signal deviation."""
    body = doc["signaling_game"]
    types, signals, ractions = body["types"], body["signals"], body["receiver_actions"]
    prior = np.array([float(body["prior"].get(t, 0.0)) for t in types])
    send = np.array([[[body["sender_utility"][t][s][a] for a in ractions] for s in signals] for t in types], dtype=float)
    recv = np.array([[body["receiver_utility"][a][t] for t in types] for a in ractions], dtype=float)
    if not records or records[0].get("kind") != "pbe_summary":
        return ["missing pbe_summary record"]
    eqs = records[1:]
    errors = []
    summary = records[0]
    if summary["count"] != len(eqs) or summary["off_path_rule"] != off_path_rule:
        errors.append(f"summary count {summary['count']} / rule {summary['off_path_rule']} but {len(eqs)} pbe records")
    if summary["classifications"] != sorted({r.get("classification") for r in eqs}):
        errors.append("summary classifications differ from the records")
    tol = REL_TOL * max(send.max() - send.min(), recv.max() - recv.min(), 1.0)
    for n, rec in enumerate(eqs):
        where = f"equilibrium {n}"
        try:
            sig = np.array([signals.index(rec["sender_strategy"][t]) for t in types])
            act = np.array([ractions.index(rec["receiver_strategy"][s]) for s in signals])
        except (KeyError, ValueError):
            errors.append(f"{where}: incomplete or unknown strategy")
            continue
        used = len(set(sig.tolist()))
        kind = "pooling" if used == 1 else "separating" if used == len(types) else "hybrid"
        if rec["classification"] != kind:
            errors.append(f"{where}: classified {rec['classification']}, expected {kind}")
        for s_idx, s in enumerate(signals):
            weights = prior * (sig == s_idx)
            if weights.sum() > 0:
                expected, on_path = weights / weights.sum(), True
            elif off_path_rule == "uniform":
                expected, on_path = np.full(len(types), 1.0 / len(types)), False
            elif off_path_rule == "prior":
                expected, on_path = prior, False
            else:
                expected, on_path = _pessimistic_belief(types, recv, send, s_idx), False
            got = rec["beliefs"][s]
            probs = np.array([got["probs"][t] for t in types])
            if got["on_path"] != on_path or np.abs(probs - expected).max() > 1e-9:
                errors.append(f"{where}: belief at {s} is {probs.tolist()}, expected {expected.tolist()}")
            values = recv @ probs
            if values[act[s_idx]] < values.max() - tol:
                errors.append(f"{where}: receiver action at {s} is not a best response")
        for t_idx, t in enumerate(types):
            if prior[t_idx] <= 0:
                continue
            payoff = send[t_idx, np.arange(len(signals)), act]
            if payoff.max() > payoff[sig[t_idx]] + tol:
                errors.append(f"{where}: sender type {t} gains by deviating")
    return errors


def check_solve(doc, records, argv):
    """Dispatch on the game kind in the spec."""
    if "matrix_game" in doc:
        return check_zero_sum(doc, records)
    if "bimatrix_game" in doc:
        return check_stackelberg(doc, records)
    if "bayesian_game" in doc:
        return check_bne(doc, records)
    rule = argv[argv.index("--off-path") + 1] if "--off-path" in argv else "uniform"
    return check_pbe(doc, records, rule)
