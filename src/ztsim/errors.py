"""Exception hierarchy shared across the package, and the rules every model
and labeled function applies to what it is given: `real`, `nonnegative` and
`integer` for numbers, `labels` for identifier lists, `label` for one
declared identifier, `table` for tables keyed by those labels and
`distribution` for probability distributions. Each rule names the failing
value by its key."""
import functools
import itertools
import math
import numbers
import operator
from collections.abc import Mapping

PROB_TOL = 1e-9


class ZtsimError(Exception):
    """Base class for all package errors."""


class ValidationError(ZtsimError):
    """A value or model failed a structural check at construction or call time;
    `key` is the dotted path of the failing value."""

    def __init__(self, reason, key):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")


def real(value, key):
    """`value` as a float; it must be a finite real number and not a bool.
    YAML reads true/false as bools, which Python would take as 1 and 0, and
    .nan/.inf as floats that no model can compare or sum."""
    # The exact-type test first: the ABC check alone is far slower.
    if type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    ):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ValidationError(f"must be a finite number, got {value!r}", key)


def nonnegative(value, key):
    """`value` as a `real` that is not below 0."""
    value = real(value, key)
    if value < 0:
        raise ValidationError(f"must be non-negative, got {value}", key)
    return value


def integer(value, key, low=0):
    """`value`, an integer (not a bool) no less than `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"must be an integer >= {low}, got {value!r}", key)
    return value


def labels(values, key):
    """`values` as a tuple of identifiers: non-empty, hashable, none repeated."""
    values = tuple(values)
    if not values:
        raise ValidationError("must be non-empty", key)
    try:
        if len(set(values)) != len(values):
            raise ValidationError("identifiers must be unique", key)
    except TypeError as exc:  # a YAML list or mapping used as a label
        raise ValidationError(f"identifiers must be hashable: {exc}", key) from None
    return values


def label(value, declared, key):
    """`value`, which must be one of the `declared` labels."""
    try:
        if value in declared:
            return value
    except TypeError:  # an unhashable value is no label of a set or dict
        pass
    raise ValidationError(f"undeclared label {value!r}", key)


def table(entries, axes, key):
    """`entries`, keyed by one label per axis (the bare label when there is
    one axis), as a dict over every combination of the labels in `axes`, in
    `itertools.product` order. An entry outside those labels and a missing
    combination are rejected; the key is `key` and the labels up to the
    first undeclared or missing one, or just `key` for a non-mapping."""
    if not isinstance(entries, Mapping):
        raise ValidationError("expected a mapping", key)
    single = len(axes) == 1
    combos = axes[0] if single else list(itertools.product(*axes))
    out = {k: entries[k] for k in combos if k in entries}
    if len(out) < len(entries):
        extra = next(k for k in entries if k not in out)
        path = (extra,) if single else extra
        if type(path) is not tuple or len(path) != len(axes):
            raise ValidationError(f"expected {len(axes)} labels, got {extra!r}", key)
        for i, value in enumerate(path):
            label(value, axes[i], _dotted(key, path[: i + 1]))
    if len(out) < len(combos):
        present = {k[:i] for k in out for i in range(1, len(axes))}
        path = next(k for k in combos if k not in out)
        path = (path,) if single else path
        i = next(i for i in range(1, len(axes) + 1) if path[:i] not in present)
        raise ValidationError("missing", _dotted(key, path[:i]))
    return out


def left_sum(values):
    """`sum` as Python 3.10 and 3.11 compute it: from int 0, adding left to
    right. From 3.12 on `sum` compensates float rounding, so the posterior,
    the receiver's action values, `find_pbe`'s array pass (which folds numpy
    columns with it), the Bayesian type marginals, `distribution`'s totals
    and the test oracles all use this, and give the same bits and decisions
    on every supported Python."""
    return functools.reduce(operator.add, values, 0)


def probability(p, key):
    """A probability: a finite number within PROB_TOL of [0, 1], returned as
    a float clamped into [0, 1]. The clamp keeps -0.0 as it is."""
    p = real(p, key)
    if p < -PROB_TOL or p > 1 + PROB_TOL:
        raise ValidationError(f"must lie in [0, 1], got {p}", key)
    return min(max(p, 0.0), 1.0)


def distribution(probs, key):
    """`probs`, a dict {label: p}, with every entry a `probability` (keyed
    `key.label`) and their `left_sum`, in the dict's order, within PROB_TOL
    of 1."""
    out = {}
    for label, p in probs.items():
        try:
            out[label] = probability(p, key)
        except ValidationError as exc:  # the entry's key is built only here
            raise ValidationError(exc.reason, _dotted(key, (label,))) from None
    total = left_sum(out.values())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"sums to {total}, expected 1", key)
    return out


def _dotted(key, path):
    return ".".join(map(str, (key, *path)))


class ZeroProbabilityObservation(ZtsimError):
    """The observed (action, evidence) pair has zero likelihood under every
    type with positive prior mass. Signals model misspecification; never
    silently reset."""

    def __init__(self, action, evidence, tick=None, entity_id=None):
        self.action = action
        self.evidence = evidence
        self.tick = tick
        self.entity_id = entity_id
        where = []
        if entity_id is not None:
            where.append(f"entity={entity_id!r}")
        if tick is not None:
            where.append(f"tick={tick}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(
            f"zero-probability observation (action={action!r}, evidence={evidence!r}){suffix}"
        )


class NoPriorSources(ValidationError):
    """Prior composition was given no usable sources."""


class UnreachableType(ZtsimError):
    """A Bayesian-game type with zero marginal probability was conditioned on."""


class EnumerationBudgetExceeded(ZtsimError):
    """A solver's pure-strategy enumeration would exceed the configured budget."""

    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration budget exceeded: {required} profiles > budget {budget}"
        )


class ScenarioFormatError(ValidationError):
    """Scenario or game-spec document failed to parse or validate.

    Every diagnostic names the section and key of the first failure."""

    def __init__(self, section, key, reason):
        self.section = section
        self.key = key
        self.reason = reason
        ZtsimError.__init__(self, f"[{section}] {key}: {reason}")


class CertificateError(ZtsimError):
    """A solver's answer failed the optimality certificate it promises, so it
    is not returned."""


class TraceWriteError(ZtsimError):
    """Trace sink failed mid-stream; `written` holds the partial record count."""

    def __init__(self, written, cause):
        self.written = written
        self.cause = cause
        super().__init__(f"trace sink failed after {written} records: {cause}")
