"""Greedy padding construction.

Appends rows to a base array until every deficient credential reaches the
target count, drawing each row from a seeded candidate pool and scoring
candidates by how many deficient credentials they contain, optionally
penalized by the closeness they would add to existing rows.  Restarts run
with independent seed-derived streams and the fewest-rows result wins.

Credential kinds are resolved and the base is counted by coded passes
once per call; each attempt starts from a copy of those counts, keeps the
shortfall per column set incrementally and ranks candidates by exact
integer keys (see `_State`).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from operator import neg
from typing import Callable, Dict, List, Optional, Tuple

from .constraints import (
    DONT_CARE,
    HARD,
    SOFT,
    UNCONSTRAINED,
    ConstraintSet,
    check_feasibility,
    complete,
    kinds_on,
    row_lower_bound,
)
from .errors import BudgetExceededError, InfeasibleError, InvalidParameterError
from .model import (
    AccessProfileArray,
    ColumnSet,
    Credential,
    Row,
    _coded_counts,
    _Frozen,
    _projector,
    enumerate_column_sets,
)
from .verify import GuaranteeReport, _hard_violations, compute_guarantee

_SEED_STRIDE = 0x9E3779B97F4A7C15

DeficiencyMap = Dict[Tuple[ColumnSet, Credential], int]
# (column set, {value tuple: kind}) for the value tuples that may need rows
Kinds = List[Tuple[ColumnSet, Dict[Row, str]]]


class ConstructionConfig(_Frozen):
    r_target: int
    t: int
    seed: int = 0
    max_rows: Optional[int] = None
    candidates_per_row: int = 64
    restarts: int = 3
    homogeneity_weight: Fraction = Fraction(0)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.r_target < 2:
            raise InvalidParameterError("r_target must be at least 2")
        if self.candidates_per_row < 1:
            raise InvalidParameterError("candidates_per_row must be at least 1")
        if self.restarts < 0:
            raise InvalidParameterError("restarts must be non-negative")
        try:
            w = Fraction(self.homogeneity_weight)
        except (ValueError, OverflowError):
            w = None  # nan or inf
        if w is None or not 0 <= w <= 1:
            raise InvalidParameterError("homogeneity_weight must be in [0, 1]")
        self.__dict__["homogeneity_weight"] = w


class ConstructionResult(_Frozen):
    array: AccessProfileArray
    padding_count: int
    achieved: GuaranteeReport
    lower_bound: int
    # (appended row, total shortfall remaining after appending it)
    trace: Tuple[Tuple[Row, int], ...]

    @property
    def meets_lower_bound(self) -> bool:
        return self.array.n_rows == self.lower_bound


def _credential_kinds(schema, constraints: ConstraintSet, t: int) -> Kinds:
    """Every size-t column set with the kind of each of its value tuples
    that is neither hard nor don't-care, then the attribute sets of the
    soft constraints smaller than t with their value tuples."""
    kinds: Kinds = []
    for cols in enumerate_column_sets(schema.k, t):
        constrained = kinds_on(schema, constraints, cols)
        on_cols = {}
        for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
            kind = constrained.get(values, UNCONSTRAINED)
            if kind not in (HARD, DONT_CARE):
                on_cols[values] = kind
        kinds.append((cols, on_cols))
    small: Dict[ColumnSet, Dict[Row, str]] = {}
    for s in constraints.soft:
        if len(s) < t:
            small.setdefault(s.attributes, {})[tuple(v for _, v in s.pairs)] = SOFT
    return kinds + sorted(small.items())


class _State:
    """Counts and shortfalls of one attempt, updated row by row.

    A credential is deficient while it appears fewer than r_target times,
    unless it is soft and absent.  Per column set of `kinds` this keeps the
    count of every value tuple and the shortfall of the deficient ones;
    `targets` holds their sorted (column set, value tuple) keys and `total`
    the sum of their shortfalls.  The base is counted by one coded pass per
    column set, once per call: each attempt appends to a `copy`.  Appending
    a row touches only its own value tuples, and ranking a candidate takes
    one lookup per column set.
    """

    def __init__(self, kinds: Kinds, constraints, t: int, r_target: int, base):
        self.r_target = r_target
        self.rows: List[Row] = [] if base is None else list(base.rows)
        self.columns, self.kinds = zip(*kinds)
        self.projectors = [_projector(cols) for cols in self.columns]
        coded = {} if base is None else dict(_coded_counts(base, self.columns))
        self.counts = [Counter(coded.get(cols, ())) for cols in self.columns]
        # short by r - count, but not while soft and absent
        self.shortfalls = [
            {
                values: r_target - c
                for values, kind in on_cols.items()
                if (c := counts[values]) < r_target and (c or kind != SOFT)
            }
            for on_cols, counts in zip(self.kinds, self.counts)
        ]
        self.total = sum(map(sum, map(dict.values, self.shortfalls)))
        keyed = zip(self.columns, self.shortfalls)
        self.targets = sorted((cols, v) for cols, short in keyed for v in short)
        self.n_full = sum(len(cols) == t for cols in self.columns)
        position = {cols: i for i, cols in enumerate(self.columns)}
        # oversized soft credentials are inert for this t
        self.soft = [
            (s, position[s.attributes], tuple(v for _, v in s.pairs))
            for s in sorted(constraints.soft)
            if len(s) <= t
        ]

    def copy(self) -> "_State":
        """A state with the same rows and counts that appends on its own."""
        other = object.__new__(_State)
        other.__dict__.update(vars(self))
        other.rows = list(self.rows)
        other.counts = [counts.copy() for counts in self.counts]
        other.shortfalls = [short.copy() for short in self.shortfalls]
        other.targets = list(self.targets)
        return other

    def append(self, row: Row) -> None:
        self.rows.append(row)
        r = self.r_target
        for cols, proj, counts, on_cols, short in zip(
            self.columns, self.projectors, self.counts, self.kinds, self.shortfalls
        ):
            values = proj(row)
            count = counts[values] = counts[values] + 1
            if count > r or values not in on_cols:
                continue
            before = short.pop(values, 0)
            after = r - count
            self.total += after - before
            if after:
                short[values] = after
                if not before:
                    insort(self.targets, (cols, values))
            elif before:
                del self.targets[bisect_left(self.targets, (cols, values))]

    def keys(self, candidates: List[Row], hw: Fraction) -> Tuple[List[int], int, int]:
        """Integer keys of the candidates, and (scale, offset) such that a
        candidate's score is (key - offset) / scale.  The score is how many
        deficient credentials the row contains, less hw = p/q times the sum
        over the size-t column sets (listed first) of c / (c + 1), where c
        rows already share its value tuple there.  With L the lcm of c + 1
        over the counts met by these candidates only, the key is
        q·L·matched + p·sum(L / (c + 1)), and q·L·score = key - p·n_full·L."""
        p, q = hw.numerator, hw.denominator
        full = self.counts[: self.n_full] if p else ()
        matched, met = [], []
        for row in candidates:
            values = [proj(row) for proj in self.projectors]
            matched.append(sum(map(dict.__contains__, self.shortfalls, values)))
            met.append(list(map(Counter.__getitem__, full, values)))
        seen = set().union(*met)
        lcm = math.lcm(*(c + 1 for c in seen))
        share = {c: lcm // (c + 1) for c in seen}.__getitem__
        keys = [q * lcm * m + p * sum(map(share, cs)) for m, cs in zip(matched, met)]
        return keys, q * lcm, p * self.n_full * lcm

    def best(self, candidates: List[Row], hw: Fraction) -> Row:
        """The highest-scoring candidate, the smallest row among equals."""
        return min(zip(map(neg, self.keys(candidates, hw)[0]), candidates))[1]

    def soft_zero(self) -> List[Credential]:
        """Soft credentials currently absent from every row."""
        return [s for s, i, values in self.soft if not self.counts[i][values]]

    def deficiency(self) -> DeficiencyMap:
        short = dict(zip(self.columns, self.shortfalls))
        return {
            (cols, Credential(tuple(zip(cols, values)))): short[cols][values]
            for cols, values in self.targets
        }


def deficiency(
    array: AccessProfileArray,
    r_target: int,
    t: int,
    constraints: ConstraintSet,
) -> DeficiencyMap:
    """Shortfall of every credential that must still reach r_target.

    Appearing non-don't-care credentials below target and absent
    unconstrained credentials are deficient; absent soft credentials are
    not; hard credentials never appear in the map.
    """
    feasibility = check_feasibility(array.schema, constraints, t)
    if not feasibility.feasible:
        raise InfeasibleError(feasibility, array.schema)
    kinds = _credential_kinds(array.schema, constraints, t)
    return _State(kinds, constraints, t, r_target, array).deficiency()


def _holds_any(credentials) -> Callable[[Row], bool]:
    """Row -> whether it holds any of the credentials, by attribute set."""
    by_attributes: Dict[ColumnSet, set] = {}
    for cred in credentials:
        values = tuple(v for _, v in cred.pairs)
        by_attributes.setdefault(cred.attributes, set()).add(values)
    checks = [(_projector(a), frozenset(v)) for a, v in by_attributes.items()]
    return lambda row: any(proj(row) in values for proj, values in checks)


def _drawer(sizes, cols: ColumnSet) -> Callable[[random.Random, Row], Row]:
    """(rng, values on cols) -> a row holding them, each other cell drawn in
    column order as rng.randrange(its domain size) would draw it."""
    free = [c for c in range(len(sizes)) if c not in cols]
    draws = [(sizes[c], sizes[c].bit_length()) for c in free]
    order = _projector(tuple(map([*cols, *free].index, range(len(sizes)))))

    def draw(rng: random.Random, values: Row) -> Row:
        bits, cells = rng.getrandbits, [*values]
        for n, b in draws:
            x = bits(b)
            while x >= n:
                x = bits(b)
            cells.append(x)
        return order(cells)

    return draw


def _run_attempt(
    schema,
    state: _State,
    constraints: ConstraintSet,
    config: ConstructionConfig,
    rng: random.Random,
) -> Tuple[List[Row], List[Tuple[Row, int]]]:
    holds_hard = _holds_any(constraints.hard)
    drawer = cache(partial(_drawer, schema.sizes))
    trace: List[Tuple[Row, int]] = []
    while state.targets:
        candidates: Dict[Row, None] = {}
        if config.max_rows is None or len(state.rows) < config.max_rows:
            # the first 60 draws of a row also avoid the absent soft credentials
            holds_either = _holds_any([*constraints.hard, *state.soft_zero()])
            for _ in range(config.candidates_per_row):
                cols, values = rng.choice(state.targets)
                draw = drawer(cols)
                for tries in range(120):
                    row = draw(rng, values)
                    if not (holds_either if tries < 60 else holds_hard)(row):
                        break
                else:
                    row = complete(schema, constraints.hard, dict(zip(cols, values)))
                if row is not None:
                    candidates[row] = None
        if not candidates:
            raise BudgetExceededError(
                partial_rows=list(state.rows), remaining=state.deficiency()
            )
        best_row = state.best(list(candidates), config.homogeneity_weight)
        state.append(best_row)
        trace.append((best_row, state.total))
    return state.rows, trace


def construct_padding(
    base: Optional[AccessProfileArray],
    constraints: ConstraintSet,
    config: ConstructionConfig,
    schema=None,
) -> ConstructionResult:
    """Greedy padding of `base` to an (r_target, t)-anonymous array.

    `base` may be None to construct from scratch; pass the schema then.
    The base rows are preserved as an unmodified prefix.  When the base
    has row labels they are kept, and padding rows are labelled pad-1,
    pad-2, and so on.
    """
    if base is None and schema is None:
        raise InvalidParameterError("schema required when base is None")
    schema, base_rows = (schema, ()) if base is None else (base.schema, base.rows)

    feasibility = check_feasibility(schema, constraints, config.t)
    if not feasibility.feasible:
        raise InfeasibleError(feasibility, schema)
    violations = () if base is None else _hard_violations(base, constraints)
    if violations:
        i, h = violations[0]
        raise InvalidParameterError(
            f"base array row {i + 1} violates hard constraint {h.render(schema)}; "
            "padding cannot repair it"
        )
    if config.max_rows is not None and config.max_rows < len(base_rows):
        raise InvalidParameterError("max_rows is smaller than the base array")

    kinds = _credential_kinds(schema, constraints, config.t)
    start = _State(kinds, constraints, config.t, config.r_target, base)
    results, errors = [], []
    for attempt in range(config.restarts + 1):
        rng = random.Random((config.seed + attempt * _SEED_STRIDE) % 2**64)
        try:
            results.append(_run_attempt(schema, start.copy(), constraints, config, rng))
        except BudgetExceededError as exc:
            errors.append(exc)
    if not results:
        raise min(errors, key=lambda exc: sum(exc.remaining.values()))
    # fewest rows, then the smallest rows; the first attempt among equals
    rows, trace = min(results, key=lambda result: (len(result[0]), result[0]))
    if not rows:
        # from scratch with no credential that must appear: r_target copies
        # of one legal row make a valid array
        row = complete(schema, constraints.hard, {})
        rows, trace = [row] * config.r_target, [(row, 0)] * config.r_target
    labels = None
    if base is not None and base.row_labels is not None:
        padding = range(1, len(rows) - len(base_rows) + 1)
        labels = base.row_labels + tuple(f"pad-{i}" for i in padding)
    array = AccessProfileArray(schema=schema, rows=tuple(rows), row_labels=labels)
    achieved = compute_guarantee(array, config.t, constraints)
    return ConstructionResult(
        array=array,
        padding_count=len(rows) - len(base_rows),
        achieved=achieved,
        lower_bound=row_lower_bound(schema, constraints, config.r_target, config.t),
        trace=tuple(trace),
    )


def suggest_credential_size(
    base: AccessProfileArray,
    constraints: ConstraintSet,
    r_target: int,
    row_budget: int,
    seed: int = 0,
) -> Tuple[int, Optional[ConstructionResult]]:
    """Largest t for which r_target is reachable within the row budget.

    Searches t from k downward, constructing with max_rows = row_budget;
    returns (0, None) when no t works.  A base holding a hard constraint raises.
    """
    if row_budget < base.n_rows:
        raise InvalidParameterError("row_budget must cover the base array")
    for t in range(base.k, 0, -1):
        if row_lower_bound(base.schema, constraints, r_target, t) > row_budget:
            continue
        config = ConstructionConfig(
            r_target=r_target, t=t, seed=seed, max_rows=row_budget
        )
        try:
            result = construct_padding(base, constraints, config)
        except (BudgetExceededError, InfeasibleError):
            continue
        return t, result
    return 0, None
