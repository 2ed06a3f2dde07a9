"""Greedy padding construction.

Appends rows to a base array until every deficient credential reaches the
target count, drawing each row from a seeded candidate pool and scoring
candidates by how much shortfall they remove, optionally penalized by the
closeness they would add to existing rows.  Restarts run with independent
seed-derived streams and the fewest-rows result wins.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .constraints import (
    DONT_CARE,
    HARD,
    UNCONSTRAINED,
    ConstraintSet,
    check_feasibility,
    classify,
    row_lower_bound,
)
from .errors import BudgetExceededError, InfeasibleError, InvalidParameterError
from .model import (
    AccessProfileArray,
    ColumnSet,
    Credential,
    Row,
    _projector,
    enumerate_column_sets,
)
from .verify import GuaranteeReport, compute_guarantee, validate

_SEED_STRIDE = 0x9E3779B97F4A7C15

DeficiencyMap = Dict[Tuple[ColumnSet, Credential], int]


@dataclass(frozen=True)
class ConstructionConfig:
    r_target: int
    t: int
    seed: int = 0
    max_rows: Optional[int] = None
    candidates_per_row: int = 64
    restarts: int = 3
    homogeneity_weight: Fraction = Fraction(0)

    def __post_init__(self):
        if self.r_target < 2:
            raise InvalidParameterError("r_target must be at least 2")
        if self.candidates_per_row < 1:
            raise InvalidParameterError("candidates_per_row must be at least 1")
        if self.restarts < 0:
            raise InvalidParameterError("restarts must be non-negative")
        w = Fraction(self.homogeneity_weight)
        if not 0 <= w <= 1:
            raise InvalidParameterError("homogeneity_weight must be in [0, 1]")
        object.__setattr__(self, "homogeneity_weight", w)


@dataclass(frozen=True)
class ConstructionResult:
    array: AccessProfileArray
    padding_count: int
    achieved: GuaranteeReport
    lower_bound: int
    # (appended row, total shortfall remaining after appending it)
    trace: Tuple[Tuple[Row, int], ...]

    @property
    def meets_lower_bound(self) -> bool:
        return self.array.n_rows == self.lower_bound


class _State:
    """Mutable per-attempt counts over the growing row list."""

    def __init__(self, schema, constraints: ConstraintSet, t: int, rows: List[Row]):
        self.rows = list(rows)
        self.projectors = [
            (cols, _projector(cols)) for cols in enumerate_column_sets(schema.k, t)
        ]
        self.counts: Dict[ColumnSet, Counter] = {
            cols: Counter(map(proj, self.rows)) for cols, proj in self.projectors
        }
        # Kinds never change as rows are appended, so every size-t
        # credential that may need rows is classified once here.
        self.needs: List[Tuple[ColumnSet, Row, Credential, str]] = []
        for cols, _ in self.projectors:
            for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
                cred = Credential(tuple(zip(cols, values)))
                kind = classify(cred, constraints)
                if kind not in (HARD, DONT_CARE):
                    self.needs.append((cols, values, cred, kind))
        # oversized soft credentials are inert for this t
        self.soft = sorted(s for s in constraints.soft if len(s) <= t)
        self.soft_counts: Counter = Counter(
            s for row in self.rows for s in self.soft if s.contained_in_row(row)
        )

    def append(self, row: Row) -> None:
        self.rows.append(row)
        for cols, proj in self.projectors:
            self.counts[cols][proj(row)] += 1
        for s in self.soft:
            if s.contained_in_row(row):
                self.soft_counts[s] += 1

    def soft_zero(self) -> List[Credential]:
        """Soft credentials currently absent from every row."""
        return [s for s in self.soft if not self.soft_counts[s]]


def _deficiency_from_state(state: _State, r_target: int) -> DeficiencyMap:
    out: DeficiencyMap = {}
    for cols, values, cred, kind in state.needs:
        count = state.counts[cols].get(values, 0)
        if count == 0:
            if kind == UNCONSTRAINED:
                out[(cols, cred)] = r_target
        elif count < r_target:
            out[(cols, cred)] = r_target - count
    # a size-t soft credential rewrites its own entry from the needs above
    for s in state.soft:
        count = state.soft_counts[s]
        if 0 < count < r_target:
            out[(s.attributes, s)] = r_target - count
    return out


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
        raise InfeasibleError(feasibility)
    state = _State(array.schema, constraints, t, list(array.rows))
    return _deficiency_from_state(state, r_target)


def _violates_hard(row: Row, constraints: ConstraintSet) -> bool:
    return any(h.contained_in_row(row) for h in constraints.hard)


def _fill_row(
    schema,
    fixed: Dict[int, int],
    constraints: ConstraintSet,
    soft_zero: List[Credential],
    rng: random.Random,
) -> Optional[Row]:
    """A full row honoring the fixed cells and avoiding hard constraints,
    preferring rows that introduce no currently-absent soft credential."""
    sizes = schema.sizes
    free = [c for c in range(schema.k) if c not in fixed]

    def sample() -> Row:
        return tuple(
            fixed[c] if c in fixed else rng.randrange(sizes[c])
            for c in range(schema.k)
        )

    for _ in range(60):
        row = sample()
        if _violates_hard(row, constraints):
            continue
        if any(s.contained_in_row(row) for s in soft_zero):
            continue
        return row
    for _ in range(60):
        row = sample()
        if not _violates_hard(row, constraints):
            return row
    # deterministic fallback: exhaustive scan over the free cells
    for combo in itertools.product(*(range(sizes[c]) for c in free)):
        cells = dict(zip(free, combo))
        cells.update(fixed)
        row = tuple(cells[c] for c in range(schema.k))
        if not _violates_hard(row, constraints):
            return row
    return None


def _run_attempt(
    schema,
    base_rows: List[Row],
    constraints: ConstraintSet,
    config: ConstructionConfig,
    rng: random.Random,
) -> Tuple[List[Row], List[Tuple[Row, int]]]:
    state = _State(schema, constraints, config.t, base_rows)
    trace: List[Tuple[Row, int]] = []
    hw = config.homogeneity_weight
    defic = _deficiency_from_state(state, config.r_target)
    while defic:
        if config.max_rows is not None and len(state.rows) >= config.max_rows:
            raise BudgetExceededError(partial_rows=list(state.rows), remaining=defic)
        targets = sorted(defic)
        soft_zero = state.soft_zero()
        candidates: Dict[Row, None] = {}
        for _ in range(config.candidates_per_row):
            cols, cred = targets[rng.randrange(len(targets))]
            row = _fill_row(schema, dict(cred.pairs), constraints, soft_zero, rng)
            if row is not None:
                candidates[row] = None
        if not candidates:
            raise BudgetExceededError(partial_rows=list(state.rows), remaining=defic)

        best_row: Optional[Row] = None
        best_score: Optional[Fraction] = None
        for row in candidates:
            matched = sum(
                1 for (_, cred) in defic if cred.contained_in_row(row)
            )
            score = Fraction(matched)
            if hw:
                penalty = Fraction(0)
                for cols, proj in state.projectors:
                    count = state.counts[cols].get(proj(row), 0)
                    penalty += Fraction(count, count + 1)
                score -= hw * penalty
            if (
                best_score is None
                or score > best_score
                or (score == best_score and row < best_row)
            ):
                best_score = score
                best_row = row
        state.append(best_row)
        defic = _deficiency_from_state(state, config.r_target)
        trace.append((best_row, sum(defic.values())))
    return state.rows, trace


def construct_padding(
    base: Optional[AccessProfileArray],
    constraints: ConstraintSet,
    config: ConstructionConfig,
    schema=None,
) -> ConstructionResult:
    """Greedy padding of `base` to an (r_target, t)-anonymous array.

    `base` may be None to construct from scratch; pass the schema then.
    The base rows are preserved as an unmodified prefix.
    """
    if base is None:
        if schema is None:
            raise InvalidParameterError("schema required when base is None")
        base_rows: List[Row] = []
    else:
        schema = base.schema
        base_rows = list(base.rows)

    feasibility = check_feasibility(schema, constraints, config.t)
    if not feasibility.feasible:
        raise InfeasibleError(feasibility)
    if base is not None:
        pre = compute_guarantee(base, config.t, constraints)
        if pre.hard_violations:
            raise InvalidParameterError(
                "base array violates hard constraints; padding cannot repair it"
            )
    if config.max_rows is not None and config.max_rows < len(base_rows):
        raise InvalidParameterError("max_rows is smaller than the base array")

    best: Optional[Tuple[List[Row], List[Tuple[Row, int]]]] = None
    first_error: Optional[BudgetExceededError] = None
    for attempt in range(config.restarts + 1):
        rng = random.Random((config.seed + attempt * _SEED_STRIDE) % 2**64)
        try:
            rows, trace = _run_attempt(schema, base_rows, constraints, config, rng)
        except BudgetExceededError as exc:
            if first_error is None or sum(exc.remaining.values()) < sum(
                first_error.remaining.values()
            ):
                first_error = exc
            continue
        if best is None or (len(rows), tuple(rows)) < (len(best[0]), tuple(best[0])):
            best = (rows, trace)
    if best is None:
        raise first_error

    rows, trace = best
    array = AccessProfileArray(schema=schema, rows=tuple(rows))
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
    returns (0, None) when no t works.
    """
    if row_budget < base.n_rows:
        raise InvalidParameterError("row_budget must cover the base array")
    for t in range(base.k, 0, -1):
        if not check_feasibility(base.schema, constraints, t).feasible:
            continue
        if row_lower_bound(base.schema, constraints, r_target, t) > row_budget:
            continue
        config = ConstructionConfig(
            r_target=r_target, t=t, seed=seed, max_rows=row_budget
        )
        try:
            result = construct_padding(base, constraints, config)
        except (BudgetExceededError, InvalidParameterError):
            continue
        return t, result
    return 0, None
