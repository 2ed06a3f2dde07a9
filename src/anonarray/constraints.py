"""Hard / soft / don't-care constraints, the row completer, the exact
feasibility check, and the row-count lower bound.

Classification rules:
  * a credential is hard when it is a superset of any hard constraint
    (hard constraints forbid every row that contains them);
  * soft and don't-care constraints match the counted credential itself,
    except that a superset of a don't-care credential is also don't-care
    (it can never be used in a policy either);
  * everything else is unconstrained.

A row is legal when it contains no hard constraint, whatever the
constraint's size.  `complete` is the one answer to "does this partial
row extend to a legal row?": a depth-first search that returns the
lexicographically smallest legal completion.  The feasibility check and
construction's row filling both ask it, so the implicit hard constraints
that `check_feasibility` derives are exactly the minimal credentials of
size <= t that no legal row contains.  Hard constraints larger than t
therefore shape feasibility and construction; soft and don't-care
constraints larger than t are inert.

The appearance rule ("every unconstrained credential must appear r
times") and hence feasibility and the lower bound are evaluated over
credentials of size exactly t; smaller appearing credentials inherit
their counts from their size-t extensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import InvalidParameterError, SearchBudgetError
from .model import AttributeSchema, Credential, Row, enumerate_column_sets

HARD = "hard"
SOFT = "soft"
DONT_CARE = "dont_care"
UNCONSTRAINED = "unconstrained"

# Nodes one call of `complete` may visit before it gives up.
_SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class ConstraintSet:
    """The three pairwise-disjoint kinds of constrained credentials."""

    hard: FrozenSet[Credential] = frozenset()
    soft: FrozenSet[Credential] = frozenset()
    dont_care: FrozenSet[Credential] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "hard", frozenset(self.hard))
        object.__setattr__(self, "soft", frozenset(self.soft))
        object.__setattr__(self, "dont_care", frozenset(self.dont_care))
        if (self.hard & self.soft) or (self.hard & self.dont_care) or (
            self.soft & self.dont_care
        ):
            raise InvalidParameterError("constraint kinds must be pairwise disjoint")

    def validate_for(self, schema: AttributeSchema) -> None:
        for c in itertools.chain(self.hard, self.soft, self.dont_care):
            c.validate_for(schema)

    def oversized(self, t: int) -> Tuple[Credential, ...]:
        """Constraints larger than the analysis t.  Hard ones still forbid
        every row that contains them; soft and don't-care ones are inert."""
        return tuple(
            sorted(
                c
                for c in itertools.chain(self.hard, self.soft, self.dont_care)
                if len(c) > t
            )
        )

    def is_empty(self) -> bool:
        return not (self.hard or self.soft or self.dont_care)


EMPTY_CONSTRAINTS = ConstraintSet()


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    implicit_hard: FrozenSet[Credential]
    witnesses: Tuple[Tuple[Credential, str], ...]


def classify(credential: Credential, constraints: ConstraintSet) -> str:
    """Kind of a credential under the given constraint set."""
    for h in constraints.hard:
        if credential.contains(h):
            return HARD
    if credential in constraints.soft:
        return SOFT
    if credential in constraints.dont_care:
        return DONT_CARE
    for d in constraints.dont_care:
        if credential.contains(d):
            return DONT_CARE
    return UNCONSTRAINED


def _within(credential: Credential, cells: Dict[int, int]) -> bool:
    """True when every pair of the credential is one of the cells."""
    return all(cells.get(a) == v for a, v in credential.pairs)


def complete(
    schema: AttributeSchema, hard: Iterable[Credential], fixed: Dict[int, int]
) -> Optional[Row]:
    """The lexicographically smallest legal row holding the `fixed` cells,
    or None when there is none.

    A row is legal when it contains no hard constraint.  The search runs
    depth first over the attributes the live constraints mention, in index
    order, trying values in ascending order; every other free cell is 0.
    Raises `SearchBudgetError` after `_SEARCH_BUDGET` nodes.
    """
    live: List[Tuple[Tuple[int, int], ...]] = []
    for h in hard:
        if any(fixed.get(a, v) != v for a, v in h.pairs):
            continue
        rest = tuple((a, v) for a, v in h.pairs if a not in fixed)
        if not rest:
            return None
        live.append(rest)
    order = sorted({a for rest in live for a, _ in rest})
    # each constraint is checked once its last attribute is assigned
    checks: Dict[int, list] = {a: [] for a in order}
    for rest in live:
        checks[rest[-1][0]].append(rest)
    row = [fixed.get(a, 0) for a in range(schema.k)]
    nodes = itertools.count(1)

    def search(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for x in range(schema.sizes[a]):
            if next(nodes) > _SEARCH_BUDGET:
                shown = (
                    Credential(tuple(fixed.items())).render(schema) if fixed else "{}"
                )
                raise SearchBudgetError(
                    f"row completion gave up after {_SEARCH_BUDGET} search nodes "
                    f"while completing {shown}"
                )
            row[a] = x
            if not any(all(row[b] == v for b, v in rest) for rest in checks[a]):
                if search(i + 1):
                    return True
        return False

    return tuple(row) if search(0) else None


def check_feasibility(
    schema: AttributeSchema, constraints: ConstraintSet, t: int
) -> FeasibilityReport:
    """Is there a legal row, and can every unconstrained size-t credential
    appear in one?

    Walks the credentials of size 1..t by size, column set and values.  A
    credential containing an already derived one is blocked.  Any other
    extends when the smallest legal row with its cells written over it is
    still legal, or else when `complete` finds a row; one that does not
    extend and contains no hard constraint is a new minimal implicit hard
    constraint.  Every size-t credential that is blocked or newly derived
    and that `classify` calls unconstrained is a witness of infeasibility.
    With no legal row at all the report is infeasible, with or without a
    witness.
    """
    if not 1 <= t <= schema.k:
        raise InvalidParameterError(f"t={t} out of range for k={schema.k}")
    constraints.validate_for(schema)
    hard = constraints.hard
    # `base` is legal, so writing cells over it can only break the hard
    # constraints that touch the written attributes
    base = complete(schema, hard, {})
    touching = [[h for h in hard if a in h.attributes] for a in range(schema.k)]
    derived: List[Credential] = []
    witnesses: List[Tuple[Credential, str]] = []
    for size in range(1, t + 1):
        for cols in enumerate_column_sets(schema.k, size):
            for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
                fixed = dict(zip(cols, values))
                cause = next((d for d in derived if _within(d, fixed)), None)
                if cause is None:
                    if base is not None:
                        row = [fixed.get(a, x) for a, x in enumerate(base)]
                        if not any(
                            h.contained_in_row(row) for a in cols for h in touching[a]
                        ):
                            continue
                    if complete(schema, hard, fixed) is not None:
                        continue
                    if any(_within(h, fixed) for h in hard):
                        continue
                    cause = Credential(tuple(fixed.items()))
                    derived.append(cause)
                if size < t:
                    continue
                cred = Credential(tuple(fixed.items()))
                if classify(cred, constraints) == UNCONSTRAINED:
                    witnesses.append(
                        (
                            cred,
                            "unconstrained credential is unrealizable: every row "
                            f"containing it violates a hard constraint "
                            f"(implied by {cause.render(schema)})",
                        )
                    )
    return FeasibilityReport(
        feasible=base is not None and not witnesses,
        implicit_hard=frozenset(derived),
        witnesses=tuple(witnesses),
    )


def derive_implicit_hard(
    schema: AttributeSchema, constraints: ConstraintSet, t: int
) -> FrozenSet[Credential]:
    """Minimal credentials of size <= t that no legal row contains, other
    than the hard constraints themselves."""
    return check_feasibility(schema, constraints, t).implicit_hard


def row_lower_bound(
    schema: AttributeSchema, constraints: ConstraintSet, r: int, t: int
) -> int:
    """r times the largest count of unconstrained size-t credentials on any
    single t-subset of attributes; a lower bound on N when every
    unconstrained credential must appear."""
    if r < 1:
        raise InvalidParameterError("r must be at least 1")
    constraints.validate_for(schema)
    best = 0
    for cols in enumerate_column_sets(schema.k, t):
        count = 0
        for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
            cred = Credential(tuple(zip(cols, values)))
            if classify(cred, constraints) == UNCONSTRAINED:
                count += 1
        best = max(best, count)
    return r * best
