"""Hard / soft / don't-care constraints, the row completer, the exact
feasibility check, and the row-count lower bound.

Classification rules for one credential, the first that applies wins:
  * hard when it contains any hard constraint (hard constraints forbid
    every row that contains them);
  * soft when it is a soft constraint itself; a superset of one is not;
  * don't-care when it contains a don't-care constraint (a superset of a
    don't-care credential can never be used in a policy either);
  * unconstrained otherwise.
`kinds_on` applies them to a whole sorted column set: it maps only the
constrained value tuples to their kinds, at a cost that follows the
constraints inside the set, not v^t; a scan passes the tuples that
appear, and the map then covers only those.

A row is legal when it contains no hard constraint, whatever the
constraint's size.  `complete` is the one answer to "does this partial
row extend to a legal row?": a depth-first search that returns the
lexicographically smallest legal completion.  The feasibility check and
construction's row filling both ask it, so the implicit hard constraints
that `check_feasibility` derives are exactly the minimal credentials of
size <= t that no legal row contains.  Hard constraints larger than t
therefore shape feasibility and construction; soft and don't-care
constraints larger than t are inert.

The feasibility check works one component at a time.  Attributes joined
by hard constraints form connected components; legal rows are the
product of each component's legal assignments, and attributes in no hard
constraint are free.  So a credential extends exactly when its part in
every component extends, and every minimal implicit hard constraint lies
inside one component: the walk over credentials of size <= t stays
inside each component, and its cost grows with the largest component,
not with k.  Before asking `complete`, the walk writes the credential's
cells over the component's smallest legal assignment and checks only the
hard constraints touching them; when all 16 attributes of a 4-valued
schema form one chain of 15 pairs at t=3, dropping that pre-test made
the check 2.5-3 times slower.  When some component has no legal
assignment, no row is legal, nothing extends, and every (attribute,
value) pair that is not itself hard is derived; no witness is listed.

The appearance rule ("every unconstrained credential must appear r
times") and hence feasibility and the lower bound are evaluated over
credentials of size exactly t; smaller appearing credentials inherit
their counts from their size-t extensions.
"""

from __future__ import annotations

import itertools
import math
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import InvalidParameterError, SearchBudgetError
from .model import (
    AttributeSchema,
    ColumnSet,
    Credential,
    Row,
    _Frozen,
    _projector,
    enumerate_column_sets,
)

HARD = "hard"
SOFT = "soft"
DONT_CARE = "dont_care"
UNCONSTRAINED = "unconstrained"

# Nodes one call of `complete` may visit before it gives up.
_SEARCH_BUDGET = 1_000_000


class ConstraintSet(_Frozen):
    """The three pairwise-disjoint kinds of constrained credentials."""

    hard: FrozenSet[Credential]
    soft: FrozenSet[Credential]
    dont_care: FrozenSet[Credential]

    def __init__(self, hard=(), soft=(), dont_care=()):
        hard, soft, dont_care = frozenset(hard), frozenset(soft), frozenset(dont_care)
        if (hard & soft) or (hard & dont_care) or (soft & dont_care):
            raise InvalidParameterError("constraint kinds must be pairwise disjoint")
        super().__init__(hard, soft, dont_care)

    def validate_for(self, schema: AttributeSchema) -> None:
        for c in itertools.chain(self.hard, self.soft, self.dont_care):
            c.validate_for(schema)


EMPTY_CONSTRAINTS = ConstraintSet()


class FeasibilityReport(_Frozen):
    feasible: bool
    implicit_hard: FrozenSet[Credential]
    witnesses: Tuple[Tuple[Credential, str], ...]


def kinds_on(
    schema: AttributeSchema,
    constraints: ConstraintSet,
    cols: ColumnSet,
    among: Optional[Collection[Row]] = None,
) -> Dict[Row, str]:
    """The constrained value tuples on one sorted column set, each with the
    kind the module's rules give it; every tuple not in the map is
    unconstrained.

    Given `among`, some value tuples on `cols` (those that appear in an
    array, say), the map holds only tuples from it, and a constraint
    smaller than `cols` costs one pass over them per distinct attribute
    set instead of the product of the other columns' domain sizes."""
    domains = [range(schema.sizes[a]) for a in cols]
    place = {a: p for p, a in enumerate(cols)}
    # `among` by its values on each attribute set met so far
    indexes: Dict[ColumnSet, Dict[Row, List[Row]]] = {}
    kinds: Dict[Row, str] = {}
    # later writes win: hard over soft over don't-care
    groups = constraints.dont_care, constraints.soft, constraints.hard
    for kind, group in zip((DONT_CARE, SOFT, HARD), groups):
        for c in group:
            attrs = c.attributes
            if not place.keys() >= set(attrs) or (kind == SOFT and len(c) < len(cols)):
                continue
            if among is None:
                fixed = {a: (v,) for a, v in c.pairs}
                matches = itertools.product(*map(fixed.get, cols, domains))
            else:
                if attrs not in indexes:
                    project = _projector(tuple(map(place.get, attrs)))
                    index = indexes[attrs] = {}
                    for values in among:
                        index.setdefault(project(values), []).append(values)
                matches = indexes[attrs].get(tuple(v for _, v in c.pairs), ())
            for values in matches:
                kinds[values] = kind
    return kinds


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


def _components(
    hard: Iterable[Credential],
) -> List[Tuple[Tuple[int, ...], List[Credential]]]:
    """The connected components of the hypergraph whose vertices are
    attributes and whose edges are the hard constraints, found with
    union-find: (sorted attributes, hard constraints) per component, by
    smallest attribute.  Attributes in no hard constraint are in none."""
    parent: Dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for h in hard:
        first, *rest = h.attributes
        for a in rest:
            parent[find(a)] = find(first)
    members: Dict[int, List[Credential]] = {}
    for h in hard:
        members.setdefault(find(h.attributes[0]), []).append(h)
    # components share no attribute, so the sort never compares the lists
    return sorted(
        (tuple(sorted({a for h in group for a in h.attributes})), group)
        for group in members.values()
    )


def _walk_key(credential: Credential) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(size, column set, values): the order in which credentials are walked."""
    return len(credential), credential.attributes, tuple(v for _, v in credential.pairs)


def _derive_in_component(
    schema: AttributeSchema,
    attrs: Tuple[int, ...],
    hard: List[Credential],
    base: Row,
    t: int,
) -> List[Credential]:
    """The minimal credentials of size <= t on one component's attributes
    that no legal row holds, other than its hard constraints, in walk
    order.  `base` is the component's smallest legal assignment."""
    touching = {a: [h for h in hard if a in h.attributes] for a in attrs}
    derived: List[Credential] = []
    for size in range(1, min(t, len(attrs)) + 1):
        for cols in itertools.combinations(attrs, size):
            for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
                fixed = dict(zip(cols, values))
                if any(_within(d, fixed) for d in derived):
                    continue
                # `base` is legal, so writing cells over it can only break
                # the hard constraints that touch the written attributes
                row = list(base)
                for c, x in fixed.items():
                    row[c] = x
                if not any(h.contained_in_row(row) for c in cols for h in touching[c]):
                    continue
                if complete(schema, hard, fixed) is not None:
                    continue
                if any(_within(h, fixed) for h in hard):
                    continue
                derived.append(Credential(tuple(fixed.items())))
    return derived


def check_feasibility(
    schema: AttributeSchema, constraints: ConstraintSet, t: int
) -> FeasibilityReport:
    """Is there a legal row, and can every unconstrained size-t credential
    appear in one?

    Inside each component of the hard constraints (see `_components`, and
    the module docstring for why this is exact), the credentials of size
    1..min(t, its size) are walked by size, column set and values.  A
    credential containing one already derived is blocked.  Any other
    extends when the component's smallest legal assignment with its cells
    written over it is still legal, a cheap test that settles most
    credentials, or else when `complete`, given the component's hard
    constraints only, finds a row.  One that does not extend and contains
    no hard constraint is a new minimal implicit hard constraint.

    When some component has no legal assignment, no row is legal: every
    (attribute, value) pair that is not itself hard is derived, and the
    report is infeasible with no witness, since no credential is at fault
    (listing every size-t extension would name all of them).

    The witnesses are the size-t credentials that contain a derived one
    and that are unconstrained (in no `kinds_on` map), by column set and
    values.
    Each reason names the first derived credential, by size, column set
    and values, that the witness contains.
    """
    if not 1 <= t <= schema.k:
        raise InvalidParameterError(f"t={t} out of range for k={schema.k}")
    constraints.validate_for(schema)
    components = _components(constraints.hard)
    bases = [complete(schema, hard, {}) for _, hard in components]
    if None in bases:
        return FeasibilityReport(
            feasible=False,
            implicit_hard=frozenset(
                single
                for a in range(schema.k)
                for x in range(schema.sizes[a])
                if (single := Credential(((a, x),))) not in constraints.hard
            ),
            witnesses=(),
        )
    derived = [
        d
        for (attrs, hard), base in zip(components, bases)
        for d in _derive_in_component(schema, attrs, hard, base, t)
    ]
    causes: Dict[Tuple[ColumnSet, Row], Credential] = {}
    for d in sorted(derived, key=_walk_key):
        others = [a for a in range(schema.k) if a not in d.attributes]
        for cols in itertools.combinations(others, t - len(d)):
            for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
                pairs = sorted(d.pairs + tuple(zip(cols, values)))
                causes.setdefault(tuple(zip(*pairs)), d)
    kinds = {cs: kinds_on(schema, constraints, cs) for cs in {cs for cs, _ in causes}}
    # one reason string per cause, shared by all its witnesses
    reasons = {
        d: "unconstrained credential is unrealizable: every row containing it "
        f"violates a hard constraint (implied by {d.render(schema)})"
        for d in derived
    }
    witnesses: List[Tuple[Credential, str]] = [
        (Credential(tuple(zip(cols, values))), reasons[causes[cols, values]])
        for cols, values in sorted(causes)
        if values not in kinds[cols]
    ]
    return FeasibilityReport(
        feasible=not witnesses,
        implicit_hard=frozenset(derived),
        witnesses=tuple(witnesses),
    )


def row_lower_bound(
    schema: AttributeSchema, constraints: ConstraintSet, r: int, t: int
) -> int:
    """r times the largest count of unconstrained size-t credentials on any
    single t-subset of attributes; a lower bound on N when every
    unconstrained credential must appear.  Per column set that count is
    the product of its domain sizes less the size of its `kinds_on` map."""
    if r < 1:
        raise InvalidParameterError("r must be at least 1")
    constraints.validate_for(schema)
    return r * max(
        math.prod(schema.sizes[c] for c in cols)
        - len(kinds_on(schema, constraints, cols))
        for cols in enumerate_column_sets(schema.k, t)
    )
