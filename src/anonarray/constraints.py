"""Hard / soft / don't-care constraints, implicit-constraint propagation,
feasibility checking, and the row-count lower bound.

Classification rules:
  * a credential is hard when it is a superset of any hard constraint
    (hard constraints forbid every row that contains them);
  * soft and don't-care constraints match the counted credential itself,
    except that a superset of a don't-care credential is also don't-care
    (it can never be used in a policy either);
  * everything else is unconstrained.

Implicit hard constraints are derived with a value-elimination fixpoint:
a credential is forbidden when, for some uncovered attribute, every way
to extend it by one value of that attribute is already forbidden.  This
is a sound under-approximation of full infeasibility checking.

The appearance rule ("every unconstrained credential must appear r
times") and hence feasibility and the lower bound are evaluated over
credentials of size exactly t; smaller appearing credentials inherit
their counts from their size-t extensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from .errors import InvalidParameterError
from .model import AttributeSchema, Credential, enumerate_column_sets

HARD = "hard"
SOFT = "soft"
DONT_CARE = "dont_care"
UNCONSTRAINED = "unconstrained"

# Full enumeration of sub-t credentials is abandoned past this count and a
# reduction-driven candidate pool is used instead.
_ENUMERATION_CAP = 500_000


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
        """Constraints larger than the analysis t; retained but inert."""
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


def _minimal(creds: Iterable[Credential]) -> FrozenSet[Credential]:
    """Drop every credential that strictly contains another in the set."""
    creds = set(creds)
    return frozenset(
        c
        for c in creds
        if not any(o is not c and c.contains(o) and c != o for o in creds)
    )


def _all_credentials_upto(schema: AttributeSchema, t: int):
    for size in range(1, t + 1):
        for cols in enumerate_column_sets(schema.k, size):
            for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
                yield Credential(tuple(zip(cols, values)))


def _credential_space_size(schema: AttributeSchema, t: int) -> int:
    total = 0
    sizes = schema.sizes
    for size in range(1, t + 1):
        for cols in enumerate_column_sets(schema.k, size):
            prod = 1
            for c in cols:
                prod *= sizes[c]
            total += prod
            if total > _ENUMERATION_CAP:
                return total
    return total


def derive_implicit_hard(
    schema: AttributeSchema, constraints: ConstraintSet, t: int
) -> FrozenSet[Credential]:
    """Minimal newly-forbidden credentials implied by the hard constraints.

    A credential of size <= t is forbidden when it contains a hard
    constraint or when some attribute outside it cannot be assigned any
    value without producing a forbidden credential.  Returns only the
    minimal derived credentials that are not supersets of (or equal to)
    explicit hard constraints.
    """
    if t > schema.k:
        raise InvalidParameterError(f"t={t} exceeds k={schema.k}")
    constraints.validate_for(schema)
    explicit = frozenset(h for h in constraints.hard if len(h) <= t)
    if not explicit:
        return frozenset()

    minimal = set(_minimal(explicit))

    def forbidden(cred: Credential) -> bool:
        return any(cred.contains(m) for m in minimal)

    if _credential_space_size(schema, t) <= _ENUMERATION_CAP:
        candidates = list(_all_credentials_upto(schema, t))
    else:
        # Reduction-driven pool: drop one attribute from each constraint.
        pool = set()
        for m in minimal:
            for a in m.attributes:
                reduced = tuple(p for p in m.pairs if p[0] != a)
                if reduced:
                    pool.add(Credential(reduced))
        candidates = sorted(pool)

    changed = True
    while changed:
        changed = False
        for cred in candidates:
            if len(cred) >= t or forbidden(cred):
                continue
            covered = set(cred.attributes)
            for a in range(schema.k):
                if a in covered:
                    continue
                if all(
                    forbidden(Credential(cred.pairs + ((a, x),)))
                    for x in range(schema.sizes[a])
                ):
                    minimal.add(cred)
                    minimal = set(_minimal(minimal))
                    changed = True
                    break

    derived = {
        m
        for m in _minimal(minimal)
        if m not in explicit and not any(m.contains(h) for h in explicit)
    }
    return frozenset(derived)


def check_feasibility(
    schema: AttributeSchema, constraints: ConstraintSet, t: int
) -> FeasibilityReport:
    """Can every unconstrained size-t credential appear in some legal row?

    Infeasible when a credential classified unconstrained is caught by the
    implicit-hard propagation: it must appear r times yet no row avoiding
    the hard constraints can contain it.
    """
    if t > schema.k:
        raise InvalidParameterError(f"t={t} exceeds k={schema.k}")
    constraints.validate_for(schema)
    derived = derive_implicit_hard(schema, constraints, t)
    witnesses: List[Tuple[Credential, str]] = []
    if derived:
        for cols in enumerate_column_sets(schema.k, t):
            for values in itertools.product(*(range(schema.sizes[c]) for c in cols)):
                cred = Credential(tuple(zip(cols, values)))
                if classify(cred, constraints) != UNCONSTRAINED:
                    continue
                for d in derived:
                    if cred.contains(d):
                        witnesses.append(
                            (
                                cred,
                                "unconstrained credential is unrealizable: every row "
                                f"containing it violates a hard constraint "
                                f"(implied by {d.render(schema)})",
                            )
                        )
                        break
    return FeasibilityReport(
        feasible=not witnesses,
        implicit_hard=derived,
        witnesses=tuple(witnesses),
    )


def row_lower_bound(
    schema: AttributeSchema, constraints: ConstraintSet, r: int, t: int
) -> int:
    """r times the largest count of unconstrained size-t credentials on any
    single t-subset of attributes; a lower bound on N when every
    unconstrained credential must appear."""
    if r < 1:
        raise InvalidParameterError("r must be at least 1")
    if t > schema.k:
        raise InvalidParameterError(f"t={t} exceeds k={schema.k}")
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
