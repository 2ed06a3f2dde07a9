"""Anonymity guarantee computation and validation.

The guarantee r for a maximum credential size t is the smallest number of
rows sharing any appearing size-t credential on an allowed t-subset of
columns; don't-care credentials are exempt.  A row holding a hard
constraint is illegal at every t, whatever the constraint's size, and
forces r = 0.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .constraints import (
    DONT_CARE,
    EMPTY_CONSTRAINTS,
    SOFT,
    UNCONSTRAINED,
    ConstraintSet,
    kinds_on,
)
from .errors import InvalidParameterError
from .model import (
    AccessProfileArray,
    ColumnSet,
    Credential,
    _coded_counts,
    _Frozen,
    _rows_holding,
    credential_count,
    enumerate_column_sets,
)


class GuaranteeReport(_Frozen):
    t: int
    r: int
    min_witness: Optional[Tuple[ColumnSet, Credential, int]]
    hard_violations: Tuple[Tuple[int, Credential], ...]
    soft_appearances: Tuple[Tuple[Credential, int], ...]


class ValidationResult(_Frozen):
    ok: bool
    # (column_set, credential, count, kind) for every appearing credential
    # short of the target; kind annotates soft constraints.
    violations: Tuple[Tuple[Optional[ColumnSet], Credential, int, str], ...]
    report: GuaranteeReport


class AnonymityProfile(_Frozen):
    entries: Tuple[Tuple[int, int], ...]
    hard_violations: Tuple[Tuple[int, Credential], ...] = ()


def _check_inputs(array: AccessProfileArray, t: int, constraints: ConstraintSet) -> None:
    if not 1 <= t <= array.k:
        raise InvalidParameterError(f"t={t} out of range for k={array.k}")
    try:
        constraints.validate_for(array.schema)
    except InvalidParameterError as exc:
        raise InvalidParameterError(
            f"constraints do not match the array schema: {exc}"
        ) from exc


def _hard_violations(
    array: AccessProfileArray, constraints: ConstraintSet
) -> Tuple[Tuple[int, Credential], ...]:
    """(row, hard constraint) for each hard constraint a row holds, by row
    and then by constraint."""
    return tuple(
        sorted((i, h) for h in constraints.hard for i in _rows_holding(array, h))
    )


def _scan(
    array: AccessProfileArray,
    t: int,
    constraints: ConstraintSet,
    allowed_column_sets: Optional[Sequence[ColumnSet]],
    r_target: int,
) -> Tuple[GuaranteeReport, List[Tuple[Optional[ColumnSet], Credential, int, str]]]:
    """The guarantee report and every appearing credential short of
    r_target (none when r_target is 0), from one pass over the counts."""
    _check_inputs(array, t, constraints)
    violations = _hard_violations(array, constraints)

    if allowed_column_sets is None:
        column_sets = list(enumerate_column_sets(array.k, t))
    else:
        column_sets = [tuple(sorted(cs)) for cs in allowed_column_sets]
        seen = set()
        for cs in column_sets:
            if len(set(cs)) != t or any(not 0 <= c < array.k for c in cs):
                raise InvalidParameterError(f"invalid column set {cs} for t={t}")
            if cs in seen:
                raise InvalidParameterError(f"column set {cs} is repeated")
            seen.add(cs)

    best: Optional[int] = None
    witness: Optional[Tuple[ColumnSet, Credential, int]] = None
    short: List[Tuple[Optional[ColumnSet], Credential, int, str]] = []
    for cols, counts in _coded_counts(array, column_sets):
        kinds = kinds_on(array.schema, constraints, cols, counts)
        for values, count in counts.items():
            kind = kinds.get(values, UNCONSTRAINED)
            if kind == DONT_CARE:
                continue
            if best is None or count < best:
                best = count
                witness = (cols, Credential(tuple(zip(cols, values))), count)
            if count < r_target:
                short.append((cols, Credential(tuple(zip(cols, values))), count, kind))

    soft_appearances = []
    for s in sorted(constraints.soft):
        if len(s) > t:
            continue
        count = credential_count(array, s)
        if count > 0:
            soft_appearances.append((s, count))
            # size-t soft credentials were checked with their column set
            if len(s) < t and count < r_target:
                short.append((None, s, count, SOFT))

    # Every counted credential may be don't-care; the guarantee is then
    # vacuous and reported as N.
    r = 0 if violations else best if best is not None else array.n_rows
    report = GuaranteeReport(
        t=t,
        r=r,
        min_witness=witness,
        hard_violations=violations,
        soft_appearances=tuple(soft_appearances),
    )
    return report, short


def compute_guarantee(
    array: AccessProfileArray,
    t: int,
    constraints: ConstraintSet = EMPTY_CONSTRAINTS,
    allowed_column_sets: Optional[Sequence[ColumnSet]] = None,
) -> GuaranteeReport:
    """Largest r for which the array is (r, t)-anonymous; 0 on hard violation.

    `allowed_column_sets` restricts the scan when policies may use only
    some t-subsets of attributes; default is all C(k, t) subsets.
    """
    return _scan(array, t, constraints, allowed_column_sets, 0)[0]


def validate(
    array: AccessProfileArray,
    r_target: int,
    t: int,
    constraints: ConstraintSet = EMPTY_CONSTRAINTS,
    allowed_column_sets: Optional[Sequence[ColumnSet]] = None,
) -> ValidationResult:
    """Check (r_target, t)-anonymity, listing every short credential.

    Soft constraints must appear zero times or at least r_target times;
    smaller-than-t soft credentials are checked by direct row containment.
    The guarantee report comes from the same pass as the short list.
    """
    if r_target < 1:
        raise InvalidParameterError("r_target must be at least 1")
    report, short = _scan(array, t, constraints, allowed_column_sets, r_target)
    ok = not report.hard_violations and not short and report.r >= r_target
    return ValidationResult(ok=ok, violations=tuple(short), report=report)


def is_anonymizing_for(
    base: AccessProfileArray,
    extended: AccessProfileArray,
    r: int,
    t: int,
    constraints: ConstraintSet = EMPTY_CONSTRAINTS,
) -> bool:
    """True when `extended` contains `base` as a row multiset and is
    (r, t)-anonymous under the constraints."""
    if base.schema != extended.schema:
        raise InvalidParameterError("base and extended arrays must share a schema")
    base_counts = base.row_multiset()
    ext_counts = extended.row_multiset()
    for row, count in base_counts.items():
        if ext_counts.get(row, 0) < count:
            return False
    return validate(extended, r, t, constraints).ok


def anonymity_profile(
    array: AccessProfileArray, constraints: ConstraintSet = EMPTY_CONSTRAINTS
) -> AnonymityProfile:
    """(t, r) pairs for t = 1 up to k, stopping at the first r <= 1.

    A hard violation collapses the profile to the single entry (1, 0)
    with the violating rows attached.
    """
    entries: List[Tuple[int, int]] = []
    for t in range(1, array.k + 1):
        report = compute_guarantee(array, t, constraints)
        if report.hard_violations:
            return AnonymityProfile(
                entries=((t, 0),), hard_violations=report.hard_violations
            )
        entries.append((t, report.r))
        if report.r <= 1:
            break
    return AnonymityProfile(entries=tuple(entries))
