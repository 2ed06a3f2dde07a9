"""Core types: attribute schemas, profile arrays, credentials, and counting.

Values are stored internally as integer indices into each attribute's
domain; string labels exist only at the I/O boundary.  All types are
immutable after construction and every operation here is a pure function.

`_projector` is the one place that projects a row onto a column set;
counting here, neighborhood grouping in `homogeneity` and the running
counts in `construct` all key rows by its value tuples.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import InvalidParameterError

ColumnSet = Tuple[int, ...]
Row = Tuple[int, ...]


@dataclass(frozen=True)
class AttributeDef:
    """A named column with a finite, ordered domain of value labels."""

    name: str
    values: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise InvalidParameterError("attribute name must be non-empty")
        if len(self.values) < 1:
            raise InvalidParameterError(
                f"attribute {self.name!r} must have at least one value"
            )
        if len(set(self.values)) != len(self.values):
            raise InvalidParameterError(
                f"attribute {self.name!r} has duplicate value labels"
            )


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered list of attributes; defines the columns of an array."""

    attributes: Tuple[AttributeDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise InvalidParameterError("attribute names must be unique")

    @property
    def k(self) -> int:
        return len(self.attributes)

    @cached_property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(a.values) for a in self.attributes)

    def trivial_attributes(self) -> Tuple[int, ...]:
        """Indices of single-valued attributes (accepted but flagged)."""
        return tuple(i for i, a in enumerate(self.attributes) if len(a.values) == 1)

    def attribute_index(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise InvalidParameterError(f"unknown attribute {name!r}")

    def value_index(self, attribute: int, label: str) -> int:
        try:
            return self.attributes[attribute].values.index(label)
        except ValueError:
            raise InvalidParameterError(
                f"unknown value {label!r} for attribute "
                f"{self.attributes[attribute].name!r}"
            ) from None


@dataclass(frozen=True, order=True)
class Credential:
    """A set of (attribute index, value index) pairs, sorted by attribute.

    Size ranges from a single pair up to a full row.
    """

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(tuple(p) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise InvalidParameterError("credential must contain at least one pair")
        attrs = [a for a, _ in pairs]
        if len(set(attrs)) != len(attrs):
            raise InvalidParameterError("credential attributes must be distinct")

    @property
    def attributes(self) -> Tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def contains(self, other: "Credential") -> bool:
        """True when every pair of `other` is a pair of this credential."""
        return set(other.pairs) <= set(self.pairs)

    def contained_in_row(self, row: Sequence[int]) -> bool:
        return all(row[a] == v for a, v in self.pairs)

    def validate_for(self, schema: AttributeSchema) -> None:
        for a, v in self.pairs:
            if not 0 <= a < schema.k:
                raise InvalidParameterError(f"attribute index {a} out of range")
            if not 0 <= v < len(schema.attributes[a].values):
                raise InvalidParameterError(
                    f"value index {v} out of range for attribute "
                    f"{schema.attributes[a].name!r}"
                )

    def render(self, schema: AttributeSchema) -> str:
        return (
            "{"
            + ", ".join(
                f"({schema.attributes[a].name}, {schema.attributes[a].values[v]})"
                for a, v in self.pairs
            )
            + "}"
        )


@dataclass(frozen=True)
class AccessProfileArray:
    """N x k matrix of value indices over a schema; rows are access profiles.

    Duplicate rows are permitted.
    """

    schema: AttributeSchema
    rows: Tuple[Row, ...]
    row_labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if self.row_labels is not None:
            object.__setattr__(self, "row_labels", tuple(self.row_labels))
        if len(self.rows) < 1:
            raise InvalidParameterError("array must have at least one row")
        k = self.schema.k
        sizes = self.schema.sizes
        for i, row in enumerate(self.rows):
            if len(row) != k:
                raise InvalidParameterError(f"row {i} has {len(row)} cells, expected {k}")
            for j, cell in enumerate(row):
                if not 0 <= cell < sizes[j]:
                    raise InvalidParameterError(
                        f"cell ({i}, {j}) index {cell} outside domain of "
                        f"{self.schema.attributes[j].name!r}"
                    )
        if self.row_labels is not None and len(self.row_labels) != len(self.rows):
            raise InvalidParameterError("row_labels length must equal row count")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return self.schema.k

    def row_multiset(self) -> Counter:
        return Counter(self.rows)


@dataclass(frozen=True)
class CredentialCountTable:
    """Occurrence counts of the value tuples on one t-subset of columns.

    Sparse: only tuples appearing at least once are stored.
    """

    column_set: ColumnSet
    counts: dict = field(default_factory=dict)
    total: int = 0


def enumerate_column_sets(k: int, t: int) -> Iterator[ColumnSet]:
    """Yield all C(k, t) sorted t-subsets of [0, k) in lexicographic order."""
    if not 1 <= t <= k:
        raise InvalidParameterError(f"t={t} out of range for k={k}")
    return itertools.combinations(range(k), t)


def _projector(cols: ColumnSet) -> Callable[[Row], Row]:
    """Row -> its value tuple on `cols`; a 1-tuple when there is one column."""
    if len(cols) == 1:
        (c,) = cols
        return lambda row: (row[c],)
    return itemgetter(*cols)


def count_credentials(array: AccessProfileArray, column_set: Iterable[int]) -> CredentialCountTable:
    """One pass over the rows, counting each value tuple on the given columns."""
    cols = tuple(column_set)
    if not cols:
        raise InvalidParameterError("column set must be non-empty")
    for c in cols:
        if not 0 <= c < array.k:
            raise InvalidParameterError(f"column index {c} out of range")
    counts = Counter(map(_projector(cols), array.rows))
    return CredentialCountTable(column_set=cols, counts=dict(counts), total=array.n_rows)


def credential_of_row(array: AccessProfileArray, row: int, column_set: Iterable[int]) -> Credential:
    """The unique credential of one row restricted to the given columns."""
    if not 0 <= row < array.n_rows:
        raise InvalidParameterError(f"row index {row} out of range")
    cols = tuple(column_set)
    for c in cols:
        if not 0 <= c < array.k:
            raise InvalidParameterError(f"column index {c} out of range")
    return Credential(tuple((c, array.rows[row][c]) for c in cols))


def credential_count(array: AccessProfileArray, credential: Credential) -> int:
    """Number of rows containing the credential (any size up to k)."""
    return sum(1 for row in array.rows if credential.contained_in_row(row))
