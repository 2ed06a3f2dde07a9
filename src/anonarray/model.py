"""Core types: attribute schemas, profile arrays, credentials, and counting.

Values are stored internally as integer indices into each attribute's
domain; string labels exist only at the I/O boundary.  All types are
immutable after construction and every operation here is a pure function.

Bulk counting reads the array by column: `_coded_counts` turns each
row's value tuple on a column set into one integer code and counts the
codes, for `count_credentials`, `verify` and the base counts of
`construct` alike.  `_projector` projects one row onto a column set;
neighborhood grouping in `homogeneity` and the counts `construct` keeps
per appended row key rows by its value tuples.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import add, itemgetter
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
        rows, k = self.rows, self.schema.k
        # the first fault in row order: a row of the wrong width, or a cell
        # outside its domain in an earlier row or earlier in the same row
        misfit = next((i for i, row in enumerate(rows) if len(row) != k), len(rows))
        columns = self.columns if misfit == len(rows) else zip(*rows[:misfit])
        outside = [
            (next(i for i, cell in enumerate(column) if not 0 <= cell < size), j)
            for j, (column, size) in enumerate(zip(columns, self.schema.sizes))
            if not 0 <= min(column) <= max(column) < size
        ]
        if outside:
            i, j = min(outside)
            raise InvalidParameterError(
                f"cell ({i}, {j}) index {rows[i][j]} outside domain of "
                f"{self.schema.attributes[j].name!r}"
            )
        if misfit < len(rows):
            raise InvalidParameterError(
                f"row {misfit} has {len(rows[misfit])} cells, expected {k}"
            )
        if self.row_labels is not None and len(self.row_labels) != len(self.rows):
            raise InvalidParameterError("row_labels length must equal row count")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return self.schema.k

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The cells by column: one tuple of value indices per attribute."""
        return tuple(zip(*self.rows))

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


# Decoding tables hold at most this many value tuples; a wider code is
# decoded a table's worth of digits at a time.
_DECODE_TABLE_MAX = 4096


def _decoder(radix: int, width: int) -> Callable[[Collection[int]], Iterator[Row]]:
    """Codes -> the value tuples whose base-`radix` digits they hold."""
    digits = 1
    while digits < width and radix ** (digits + 1) <= _DECODE_TABLE_MAX:
        digits += 1
    table = list(itertools.product(range(radix), repeat=digits)).__getitem__
    if digits == width:
        return partial(map, table)
    lead, base = _decoder(radix, width - digits), radix**digits
    return lambda codes: map(
        add, lead(map(base.__rfloordiv__, codes)), map(table, map(base.__rmod__, codes))
    )


def _coded_counts(
    array: AccessProfileArray, column_sets: Iterable[ColumnSet]
) -> Iterator[Tuple[ColumnSet, Dict[Row, int]]]:
    """(cols, {value tuple: count}) for each column set, in the given order,
    each dict sorted by value tuple.

    A row's value tuple (x0, x1, ..., xl) on cols is counted as one int,
    (...(x0·S + x1)·S + ...)·S + xl, with S the largest domain size, so
    codes sort like the tuples they stand for and only the distinct codes
    are decoded.  The codes of each leading run of columns, times S, are
    kept while consecutive column sets share that run, so in
    lexicographic order most sets cost one pass to count; beyond the k
    columns this holds at most t - 1 lists of N ints.
    """
    columns = array.columns
    radix = max(array.schema.sizes)
    decoders: Dict[int, Callable[[Collection[int]], Iterator[Row]]] = {}
    # levels[d]: the codes of the current head's first d + 1 columns, times S
    head: ColumnSet = ()
    levels: List[List[int]] = []
    for cols in column_sets:
        keep = 0
        while keep < min(len(head), len(cols) - 1) and head[keep] == cols[keep]:
            keep += 1
        del levels[keep:]
        head = cols[:-1]
        for c in head[keep:]:
            codes = map(add, levels[-1], columns[c]) if levels else columns[c]
            levels.append(list(map(radix.__mul__, codes)))
        last = columns[cols[-1]]
        counts = Counter(map(add, levels[-1], last) if levels else last)
        if len(cols) not in decoders:
            decoders[len(cols)] = _decoder(radix, len(cols))
        order = sorted(counts)
        yield cols, dict(zip(decoders[len(cols)](order), map(counts.__getitem__, order)))


def count_credentials(array: AccessProfileArray, column_set: Iterable[int]) -> CredentialCountTable:
    """How many rows hold each value tuple on the given columns, by tuple."""
    cols = tuple(column_set)
    if not cols:
        raise InvalidParameterError("column set must be non-empty")
    for c in cols:
        if not 0 <= c < array.k:
            raise InvalidParameterError(f"column index {c} out of range")
    (_, counts), = _coded_counts(array, [cols])
    return CredentialCountTable(column_set=cols, counts=counts, total=array.n_rows)


def credential_of_row(array: AccessProfileArray, row: int, column_set: Iterable[int]) -> Credential:
    """The unique credential of one row restricted to the given columns."""
    if not 0 <= row < array.n_rows:
        raise InvalidParameterError(f"row index {row} out of range")
    cols = tuple(column_set)
    for c in cols:
        if not 0 <= c < array.k:
            raise InvalidParameterError(f"column index {c} out of range")
    return Credential(tuple((c, array.rows[row][c]) for c in cols))


def _rows_holding(array: AccessProfileArray, credential: Credential) -> List[int]:
    """Ascending indices of the rows that contain the credential, found
    column by column."""
    (a, v), *rest = credential.pairs
    rows = list(itertools.compress(itertools.count(), map(v.__eq__, array.columns[a])))
    for a, v in rest:
        column = array.columns[a]
        rows = [i for i in rows if column[i] == v]
    return rows


def credential_count(array: AccessProfileArray, credential: Credential) -> int:
    """Number of rows containing the credential (any size up to k)."""
    return len(_rows_holding(array, credential))
