"""Core types: attribute schemas, profile arrays, credentials, and counting.

Values are stored internally as integer indices into each attribute's
domain; string labels exist only at the I/O boundary.  Every operation
here is a pure function, and every type is immutable except
`CredentialCountTable`: its `counts` is a plain dict, so it is mutable
and unhashable.

Credentials are counted on two paths, both read by column.  `_codes`
codes each row's value tuple on a column set as one integer;
`homogeneity` groups rows by these codes and has `_decoder` decode only
the distinct ones it lists.  `_column_masks` gives, per column and
value, the rows holding it as the bits of one integer, cached on the
array.  `_coded_counts` counts for `count_credentials`, `verify` and
`construct`: a dense column set, of two or more columns whose domains
allow at most 256 value tuples and N at least 4 times that many, by
ANDing masks and counting bits (`_tally_bits`, never touching a row);
any other set by counting codes (`_tally_codes`).  `_projector`
projects one row, for `construct`'s per-row counts and constraint
checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, partial, total_ordering
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


class _Frozen:
    """Base of the package's immutable value types, written out because
    generated classes slow every CLI process's start-up (see the README).

    A subclass's fields are the names annotated in its own body, in order;
    a class attribute of the same name is that field's default.  Instances
    with equal class and fields are equal and hash alike; they print as
    `Name(field=value, ...)` and refuse assignment and deletion.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() got too many or unknown arguments")
        defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(values) < len(names):
            raise TypeError(f"{cls.__name__}() is missing arguments")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class AttributeDef(_Frozen):
    """A named column with a finite, ordered domain of value labels."""

    name: str
    values: Tuple[str, ...]

    def __init__(self, name: str, values: Iterable[str]):
        values = tuple(values)
        if not name:
            raise InvalidParameterError("attribute name must be non-empty")
        if len(values) < 1:
            raise InvalidParameterError(
                f"attribute {name!r} must have at least one value"
            )
        if len(set(values)) != len(values):
            raise InvalidParameterError(
                f"attribute {name!r} has duplicate value labels"
            )
        super().__init__(name, values)


class AttributeSchema(_Frozen):
    """Ordered list of attributes; defines the columns of an array."""

    attributes: Tuple[AttributeDef, ...]

    def __init__(self, attributes: Iterable[AttributeDef]):
        attributes = tuple(attributes)
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise InvalidParameterError("attribute names must be unique")
        super().__init__(attributes)

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


@total_ordering
class Credential(_Frozen):
    """A set of (attribute index, value index) pairs, sorted by attribute.

    Size ranges from a single pair up to a full row.  Credentials are
    ordered by their pairs.
    """

    pairs: Tuple[Tuple[int, int], ...]

    # built, compared and hashed on hot paths: no generic field handling
    def __init__(self, pairs: Iterable[Tuple[int, int]]):
        pairs = tuple(sorted(tuple(p) for p in pairs))
        if not pairs:
            raise InvalidParameterError("credential must contain at least one pair")
        attrs = [a for a, _ in pairs]
        if len(set(attrs)) != len(attrs):
            raise InvalidParameterError("credential attributes must be distinct")
        self.__dict__["pairs"] = pairs

    def __eq__(self, other):
        if type(other) is not Credential:
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash((self.pairs,))

    def __lt__(self, other):
        if type(other) is not Credential:
            return NotImplemented
        return self.pairs < other.pairs

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


class AccessProfileArray(_Frozen):
    """N x k matrix of value indices over a schema; rows are access profiles.

    Duplicate rows are permitted.
    """

    schema: AttributeSchema
    rows: Tuple[Row, ...]
    row_labels: Optional[Tuple[str, ...]]

    def __init__(self, schema: AttributeSchema, rows: Iterable[Row], row_labels=None):
        rows = tuple(tuple(r) for r in rows)
        if row_labels is not None:
            row_labels = tuple(row_labels)
        super().__init__(schema, rows, row_labels)
        if len(rows) < 1:
            raise InvalidParameterError("array must have at least one row")
        k = schema.k
        # the first fault in row order: a row of the wrong width, or a cell
        # outside its domain in an earlier row or earlier in the same row
        misfit = next((i for i, row in enumerate(rows) if len(row) != k), len(rows))
        columns = self.columns if misfit == len(rows) else zip(*rows[:misfit])
        outside = [
            (next(i for i, cell in enumerate(column) if not 0 <= cell < size), j)
            for j, (column, size) in enumerate(zip(columns, schema.sizes))
            if not 0 <= min(column) <= max(column) < size
        ]
        if outside:
            i, j = min(outside)
            raise InvalidParameterError(
                f"cell ({i}, {j}) index {rows[i][j]} outside domain of "
                f"{schema.attributes[j].name!r}"
            )
        if misfit < len(rows):
            raise InvalidParameterError(
                f"row {misfit} has {len(rows[misfit])} cells, expected {k}"
            )
        if row_labels is not None and len(row_labels) != len(rows):
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

    @cached_property
    def _value_masks(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Column -> (value, mask) for each value that appears in it,
        ascending; bit i of a mask is set when row i holds the value.
        Filled by `_column_masks` as the bit path first reads a column."""
        return {}

    def row_multiset(self) -> Counter:
        return Counter(self.rows)


class CredentialCountTable(_Frozen):
    """Occurrence counts of the value tuples on one t-subset of columns.

    Sparse: only tuples appearing at least once are stored.
    """

    column_set: ColumnSet
    counts: dict
    total: int

    def __init__(self, column_set: ColumnSet, counts: Optional[dict] = None, total=0):
        # each table gets its own empty dict by default
        super().__init__(column_set, {} if counts is None else counts, total)


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
_Decoder = Callable[[Collection[int]], Iterator[Row]]


def _decoder(array: AccessProfileArray, width: int) -> _Decoder:
    """`_codes` codes on `width` columns -> the value tuples they stand for."""
    radix = max(array.schema.sizes)
    digits = 1
    while digits < width and radix ** (digits + 1) <= _DECODE_TABLE_MAX:
        digits += 1
    table = list(itertools.product(range(radix), repeat=digits)).__getitem__
    if digits == width:
        return partial(map, table)
    lead, base = _decoder(array, width - digits), radix**digits
    # lead reads its codes twice when it is chunked too, so they are a list
    return lambda codes: map(
        add,
        lead(list(map(base.__rfloordiv__, codes))),
        map(table, map(base.__rmod__, codes)),
    )


def _codes(
    array: AccessProfileArray, column_sets: Iterable[ColumnSet]
) -> Iterator[Tuple[ColumnSet, Iterable[int]]]:
    """(cols, every row's code on cols) per column set, in the given order.

    A row's value tuple (x0, x1, ..., xl) on cols is coded as one int,
    (...(x0·S + x1)·S + ...)·S + xl, with S the largest domain size, so
    codes sort like the tuples they stand for.  The codes of each leading
    run of columns, times S, are kept while consecutive column sets share
    that run, so in lexicographic order most sets cost one pass; beyond
    the k columns this holds at most t - 1 lists of N ints.
    """
    columns = array.columns
    radix = max(array.schema.sizes)
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
        yield cols, map(add, levels[-1], last) if levels else last


def _tally_codes(
    array: AccessProfileArray, column_sets: Iterable[ColumnSet]
) -> Iterator[Tuple[ColumnSet, Dict[Row, int]]]:
    """`_coded_counts` by counting each row's code; only the distinct codes
    are decoded."""
    decoders: Dict[int, _Decoder] = {}
    for cols, codes in _codes(array, column_sets):
        counts = Counter(codes)
        if len(cols) not in decoders:
            decoders[len(cols)] = _decoder(array, len(cols))
        order = sorted(counts)
        yield cols, dict(zip(decoders[len(cols)](order), map(counts.__getitem__, order)))


def _column_masks(array: AccessProfileArray, c: int) -> Tuple[Tuple[int, int], ...]:
    """`array._value_masks[c]`, built in C from one byte per cell the first
    time, so column c must have at most 256 values."""
    masks = array._value_masks
    if c not in masks:
        cells = bytes(array.columns[c])[::-1]  # row 0 is the last digit, bit 0
        pairs = (
            (v, int(cells.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2))
            for v in range(array.schema.sizes[c])
        )
        masks[c] = tuple((v, m) for v, m in pairs if m)
    return masks[c]


def _tally_bits(
    array: AccessProfileArray, column_sets: Iterable[ColumnSet]
) -> Iterator[Tuple[ColumnSet, Dict[Row, int]]]:
    """`_coded_counts` by ANDing the columns' value masks, without touching
    rows.

    The (value prefix, rows mask) pairs of each leading run of columns
    with a row in common are kept while consecutive column sets share that
    run, as `_codes` keeps its codes; the last column's counts are the
    popcounts of each prefix mask AND each value mask.  Prefixes and
    values ascend, so each dict comes out sorted by value tuple.
    """
    masks = partial(_column_masks, array)
    head: ColumnSet = ()
    # levels[d]: the pairs of the current head's first d columns; -1 has
    # every bit set, so the empty prefix holds every row
    levels: List[List[Tuple[Row, int]]] = [[((), -1)]]
    for cols in column_sets:
        keep = 0
        while keep < min(len(head), len(cols) - 1) and head[keep] == cols[keep]:
            keep += 1
        del levels[keep + 1:]
        head = cols[:-1]
        for c in head[keep:]:
            levels.append([
                (prefix + (v,), both)
                for prefix, rows in levels[-1]
                for v, m in masks(c)
                if (both := rows & m)
            ])
        last = masks(cols[-1])
        yield cols, {
            prefix + (v,): n
            for prefix, rows in levels[-1]
            for v, m in last
            if (n := (rows & m).bit_count())
        }


def _use_bits(array: AccessProfileArray, cols: ColumnSet) -> bool:
    """Whether `_tally_bits` counts `cols`: where it measured faster than
    counting codes, on two or more columns whose domains allow at most 256
    value tuples, a quarter of N or fewer.  At most 256 prefix masks of N
    bits are then held at once, and every domain fits in a byte."""
    tuples = 1
    for c in cols:
        tuples *= array.schema.sizes[c]
    return len(cols) > 1 and tuples <= 256 and 4 * tuples <= array.n_rows


def _coded_counts(
    array: AccessProfileArray, column_sets: Iterable[ColumnSet]
) -> Iterator[Tuple[ColumnSet, Dict[Row, int]]]:
    """(cols, {value tuple: count}) for each column set, in the given order,
    each dict sorted by value tuple; each run of consecutive sets goes to
    the path `_use_bits` picks for them."""
    for bits, run in itertools.groupby(column_sets, partial(_use_bits, array)):
        yield from (_tally_bits if bits else _tally_codes)(array, run)


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
