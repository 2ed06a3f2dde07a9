"""Local and global homogeneity of an array, plus the multi-hypergraph view.

Rows sharing a size-t credential form a neighborhood (a hyperedge).  The
weight of a pair of rows on a credential is 1/|neighborhood| when both
belong to it; closeness sums weights over all size-t credentials; local
homogeneity averages a row's closeness over its distinct neighbors.
`local_homogeneity` scores each distinct row once, grouping each column
set's distinct rows by code; it sums a row's shares as one integer fraction,
gets its degree from ORed bitmasks and takes the mean as one exact fraction.
All arithmetic is exact (fractions); decimals appear only in rendering.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import or_
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Tuple

from .errors import InvalidParameterError
from .model import (
    AccessProfileArray,
    ColumnSet,
    Credential,
    Row,
    _Frozen,
    _codes,
    _decoder,
    enumerate_column_sets,
)

HYPERGRAPH_FORMATS = ("structured-json", "graph-description-text")


class Neighborhood(_Frozen):
    column_set: ColumnSet
    credential: Credential
    members: FrozenSet[int]


class HomogeneityReport(_Frozen):
    t: int
    local: Tuple[Fraction, ...]
    min: Fraction
    max: Fraction
    global_score: Fraction
    isolated: FrozenSet[int]


def _group(keys: Iterable[Hashable]) -> Dict[Hashable, List[int]]:
    """Row indices by key (a row, or its code on one column set), ascending."""
    groups: Dict[Hashable, List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _edges(
    array: AccessProfileArray, t: int
) -> Iterator[Tuple[ColumnSet, Row, List[int]]]:
    """(column set, value tuple, ascending member rows) of every
    neighborhood, by column set in lexicographic order, then by values."""
    column_sets = enumerate_column_sets(array.k, t)
    decode = _decoder(array, t)
    for cols, codes in _codes(array, column_sets):
        groups = _group(codes)
        order = sorted(groups)
        yield from zip(repeat(cols), decode(order), map(groups.__getitem__, order))


def neighborhoods(array: AccessProfileArray, t: int) -> List[Neighborhood]:
    """All neighborhoods, grouped by column set in lexicographic order.

    Multi-edges are preserved: the same member set may recur under
    different credentials.
    """
    return [
        Neighborhood(
            column_set=cols,
            credential=Credential(tuple(zip(cols, values))),
            members=frozenset(members),
        )
        for cols, values, members in _edges(array, t)
    ]


def weight(i: int, j: int, neighborhood: Neighborhood) -> Fraction:
    """1/|members| when both rows share the credential, else 0."""
    if i == j:
        raise InvalidParameterError("self-weight is undefined")
    if i in neighborhood.members and j in neighborhood.members:
        return Fraction(1, len(neighborhood.members))
    return Fraction(0)


def _closeness_rows(
    array: AccessProfileArray, t: int, rows: Iterable[int]
) -> Iterator[Tuple[List[int], int]]:
    """(numerators, L) of each requested row i: its closeness to row j is
    numerators[j] / L, where L is the lcm of the sizes m of i's
    neighborhoods, each adding L // m to each of its members; cell i is 0.
    The neighborhoods are listed on the call, the rows as they are drawn."""
    groups: List[List[List[int]]] = [[] for _ in range(array.n_rows)]
    for _, _, members in _edges(array, t):
        for j in members:
            groups[j].append(members)

    def kernel():
        for i in rows:
            lcm = math.lcm(*map(len, groups[i]))
            numerators = [0] * array.n_rows
            for members in groups[i]:
                share = lcm // len(members)
                for j in members:
                    numerators[j] += share
            numerators[i] = 0
            yield numerators, lcm

    return kernel()


def closeness(i: int, j: int, array: AccessProfileArray, t: int) -> Fraction:
    """Sum of weights over every appearing size-t credential."""
    if i == j:
        raise InvalidParameterError("self-closeness is undefined")
    for row in (i, j):
        if not 0 <= row < array.n_rows:
            raise InvalidParameterError(f"row index {row} out of range")
    numerators, lcm = next(_closeness_rows(array, t, [i]))
    return Fraction(numerators[j], lcm)


def closeness_matrix(array: AccessProfileArray, t: int) -> List[List[Fraction]]:
    """Symmetric N x N closeness matrix with a zero diagonal."""
    return [
        [Fraction(a, lcm) for a in numerators]
        for numerators, lcm in _closeness_rows(array, t, range(array.n_rows))
    ]


def local_homogeneity(array: AccessProfileArray, t: int) -> HomogeneityReport:
    """Per-row homogeneity via the neighborhood accumulation shortcut.

    Equal rows share every neighborhood, so each distinct row is scored
    once, for all its copies.  Its C(k, t) neighborhoods, of sizes m
    (counting copies), give sum((m - 1)/m) as one integer fraction over
    L = lcm(m), divided by its degree: the copies of the distinct rows in
    the OR of its group bitmasks, counted per bit plane of the copy
    counts, minus one.  Isolated rows receive the sentinel C(k, t) and are
    listed separately.  The mean is one exact fraction.
    """
    distinct, copies = zip(*_group(array.rows).items())
    weights = list(map(len, copies))
    sizes, masks = [], []
    for _, codes in _codes(
        AccessProfileArray(array.schema, distinct), enumerate_column_sets(array.k, t)
    ):
        keys = list(codes)
        # one size int and one mask per group, shared by its distinct rows;
        # 0 for a lone row
        size_of, mask_of = {}, {}
        for key, group in _group(keys).items():
            size_of[key] = m = sum(map(weights.__getitem__, group))
            mask_of[key] = reduce(or_, map((1).__lshift__, group)) if m > 1 else 0
        sizes.append(list(map(size_of.__getitem__, keys)))
        masks.append(list(map(mask_of.__getitem__, keys)))
    # planes[b]: the distinct rows whose copy count has bit b set
    bits = range(max(weights).bit_length())
    planes = [sum(1 << d for d, w in enumerate(weights) if w >> b & 1) for b in bits]

    sentinel = Fraction(math.comb(array.k, t))
    scores, local, isolated = [], [sentinel] * array.n_rows, set()
    for rows, row_sizes, row_masks in zip(copies, zip(*sizes), zip(*masks)):
        union = reduce(or_, row_masks)
        if union:
            lcm = math.lcm(*row_sizes)
            shares = lcm * len(row_sizes) - sum(map(lcm.__floordiv__, row_sizes))
            degree = sum((union & p).bit_count() << b for b, p in enumerate(planes)) - 1
            score = Fraction(shares, lcm * degree)
            for i in rows:
                local[i] = score
        else:
            score = sentinel
            isolated.update(rows)
        scores.append(score)
    common = math.lcm(*(s.denominator for s in scores))
    total = sum(
        s.numerator * (common // s.denominator) * w for s, w in zip(scores, weights)
    )
    return HomogeneityReport(
        t=t,
        local=tuple(local),
        min=min(scores),
        max=max(scores),
        global_score=Fraction(total, common * array.n_rows),
        isolated=frozenset(isolated),
    )


def global_homogeneity(array: AccessProfileArray, t: int) -> Fraction:
    """Mean of the local homogeneity scores."""
    return local_homogeneity(array, t).global_score


def render_score(value: Fraction | float) -> str:
    """Decimal rendering at 6 significant digits."""
    return f"{float(value):.6g}"


def _vertex_label(array: AccessProfileArray, i: int) -> str:
    if array.row_labels is not None:
        return array.row_labels[i]
    return str(i + 1)


def _hypergraph_pieces(
    array: AccessProfileArray, t: int, format: str
) -> Iterator[str]:
    """`export_hypergraph`'s text in pieces: the vertex block, then one piece
    per edge (and the closing brackets of the JSON)."""
    names = [a.name for a in array.schema.attributes]
    labels = [a.values for a in array.schema.attributes]
    edges = (
        (
            e,
            [names[c] for c in cols],
            [labels[c][v] for c, v in zip(cols, values)],
            members,
        )
        for e, (cols, values, members) in enumerate(_edges(array, t))
    )
    if format == "graph-description-text":
        yield f"vertices: {array.n_rows}\n"
        for e, columns, values, members in edges:
            yield (
                f"edge {e}: {{{','.join(map(str, members))}}} "
                f"columns={','.join(columns)} values={','.join(values)}\n"
            )
        return
    # the text json.dumps(doc, indent=2) gives, without its pure-Python
    # indenting encoder: one join per list
    quote = json.encoder.encode_basestring_ascii

    def listed(items: Iterable[str]) -> str:
        return "[\n        " + ",\n        ".join(items) + "\n      ]"

    vertices = (
        f'{{\n      "id": {i},\n      "label": {quote(_vertex_label(array, i))}'
        "\n    }"
        for i in range(array.n_rows)
    )
    yield (
        '{\n  "vertices": [\n    ' + ",\n    ".join(vertices) + '\n  ],\n  "edges": ['
    )
    sep = "\n    "
    for e, columns, values, members in edges:
        yield (
            f'{sep}{{\n      "id": {e},'
            f'\n      "columns": {listed(map(quote, columns))},'
            f'\n      "values": {listed(map(quote, values))},'
            f'\n      "members": {listed(map(str, members))}\n    }}'
        )
        sep = ",\n    "
    yield "\n  ]\n}"


def export_hypergraph(array: AccessProfileArray, t: int, format: str) -> str:
    """Serialize the multi-hypergraph: row vertices, one edge per
    neighborhood labeled with its column set and credential values."""
    if format not in HYPERGRAPH_FORMATS:
        raise InvalidParameterError(
            f"unknown hypergraph format {format!r}; expected one of {HYPERGRAPH_FORMATS}"
        )
    return "".join(_hypergraph_pieces(array, t, format))
