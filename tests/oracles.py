"""Independent brute-force reference implementations used only by tests.

These deliberately stay naive: the guarantee oracle enumerates every
possible value combination and scans every row per credential; the
homogeneity oracle works from the pairwise closeness matrix built
straight from the weight definition; `classify` applies the
classification rules to one credential at a time.  None shares code
paths with the library's scanning or accumulation shortcuts.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from anonarray import Credential
from anonarray.constraints import DONT_CARE, HARD, SOFT, UNCONSTRAINED


def classify(credential, constraints):
    """Kind of one credential under the constraint set, the first rule
    that applies: hard when it contains a hard constraint, soft when it is
    a soft constraint, don't-care when it contains a don't-care one."""
    for h in constraints.hard:
        if credential.contains(h):
            return HARD
    if credential in constraints.soft:
        return SOFT
    for d in constraints.dont_care:
        if credential.contains(d):
            return DONT_CARE
    return UNCONSTRAINED


def brute_force_counts(array, cols):
    """Rows per value tuple on `cols`, projecting every row to a tuple."""
    return Counter(tuple(row[c] for c in cols) for row in array.rows)


def brute_force_neighborhoods(array, t):
    """(column set, value tuple, ascending member rows) of every
    neighborhood: for each column set in lexicographic order, the rows
    grouped by their projected tuple, groups in value order."""
    out = []
    for cols in combinations(range(array.schema.k), t):
        groups = {}
        for i, row in enumerate(array.rows):
            groups.setdefault(tuple(row[c] for c in cols), []).append(i)
        out.extend((cols, values, groups[values]) for values in sorted(groups))
    return out


def brute_force_guarantee(array, t, constraints):
    """Minimum row count over all realizable size-t credentials; 0 when a
    row holds a hard constraint of any size, whatever t is."""
    if any(h.contained_in_row(row) for h in constraints.hard for row in array.rows):
        return 0
    schema = array.schema
    counts = []
    for cols in combinations(range(schema.k), t):
        for values in product(*(range(schema.sizes[c]) for c in cols)):
            cred = Credential(tuple(zip(cols, values)))
            count = sum(
                1
                for row in array.rows
                if all(row[c] == v for c, v in zip(cols, values))
            )
            if count and classify(cred, constraints) != DONT_CARE:
                counts.append(count)
    return min(counts) if counts else array.n_rows


def brute_force_closeness_matrix(array, t):
    schema = array.schema
    n = array.n_rows
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for cols in combinations(range(schema.k), t):
        for values in product(*(range(schema.sizes[c]) for c in cols)):
            members = [
                i
                for i, row in enumerate(array.rows)
                if all(row[c] == v for c, v in zip(cols, values))
            ]
            if not members:
                continue
            w = Fraction(1, len(members))
            for i in members:
                for j in members:
                    if i != j:
                        matrix[i][j] += w
    return matrix


def brute_force_local_homogeneity(array, t):
    """Local scores straight from the closeness definition: average of a
    row's non-zero closeness values, sentinel C(k, t) when isolated."""
    import math

    n = array.n_rows
    matrix = brute_force_closeness_matrix(array, t)
    sentinel = Fraction(math.comb(array.schema.k, t))
    local = []
    for i in range(n):
        neighbors = [j for j in range(n) if j != i and matrix[i][j] > 0]
        if neighbors:
            local.append(sum(matrix[i][j] for j in neighbors) / len(neighbors))
        else:
            local.append(sentinel)
    return local


def brute_force_infeasible_credentials(schema, hard, t):
    """Credentials of size <= t contained in no full row that avoids the
    hard constraints.  Exponential; only for small schemas."""
    legal_rows = [
        row
        for row in product(*(range(v) for v in schema.sizes))
        if not any(h.contained_in_row(row) for h in hard)
    ]
    out = []
    for size in range(1, t + 1):
        for cols in combinations(range(schema.k), size):
            for values in product(*(range(schema.sizes[c]) for c in cols)):
                cred = Credential(tuple(zip(cols, values)))
                if not any(cred.contained_in_row(row) for row in legal_rows):
                    out.append(cred)
    return out


def brute_force_short_credentials(array, r_target, t, constraints):
    """Every appearing credential short of r_target, in `validate` order:
    size-t credentials by column set and values, skipping don't-care ones,
    then the soft constraints smaller than t.  Counts come from scanning
    every row per credential."""
    schema = array.schema
    out = []
    for cols in combinations(range(schema.k), t):
        for values in product(*(range(schema.sizes[c]) for c in cols)):
            cred = Credential(tuple(zip(cols, values)))
            count = sum(1 for row in array.rows if cred.contained_in_row(row))
            kind = classify(cred, constraints)
            if kind != DONT_CARE and 0 < count < r_target:
                out.append((cols, cred, count, kind))
    for s in sorted(constraints.soft):
        if len(s) < t:
            count = sum(1 for row in array.rows if s.contained_in_row(row))
            if 0 < count < r_target:
                out.append((None, s, count, SOFT))
    return out


def brute_force_deficiency(rows, schema, constraints, r, t):
    """The shortfall map of `construct._State.deficiency` over `rows`: every
    size-t credential that is neither hard nor don't-care and appears
    fewer than r times (an absent soft one is not short), then every soft
    constraint smaller than t that appears fewer than r times.  Counts
    come from scanning every row per credential."""
    out = {}
    for cols in combinations(range(schema.k), t):
        for values in product(*(range(schema.sizes[c]) for c in cols)):
            cred = Credential(tuple(zip(cols, values)))
            kind = classify(cred, constraints)
            if kind in (HARD, DONT_CARE):
                continue
            count = sum(1 for row in rows if cred.contained_in_row(row))
            if count < r and not (kind == SOFT and count == 0):
                out[(cols, cred)] = r - count
    for s in constraints.soft:
        if len(s) < t:
            count = sum(1 for row in rows if s.contained_in_row(row))
            if 0 < count < r:
                out[(s.attributes, s)] = r - count
    return out


def brute_force_closeness_penalty(rows, row, t):
    """Sum over every size-t column set of c / (c + 1), where c of `rows`
    agree with `row` on that column set."""
    total = Fraction(0)
    for cols in combinations(range(len(row)), t):
        c = sum(1 for other in rows if all(other[a] == row[a] for a in cols))
        total += Fraction(c, c + 1)
    return total
