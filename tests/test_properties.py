import io
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    ConstructionConfig,
    Credential,
    HomogeneityReport,
    InfeasibleError,
    check_feasibility,
    closeness,
    closeness_matrix,
    compute_guarantee,
    construct_padding,
    export_hypergraph,
    global_homogeneity,
    local_homogeneity,
    neighborhoods,
    row_lower_bound,
    validate,
)
from anonarray import model
from anonarray.constraints import HARD, UNCONSTRAINED, _holds_any, complete, kinds_on
from anonarray.construct import _credential_kinds, _drawer, _State
from anonarray.homogeneity import Neighborhood, _edges
from anonarray.io import write_json
from anonarray.model import _DECODE_TABLE_MAX, _coded_counts

from oracles import (
    brute_force_closeness_matrix,
    brute_force_closeness_penalty,
    brute_force_counts,
    brute_force_deficiency,
    brute_force_guarantee,
    brute_force_infeasible_credentials,
    brute_force_local_homogeneity,
    brute_force_neighborhoods,
    brute_force_short_credentials,
    classify,
)


@st.composite
def schemas(draw, max_k=6, max_v=3):
    k = draw(st.integers(min_value=2, max_value=max_k))
    sizes = draw(st.lists(st.integers(2, max_v), min_size=k, max_size=k))
    return AttributeSchema(
        tuple(
            AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(v)))
            for i, v in enumerate(sizes)
        )
    )


@st.composite
def arrays(draw, max_k=6, max_v=3, max_n=32):
    schema = draw(schemas(max_k=max_k, max_v=max_v))
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = tuple(
        tuple(draw(st.integers(0, v - 1)) for v in schema.sizes) for _ in range(n)
    )
    return AccessProfileArray(schema, rows)


@st.composite
def arrays_with_constraints(draw, **kwargs):
    array = draw(arrays(**kwargs))
    schema = array.schema
    t = draw(st.integers(1, schema.k))

    # hard constraints larger than t must still force r = 0
    def credential():
        size = draw(st.integers(1, schema.k))
        cols = draw(
            st.lists(
                st.integers(0, schema.k - 1), min_size=size, max_size=size, unique=True
            )
        )
        return Credential(
            tuple((c, draw(st.integers(0, schema.sizes[c] - 1))) for c in cols)
        )

    kinds = ([], [], [])
    for _ in range(draw(st.integers(0, 4))):
        kinds[draw(st.integers(0, 2))].append(credential())
    hard, soft, dont_care = (frozenset(k) for k in kinds)
    soft = soft - hard
    dont_care = dont_care - hard - soft
    return array, t, ConstraintSet(hard=hard, soft=soft, dont_care=dont_care)


@given(arrays_with_constraints())
@settings(max_examples=150, deadline=None)
def test_guarantee_matches_brute_force(case):
    array, t, constraints = case
    report = compute_guarantee(array, t, constraints)
    assert report.r == brute_force_guarantee(array, t, constraints)


@given(arrays_with_constraints(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_validate_violations_match_brute_force(case, r_target):
    array, t, constraints = case
    got = validate(array, r_target, t, constraints).violations
    assert list(got) == brute_force_short_credentials(array, r_target, t, constraints)


@st.composite
def column_set_runs(draw):
    """An array whose domain sizes differ per column, one-valued ones
    included, and a list of column sets of one size t in 1..k: all of
    them in lexicographic order, a sample in any order (repeats allowed,
    so neighbours need not share a prefix), or each set reversed."""
    k = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    schema = AttributeSchema(
        tuple(
            AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(v)))
            for i, v in enumerate(sizes)
        )
    )
    n = draw(st.integers(1, 24))
    rows = tuple(
        tuple(draw(st.integers(0, v - 1)) for v in sizes) for _ in range(n)
    )
    every = list(itertools.combinations(range(k), draw(st.integers(1, k))))
    sets = draw(
        st.one_of(
            st.just(every),
            st.lists(st.sampled_from(every), max_size=12),
            st.just([cols[::-1] for cols in every]),
        )
    )
    return AccessProfileArray(schema, rows), sets


def _wide_run():
    """k = t = 8 with domains of 3 and 4 values: 4^8 codes, past the
    decode table, and every 7-subset besides."""
    rnd = random.Random(8)
    sizes = (3, 4, 3, 3, 2, 3, 1, 3)
    schema = AttributeSchema(
        tuple(
            AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(v)))
            for i, v in enumerate(sizes)
        )
    )
    rows = tuple(tuple(rnd.randrange(v) for v in sizes) for _ in range(40))
    sets = [tuple(range(8)), *itertools.combinations(range(8), 7)]
    assert max(sizes) ** 8 > _DECODE_TABLE_MAX
    return AccessProfileArray(schema, rows), sets


def _counts_on_path(array, sets, path):
    """`_coded_counts` over `sets`, each checked against the brute force
    with its keys in value-tuple order.  `path` "rule" leaves the choice
    to `model._use_bits`; "codes" and "bits" force that path on every set."""
    if path == "rule":
        got = list(_coded_counts(array, sets))
    else:
        forced = lambda array, cols: path == "bits"  # noqa: E731
        with mock.patch.object(model, "_use_bits", forced):
            got = list(_coded_counts(array, sets))
    assert [cols for cols, _ in got] == list(sets)
    for cols, counts in got:
        expected = brute_force_counts(array, cols)
        assert counts == expected
        assert list(counts) == sorted(expected)


@given(column_set_runs())
@example(_wide_run())
@settings(max_examples=200, deadline=None)
def test_coded_counts_match_projection(case):
    array, sets = case
    _counts_on_path(array, sets, "rule")


@pytest.mark.parametrize("path", ["codes", "bits"])
@given(column_set_runs())
@example(_wide_run())
@settings(max_examples=200, deadline=None)
def test_coded_counts_match_projection_on_each_path(path, case):
    array, sets = case
    _counts_on_path(array, sets, path)


def _array_of(sizes, rows):
    schema = AttributeSchema(
        tuple(
            AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(v)))
            for i, v in enumerate(sizes)
        )
    )
    return AccessProfileArray(schema, rows)


@st.composite
def count_edge_arrays(draw):
    """Domains of 1 to 4 values or of 256, the most a column may hold on
    the bit path; N from 1; and sometimes one row repeated N times."""
    k = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.sampled_from((1, 2, 3, 4, 256)), min_size=k, max_size=k))
    n = draw(st.integers(1, 24))

    def row():
        return tuple(draw(st.integers(0, v - 1)) for v in sizes)

    rows = (row(),) * n if draw(st.booleans()) else tuple(row() for _ in range(n))
    return _array_of(sizes, rows)


@pytest.mark.parametrize("path", ["rule", "codes", "bits"])
@given(count_edge_arrays())
@example(_array_of((1, 256, 2), [(0, 255, 1)]))
@example(_array_of((256, 256, 3), [(255, 0, 2)] * 9))
@example(_array_of((1, 1, 1, 1), [(0, 0, 0, 0)] * 5))
@example(_array_of((256, 2), [(v, v % 2) for v in range(256)] * 2))
@settings(max_examples=150, deadline=None)
def test_counts_at_every_t_match_brute_force(path, array):
    """Every column set at every t = 1..k, in one call, so the prefixes
    kept between sets change length as well as columns."""
    sets = [
        cols
        for t in range(1, array.k + 1)
        for cols in itertools.combinations(range(array.k), t)
    ]
    _counts_on_path(array, sets, path)


@given(column_set_runs())
@example(_wide_run())
@settings(max_examples=100, deadline=None)
def test_neighborhoods_match_brute_force(case):
    """Every t over mixed domain sizes; the wide run's t >= 7 codes pass
    the decode table."""
    array, _ = case
    for t in range(1, array.k + 1):
        expected = brute_force_neighborhoods(array, t)
        assert list(_edges(array, t)) == expected
        assert neighborhoods(array, t) == [
            Neighborhood(cols, Credential(tuple(zip(cols, values))), frozenset(members))
            for cols, values, members in expected
        ]


@given(arrays())
@settings(max_examples=100, deadline=None)
def test_guarantee_non_increasing_in_t(array):
    values = [compute_guarantee(array, t).r for t in range(1, array.k + 1)]
    assert values == sorted(values, reverse=True)


@given(arrays(), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_validate_downward_closure(array, r_target):
    for t in range(array.k, 1, -1):
        if validate(array, r_target, t).ok:
            assert all(validate(array, r_target, s).ok for s in range(1, t))
            break


@given(arrays(max_n=16), st.randoms(use_true_random=False))
@settings(max_examples=75, deadline=None)
def test_permutation_invariance(array, rnd):
    t = rnd.randint(1, array.k)
    row_perm = list(range(array.n_rows))
    col_perm = list(range(array.k))
    rnd.shuffle(row_perm)
    rnd.shuffle(col_perm)
    permuted = AccessProfileArray(
        AttributeSchema(tuple(array.schema.attributes[c] for c in col_perm)),
        tuple(tuple(array.rows[i][c] for c in col_perm) for i in row_perm),
    )
    assert compute_guarantee(permuted, t).r == compute_guarantee(array, t).r
    assert global_homogeneity(permuted, t) == global_homogeneity(array, t)
    # local scores permute with the rows
    original = local_homogeneity(array, t).local
    assert list(local_homogeneity(permuted, t).local) == [
        original[i] for i in row_perm
    ]


@given(arrays(max_n=16))
@settings(max_examples=75, deadline=None)
def test_duplicating_rows_doubles_r(array):
    doubled = AccessProfileArray(array.schema, array.rows + array.rows)
    for t in (1, array.k):
        assert compute_guarantee(doubled, t).r == 2 * compute_guarantee(array, t).r


@st.composite
def duplicated_arrays(draw, max_k=5, max_n=16):
    """A few distinct rows, each repeated, over domains of size 1-3, so
    neighborhoods larger than 2 and isolated rows both occur."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    schema = AttributeSchema(
        tuple(
            AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(v)))
            for i, v in enumerate(sizes)
        )
    )
    distinct = draw(
        st.lists(
            st.tuples(*(st.integers(0, v - 1) for v in sizes)), min_size=1, max_size=4
        )
    )
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=max_n))
    return AccessProfileArray(schema, tuple(rows))


def _binary(*rows):
    """An array of the given 0/1 rows."""
    k = len(rows[0])
    schema = AttributeSchema(
        tuple(AttributeDef(f"a{i + 1}", ("0", "1")) for i in range(k))
    )
    return AccessProfileArray(schema, rows)


@given(
    st.one_of(arrays(max_n=16, max_k=5), duplicated_arrays()).flatmap(
        lambda array: st.tuples(st.just(array), st.integers(1, array.k))
    )
)
# every row identical; duplicates beside one isolated row; duplicates at
# t = k, where only identical rows are neighbours
@example((_binary(*[(0, 1, 1)] * 5), 2))
@example((_binary(*[(0, 0, 0)] * 3, (1, 1, 1)), 2))
@example((_binary(*[(0, 1, 0)] * 2, *[(1, 1, 0)] * 3, (0, 0, 1)), 3))
@settings(max_examples=200, deadline=None)
def test_local_homogeneity_matches_brute_force(case):
    array, t = case
    expected = brute_force_local_homogeneity(array, t)
    sentinel = math.comb(array.k, t)
    assert local_homogeneity(array, t) == HomogeneityReport(
        t=t,
        local=tuple(expected),
        min=min(expected),
        max=max(expected),
        global_score=sum(expected, Fraction(0)) / array.n_rows,
        isolated=frozenset(i for i, x in enumerate(expected) if x == sentinel),
    )


@given(
    st.one_of(arrays(max_n=16, max_k=5), duplicated_arrays()).flatmap(
        lambda array: st.tuples(
            st.just(array),
            st.integers(1, array.k),
            st.integers(0, array.n_rows - 1),
            st.integers(0, array.n_rows - 1),
        )
    )
)
# every row identical; duplicates beside one isolated row; duplicates at
# t = k, where only identical rows are neighbours
@example((_binary(*[(0, 1, 1)] * 5), 2, 0, 4))
@example((_binary(*[(0, 0, 0)] * 3, (1, 1, 1)), 2, 3, 0))
@example((_binary(*[(0, 1, 0)] * 2, *[(1, 1, 0)] * 3, (0, 0, 1)), 3, 2, 4))
@settings(max_examples=200, deadline=None)
def test_closeness_matches_brute_force(case):
    """The matrix is the oracle's, and closeness(i, j) is its [i][j]."""
    array, t, i, j = case
    matrix = closeness_matrix(array, t)
    assert matrix == brute_force_closeness_matrix(array, t)
    if i != j:
        assert closeness(i, j, array, t) == matrix[i][j]


@given(arrays(max_n=16, max_k=5))
@settings(max_examples=75, deadline=None)
def test_local_bounds(array):
    t = min(2, array.k)
    rep = local_homogeneity(array, t)
    cap = Fraction(math.comb(array.k, t))
    for i, score in enumerate(rep.local):
        assert 0 <= score <= cap
        # only the isolated-row sentinel reaches C(k, t) exactly
        assert (score == cap) == (i in rep.isolated)
    assert rep.global_score == sum(rep.local, Fraction(0)) / array.n_rows


@given(arrays_with_constraints(max_k=4, max_n=8))
@settings(max_examples=75, deadline=None)
def test_classify_closed_under_hard_supersets(case):
    array, t, constraints = case
    schema = array.schema
    rnd = random.Random(0)
    for h in constraints.hard:
        covered = set(h.attributes)
        free = [a for a in range(schema.k) if a not in covered]
        if not free:
            continue
        extra = rnd.choice(free)
        sup = Credential(h.pairs + ((extra, rnd.randrange(schema.sizes[extra])),))
        assert classify(sup, constraints) == HARD


@st.composite
def constraint_systems(draw):
    """A small schema, t, and constraints of all three kinds at every size
    1..k, so some of each kind are larger than t."""
    schema = draw(schemas(max_k=4, max_v=3))
    t = draw(st.integers(1, schema.k))

    def credential(size):
        cols = draw(
            st.lists(
                st.integers(0, schema.k - 1), min_size=size, max_size=size, unique=True
            )
        )
        return Credential(
            tuple((c, draw(st.integers(0, schema.sizes[c] - 1))) for c in cols)
        )

    def some(most, high):
        n = draw(st.integers(0, most))
        return {credential(draw(st.integers(1, high))) for _ in range(n)}

    hard = some(6, schema.k)
    soft = some(2, schema.k) - hard
    dont_care = some(2, schema.k) - hard - soft
    return schema, t, ConstraintSet(hard=hard, soft=soft, dont_care=dont_care)


@given(constraint_systems(), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_kinds_on_matches_classify(case, r, rnd):
    schema, t, constraints = case
    unconstrained = {}
    for size in range(1, schema.k + 1):
        for cols in itertools.combinations(range(schema.k), size):
            kinds = kinds_on(schema, constraints, cols)
            tuples = list(itertools.product(*(range(schema.sizes[c]) for c in cols)))
            # only constrained tuples of this column set are in the map
            assert kinds.keys() <= set(tuples)
            assert UNCONSTRAINED not in kinds.values()
            expected = [
                classify(Credential(tuple(zip(cols, values))), constraints)
                for values in tuples
            ]
            assert [kinds.get(values, UNCONSTRAINED) for values in tuples] == expected
            unconstrained[cols] = expected.count(UNCONSTRAINED)
            # restricted to some of the tuples, as a scan passes the appearing ones
            among = rnd.sample(tuples, rnd.randint(0, len(tuples)))
            assert kinds_on(schema, constraints, cols, among) == {
                values: kind
                for values, kind in zip(tuples, expected)
                if values in among and kind != UNCONSTRAINED
            }
    # at least r: an array that meets r has r rows
    assert row_lower_bound(schema, constraints, r, t) == r * max(
        1, *(n for cols, n in unconstrained.items() if len(cols) == t)
    )


@st.composite
def component_systems(draw):
    """Up to six attributes, t, and hard constraints of every size inside
    two disjoint attribute blocks, so the hard constraints form two or more
    components; the attributes outside both blocks are free.  Soft and
    don't-care constraints of size <= t may span anything."""
    schema = draw(schemas(max_k=6, max_v=3))
    t = draw(st.integers(1, schema.k))
    order = draw(st.permutations(range(schema.k)))
    cut = draw(st.integers(1, schema.k - 1))
    end = draw(st.integers(cut + 1, schema.k))

    def credential(attrs, size):
        cols = draw(
            st.lists(st.sampled_from(attrs), min_size=size, max_size=size, unique=True)
        )
        return Credential(
            tuple((c, draw(st.integers(0, schema.sizes[c] - 1))) for c in cols)
        )

    def some(most, attrs, high):
        n = draw(st.integers(0, most))
        return {credential(attrs, draw(st.integers(1, high))) for _ in range(n)}

    hard = set()
    for block in (order[:cut], order[cut:end]):
        hard |= some(4, block, len(block))
    everything = list(range(schema.k))
    soft = some(2, everything, t) - hard
    dont_care = some(2, everything, t) - hard - soft
    return schema, t, ConstraintSet(hard=hard, soft=soft, dont_care=dont_care)


def _walk_key(credential):
    """(size, column set, values): the order in which credentials are walked."""
    values = tuple(v for _, v in credential.pairs)
    return len(credential), credential.attributes, values


@given(st.one_of(constraint_systems(), component_systems()))
@settings(max_examples=300, deadline=None)
def test_feasibility_matches_brute_force(case):
    schema, t, constraints = case
    infeasible = set(brute_force_infeasible_credentials(schema, constraints.hard, t))
    minimal = {
        c for c in infeasible if not any(c != d and c.contains(d) for d in infeasible)
    }
    report = check_feasibility(schema, constraints, t)
    assert report.implicit_hard == minimal - constraints.hard
    legal = any(
        not any(h.contained_in_row(row) for h in constraints.hard)
        for row in itertools.product(*(range(v) for v in schema.sizes))
    )
    # with no legal row every credential is unrealizable; none is a witness
    witnesses = [c for c, _ in report.witnesses]
    assert witnesses == sorted(
        (
            c
            for c in infeasible
            if legal and len(c) == t and classify(c, constraints) == UNCONSTRAINED
        ),
        key=_walk_key,
    )
    # each reason names the first derived credential the witness contains
    derived = sorted(report.implicit_hard, key=_walk_key)
    for c, reason in report.witnesses:
        cause = next(d for d in derived if c.contains(d))
        assert reason.endswith(f"(implied by {cause.render(schema)})")
    assert report.feasible == (legal and not report.witnesses)


@given(constraint_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_complete_is_first_legal_row_of_product(case, data):
    schema, _, constraints = case
    attrs = data.draw(st.sets(st.integers(0, schema.k - 1)))
    fixed = {a: data.draw(st.integers(0, schema.sizes[a] - 1)) for a in attrs}
    free = [a for a in range(schema.k) if a not in fixed]
    expected = None
    for combo in itertools.product(*(range(schema.sizes[a]) for a in free)):
        cells = {**fixed, **dict(zip(free, combo))}
        row = tuple(cells[a] for a in range(schema.k))
        if not any(h.contained_in_row(row) for h in constraints.hard):
            expected = row
            break
    assert complete(schema, constraints.hard, fixed) == expected


@st.composite
def credentials_and_rows(draw):
    """A schema, 0-8 credentials of sizes 1..k (some sharing an attribute
    set), and 1-10 full rows over it."""
    schema = draw(schemas())

    def cell(a):
        return draw(st.integers(0, schema.sizes[a] - 1))

    def credential():
        size = draw(st.integers(1, schema.k))
        cols = draw(st.permutations(range(schema.k)))[:size]
        return Credential(tuple((a, cell(a)) for a in cols))

    credentials = [credential() for _ in range(draw(st.integers(0, 8)))]
    rows = [
        tuple(map(cell, range(schema.k))) for _ in range(draw(st.integers(1, 10)))
    ]
    # a row that holds some credential, so "yes" answers are drawn often
    if credentials:
        cred = draw(st.sampled_from(credentials))
        row = list(draw(st.sampled_from(rows)))
        for a, v in cred.pairs:
            row[a] = v
        rows.append(tuple(row))
    return credentials, rows


@given(credentials_and_rows())
@settings(max_examples=200, deadline=None)
def test_holds_any_matches_contained_in_row(case):
    credentials, rows = case
    holds = _holds_any(credentials)
    for row in rows:
        assert holds(row) == any(c.contained_in_row(row) for c in credentials)


@given(constraint_systems(), st.integers(0, 3))
@settings(max_examples=75, deadline=None)
def test_feasible_iff_construct_succeeds(case, seed):
    schema, t, constraints = case
    feasible = check_feasibility(schema, constraints, t).feasible
    config = ConstructionConfig(r_target=2, t=t, seed=seed, restarts=0)
    try:
        result = construct_padding(None, constraints, config, schema=schema)
    except InfeasibleError:
        assert not feasible
        return
    assert feasible
    assert validate(result.array, 2, t, constraints).ok


@st.composite
def padding_cases(draw):
    """A small schema, t >= 2, hard constraints, soft constraints of size
    below t and of size t, don't-care constraints, r, a sequence of rows
    that avoid every hard constraint, and a few candidate rows."""
    schema = draw(schemas(max_k=5, max_v=3))
    t = draw(st.integers(2, schema.k))

    def credential(size):
        cols = draw(
            st.lists(
                st.integers(0, schema.k - 1), min_size=size, max_size=size, unique=True
            )
        )
        return Credential(
            tuple((c, draw(st.integers(0, schema.sizes[c] - 1))) for c in cols)
        )

    def some(low, high):
        """Up to two credentials of sizes low..high."""
        n = draw(st.integers(0, 2))
        return {credential(draw(st.integers(low, high))) for _ in range(n)}

    hard = some(2, t)
    soft = some(1, t - 1) | some(t, t)
    dont_care = some(1, t)
    soft -= hard
    dont_care -= hard | soft
    constraints = ConstraintSet(hard=hard, soft=soft, dont_care=dont_care)
    assume(check_feasibility(schema, constraints, t).feasible)
    legal = [
        row
        for row in itertools.product(*(range(v) for v in schema.sizes))
        if not any(h.contained_in_row(row) for h in hard)
    ]
    assume(legal)
    rows = draw(st.lists(st.sampled_from(legal), min_size=1, max_size=12))
    candidates = draw(st.lists(st.sampled_from(legal), min_size=1, max_size=4))
    return schema, t, draw(st.integers(1, 4)), constraints, rows, candidates


# the weights the CLI is most often given, then any in [0, 1]
WEIGHTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
    st.fractions(0, 1),
)


def check_ranking(state, rows, expected, candidates, weight, t):
    """Every candidate's exact score, recovered from its integer key, is the
    number of deficient credentials it holds less weight times its
    closeness penalty over `rows`; the row picked is the oracle's smallest
    (-score, row)."""
    scores = [
        sum(1 for _, cred in expected if cred.contained_in_row(cand))
        - weight * brute_force_closeness_penalty(rows, cand, t)
        for cand in candidates
    ]
    keys, scale, offset = state.keys(candidates, weight)
    assert scale > 0
    assert [Fraction(key - offset, scale) for key in keys] == scores
    assert state.best(candidates, weight) == min(
        zip([-score for score in scores], candidates)
    )[1]


@given(padding_cases(), WEIGHTS)
@settings(max_examples=100, deadline=None)
def test_incremental_shortfall_matches_brute_force(case, weight):
    schema, t, r, constraints, rows, candidates = case
    kinds = _credential_kinds(schema, constraints, t)
    state = _State(kinds, constraints, t, r, None)
    for n, row in enumerate(rows, start=1):
        state.append(row)
        expected = brute_force_deficiency(rows[:n], schema, constraints, r, t)
        assert state.deficiency() == expected
        assert state.total == sum(expected.values())
        assert state.targets == sorted(
            (cols, tuple(v for _, v in cred.pairs)) for cols, cred in expected
        )
        check_ranking(state, rows[:n], expected, candidates, weight, t)
    array = AccessProfileArray(schema, rows)
    # a state counted from the whole array at once agrees with the appended one
    seeded = _State(kinds, constraints, t, r, array)
    assert seeded.deficiency() == expected
    assert seeded.rows == state.rows
    assert seeded.counts == state.counts
    assert seeded.shortfalls == state.shortfalls
    assert (seeded.total, seeded.targets) == (state.total, state.targets)
    # a copy appends on its own, as a state counted from its rows would
    twin = seeded.copy()
    twin.append(rows[0])
    grown = _State(kinds, constraints, t, r, AccessProfileArray(schema, [*rows, rows[0]]))
    for one, other in ((seeded, state), (twin, grown)):
        assert (one.rows, one.counts, one.shortfalls) == (
            other.rows, other.counts, other.shortfalls
        )
        assert (one.total, one.targets) == (other.total, other.targets)
        assert one.soft_zero() == other.soft_zero()


@given(padding_cases(), st.integers(1000, 1100), WEIGHTS)
@settings(max_examples=15, deadline=None)
def test_ranking_matches_brute_force_over_a_heavy_base(case, copies, weight):
    """One row repeated a thousand times or more besides the drawn rows: the
    counts met span 0 to over 1000 (the first candidate meets the heaviest),
    so the keys' lcm is large."""
    schema, t, r, constraints, rows, candidates = case
    rows, candidates = [rows[0]] * copies + rows, [rows[0], *candidates]
    state = _State(
        _credential_kinds(schema, constraints, t),
        constraints,
        t,
        r,
        AccessProfileArray(schema, rows),
    )
    expected = brute_force_deficiency(rows, schema, constraints, r, t)
    assert state.deficiency() == expected
    check_ranking(state, rows, expected, candidates, weight, t)


@given(st.integers(0, 2**32), st.lists(st.integers(1, 9), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_draws_follow_randrange(seed, sizes):
    """Construct's draws are rng.randrange's: the target pick, made by
    rng.choice, for each n, and the free cells of a row over mixed domain
    sizes, in column order; the generator ends in the same state."""
    drawn, reference = random.Random(seed), random.Random(seed)
    for n in [*range(1, 10), *sizes, 1000]:
        assert drawn.choice(range(n)) == reference.randrange(n)
    assert drawn.getstate() == reference.getstate()
    rnd = random.Random(seed)
    cols = tuple(sorted(rnd.sample(range(len(sizes)), rnd.randint(0, len(sizes)))))
    values = tuple(rnd.randrange(sizes[c]) for c in cols)
    fixed = dict(zip(cols, values))
    for _ in range(3):
        row = _drawer(tuple(sizes), cols)(drawn, values)
        assert row == tuple(
            fixed[c] if c in fixed else reference.randrange(n)
            for c, n in enumerate(sizes)
        )
        assert drawn.getstate() == reference.getstate()


# quotes, backslashes, control characters and non-ASCII, besides any text
AWKWARD_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e'),
        st.characters(),
    ),
    min_size=1,
    max_size=6,
)


@given(arrays(max_k=4, max_n=10), st.data())
@settings(max_examples=100, deadline=None)
def test_hypergraph_json_matches_json_dumps(array, data):
    """The structured-json export is json.dumps(doc, indent=2) of the
    document built from `neighborhoods`, whatever the labels hold."""
    n, sizes = array.n_rows, array.schema.sizes

    def distinct(size):
        return data.draw(
            st.lists(AWKWARD_TEXT, min_size=size, max_size=size, unique=True)
        )

    schema = AttributeSchema(
        tuple(
            AttributeDef(name, distinct(v))
            for name, v in zip(distinct(len(sizes)), sizes)
        )
    )
    labels = data.draw(st.none() | st.lists(AWKWARD_TEXT, min_size=n, max_size=n))
    array = AccessProfileArray(schema, array.rows, labels)
    t = data.draw(st.integers(1, array.k))
    attrs = schema.attributes
    doc = {
        "vertices": [
            {"id": i, "label": str(i + 1) if labels is None else labels[i]}
            for i in range(n)
        ],
        "edges": [
            {
                "id": e,
                "columns": [attrs[c].name for c in hood.column_set],
                "values": [attrs[c].values[v] for c, v in hood.credential.pairs],
                "members": sorted(hood.members),
            }
            for e, hood in enumerate(neighborhoods(array, t))
        ],
    }
    assert export_hypergraph(array, t, "structured-json") == json.dumps(doc, indent=2)


JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e'),
        st.characters(exclude_categories=()),  # control characters too
        st.characters(categories=["Cs"]),  # lone surrogates
    ),
    max_size=8,
)
JSON_INTS = st.integers(-(2**200), 2**200)
JSON_DOCS = st.recursive(
    st.one_of(JSON_TEXT, JSON_INTS, st.booleans(), st.none(), st.floats()),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        # lists of one kind, which the writer joins (but never booleans)
        st.lists(JSON_TEXT, max_size=5),
        st.lists(JSON_INTS, max_size=5),
        st.lists(st.booleans(), max_size=5),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


def as_given(value, rnd):
    """`value` with each of its lists given as a list, a tuple or an iterator."""
    if isinstance(value, dict):
        return {key: as_given(v, rnd) for key, v in value.items()}
    if isinstance(value, list):
        return rnd.choice((list, tuple, iter))([as_given(v, rnd) for v in value])
    return value


@given(
    st.one_of(JSON_DOCS, st.dictionaries(JSON_TEXT, JSON_DOCS, max_size=6)),
    st.randoms(use_true_random=False),
)
@example({}, random.Random(0))
@example([], random.Random(0))
@example({"a": [], "b": {}, "c": [[], {}]}, random.Random(1))
@example({"rows": [["0.5", "1"], ["1", "0.5"]], "ids": [1, -2]}, random.Random(2))
@example([[float("nan"), float("inf"), -float("inf"), -0.0, 1e300]], random.Random(3))
@settings(max_examples=200, deadline=None)
def test_write_json_matches_json_dumps(doc, rnd):
    out = io.StringIO()
    write_json(as_given(doc, rnd), out)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
