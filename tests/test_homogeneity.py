import json
import math
from fractions import Fraction

import pytest

from anonarray import (
    AccessProfileArray,
    InvalidParameterError,
    closeness,
    closeness_matrix,
    compute_guarantee,
    export_hypergraph,
    global_homogeneity,
    local_homogeneity,
    neighborhoods,
    weight,
)
from anonarray.homogeneity import render_score

from oracles import brute_force_closeness_matrix, brute_force_local_homogeneity


class TestNeighborhoods:
    def test_two_groups_structure(self, two_groups):
        nbs = neighborhoods(two_groups, 2)
        assert len(nbs) == 6
        small = [n for n in nbs if n.members == frozenset({0, 1})]
        large = [n for n in nbs if n.members == frozenset(range(2, 8))]
        assert len(small) == 3
        assert len(large) == 3

    def test_full_factorial_pairs(self, full_factorial):
        nbs = neighborhoods(full_factorial, 2)
        assert len(nbs) == 12
        assert all(len(n.members) == 2 for n in nbs)

    def test_single_row(self, binary3_schema):
        arr = AccessProfileArray(binary3_schema, ((1, 0, 1),))
        nbs = neighborhoods(arr, 2)
        assert len(nbs) == math.comb(3, 2)
        assert all(n.members == frozenset({0}) for n in nbs)

    def test_multi_edges_preserved(self, two_groups):
        # same member set, different credentials: distinct records
        nbs = [n for n in neighborhoods(two_groups, 2) if n.members == frozenset({0, 1})]
        assert len({(n.column_set, n.credential) for n in nbs}) == 3


    @pytest.mark.parametrize("t", [0, -1, 4])
    @pytest.mark.parametrize(
        "score",
        [
            neighborhoods,
            closeness_matrix,
            local_homogeneity,
            lambda array, t: export_hypergraph(array, t, "structured-json"),
        ],
    )
    def test_t_out_of_range(self, full_factorial, score, t):
        with pytest.raises(InvalidParameterError, match=f"^t={t} out of range for k=3$"):
            score(full_factorial, t)


class TestWeight:
    def test_pair_neighborhood(self, full_factorial):
        nb = next(
            n for n in neighborhoods(full_factorial, 2) if 0 in n.members
        )
        i, j = sorted(nb.members)
        assert weight(i, j, nb) == Fraction(1, 2)

    def test_large_neighborhood(self, two_groups):
        nb = next(
            n for n in neighborhoods(two_groups, 2) if n.members == frozenset(range(2, 8))
        )
        assert weight(2, 3, nb) == Fraction(1, 6)

    def test_non_members(self, two_groups):
        nb = next(
            n for n in neighborhoods(two_groups, 2) if n.members == frozenset({0, 1})
        )
        assert weight(0, 2, nb) == 0

    def test_self_weight_undefined(self, two_groups):
        nb = neighborhoods(two_groups, 2)[0]
        with pytest.raises(InvalidParameterError):
            weight(1, 1, nb)


class TestCloseness:
    def test_two_groups_small_pair(self, two_groups):
        assert closeness(0, 1, two_groups, 2) == Fraction(3, 2)

    def test_full_factorial_adjacent(self, full_factorial):
        # rows 0 and 1 share exactly the pair credential (a1=0, a2=0)
        assert closeness(0, 1, full_factorial, 2) == Fraction(1, 2)

    def test_disjoint_groups(self, two_groups):
        assert closeness(0, 3, two_groups, 2) == 0

    @pytest.mark.parametrize("i,j,bad", [(0, 99, 99), (-1, 0, -1), (8, 1, 8)])
    def test_row_out_of_range(self, two_groups, i, j, bad):
        with pytest.raises(InvalidParameterError, match=f"^row index {bad} out of range$"):
            closeness(i, j, two_groups, 2)

    def test_matrix_symmetric_zero_diagonal(self, fractional_replicated):
        m = closeness_matrix(fractional_replicated, 2)
        n = fractional_replicated.n_rows
        for i in range(n):
            assert m[i][i] == 0
            for j in range(n):
                assert m[i][j] == m[j][i]

    def test_matrix_matches_brute_force(self, two_groups):
        assert closeness_matrix(two_groups, 2) == brute_force_closeness_matrix(
            two_groups, 2
        )


class TestLocalHomogeneity:
    def test_low_homogeneity_table_row(self, full_factorial):
        rep = local_homogeneity(full_factorial, 2)
        assert set(rep.local) == {Fraction(1, 2)}
        assert rep.global_score == Fraction(1, 2)

    def test_medium_homogeneity_table_row(self, fractional_replicated):
        rep = local_homogeneity(fractional_replicated, 2)
        assert set(rep.local) == {Fraction(7, 12)}
        assert rep.global_score == Fraction(7, 12)

    def test_high_homogeneity_table_row(self, two_groups):
        rep = local_homogeneity(two_groups, 2)
        assert (rep.min, rep.max, rep.global_score) == (
            Fraction(1, 2),
            Fraction(3, 2),
            Fraction(3, 4),
        )
        assert rep.local[0] == rep.local[1] == Fraction(3, 2)
        assert all(rep.local[i] == Fraction(1, 2) for i in range(2, 8))

    def test_tight_clique_closed_form(self, binary3_schema):
        # two identical rows plus an unrelated pair: the clique of size r=2
        # shares all C(k, t) credentials, scoring C(k, t)/r
        arr = AccessProfileArray(
            binary3_schema, ((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1))
        )
        rep = local_homogeneity(arr, 2)
        assert rep.local[0] == Fraction(math.comb(3, 2), 2)

    def test_identical_rows_closed_form(self, binary3_schema):
        n = 5
        arr = AccessProfileArray(binary3_schema, ((1, 0, 1),) * n)
        rep = local_homogeneity(arr, 2)
        expected = Fraction(math.comb(3, 2), n)
        assert set(rep.local) == {expected}
        assert global_homogeneity(arr, 2) == expected

    def test_isolated_row_sentinel(self, binary3_schema):
        arr = AccessProfileArray(
            binary3_schema, ((0, 0, 0), (1, 1, 1), (1, 1, 1))
        )
        rep = local_homogeneity(arr, 2)
        assert rep.isolated == frozenset({0})
        assert rep.local[0] == Fraction(math.comb(3, 2))

    def test_shortcut_equals_definition(self, two_groups, fractional_replicated):
        for arr in (two_groups, fractional_replicated):
            assert list(local_homogeneity(arr, 2).local) == (
                brute_force_local_homogeneity(arr, 2)
            )

    def test_bound_against_guarantee(self, halfspace_array):
        r = compute_guarantee(halfspace_array, 2).r
        rep = local_homogeneity(halfspace_array, 2)
        bound = Fraction(math.comb(halfspace_array.k, 2), r)
        for i, score in enumerate(rep.local):
            if i not in rep.isolated:
                assert score <= bound

    def test_render_six_significant_digits(self):
        assert render_score(Fraction(7, 12)) == "0.583333"
        assert render_score(Fraction(1, 2)) == "0.5"
        assert render_score(Fraction(3, 4)) == "0.75"


class TestExportHypergraph:
    def test_json_low_homogeneity(self, full_factorial):
        doc = json.loads(export_hypergraph(full_factorial, 2, "structured-json"))
        assert len(doc["vertices"]) == 8
        assert len(doc["edges"]) == 12
        assert all(len(e["members"]) == 2 for e in doc["edges"])
        # every vertex has degree C(k, t)
        degree = {v["id"]: 0 for v in doc["vertices"]}
        for e in doc["edges"]:
            for m in e["members"]:
                degree[m] += 1
        assert set(degree.values()) == {math.comb(3, 2)}

    def test_json_two_groups(self, two_groups):
        doc = json.loads(export_hypergraph(two_groups, 2, "structured-json"))
        sizes = sorted(len(e["members"]) for e in doc["edges"])
        assert sizes == [2, 2, 2, 6, 6, 6]

    def test_text_format(self, binary3_schema):
        arr = AccessProfileArray(binary3_schema, ((0, 1, 0),))
        text = export_hypergraph(arr, 2, "graph-description-text")
        lines = text.strip().splitlines()
        assert lines[0] == "vertices: 1"
        assert len(lines) == 1 + math.comb(3, 2)
        assert lines[1].startswith("edge 0: {0} columns=a1,a2 values=")

    def test_unknown_format(self, full_factorial):
        with pytest.raises(InvalidParameterError):
            export_hypergraph(full_factorial, 2, "graphml")
