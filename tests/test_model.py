import math

import pytest

from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    Credential,
    InvalidParameterError,
    count_credentials,
    credential_of_row,
    enumerate_column_sets,
)


def binomial_recursive(n, k):
    # factorial-free oracle for C(n, k)
    if k in (0, n):
        return 1
    if k < 0 or k > n:
        return 0
    return binomial_recursive(n - 1, k - 1) + binomial_recursive(n - 1, k)


class TestSchema:
    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            AttributeSchema((AttributeDef("a", ("0",)), AttributeDef("a", ("1",))))

    def test_duplicate_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            AttributeDef("a", ("x", "x"))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            AttributeDef("", ("x",))

    def test_single_valued_attribute_accepted_but_flagged(self):
        schema = AttributeSchema(
            (AttributeDef("a", ("only",)), AttributeDef("b", ("0", "1")))
        )
        assert schema.trivial_attributes() == (0,)


class TestArray:
    def test_cell_out_of_domain(self, binary3_schema):
        with pytest.raises(InvalidParameterError):
            AccessProfileArray(binary3_schema, ((0, 0, 2),))

    def test_wrong_row_width(self, binary3_schema):
        with pytest.raises(InvalidParameterError):
            AccessProfileArray(binary3_schema, ((0, 0),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first bad cell in row order, not in column order
            (
                ((0, 0, 0), (0, 1, 2), (3, 0, 0)),
                "cell (1, 2) index 2 outside domain of 'a3'",
            ),
            (((0, 0, 0), (0, -1, 5)), "cell (1, 1) index -1 outside domain of 'a2'"),
            # a bad cell before a row of the wrong width is reported first
            (((0, 0, 0), (0, 2, 0), (0, 0)), "cell (1, 1) index 2 outside domain of 'a2'"),
            (((0, 0, 0), (0, 0), (0, 2, 0)), "row 1 has 2 cells, expected 3"),
            (((0, 0, 0), (0, 0, 0, 0)), "row 1 has 4 cells, expected 3"),
        ],
    )
    def test_first_fault_named_exactly(self, binary3_schema, rows, message):
        with pytest.raises(InvalidParameterError) as exc:
            AccessProfileArray(binary3_schema, rows)
        assert str(exc.value) == message

    def test_duplicate_rows_permitted(self, binary3_schema):
        arr = AccessProfileArray(binary3_schema, ((0, 0, 0), (0, 0, 0)))
        assert arr.n_rows == 2


class TestCredential:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(InvalidParameterError):
            Credential(((0, 0), (0, 1)))

    def test_pairs_sorted_by_attribute(self):
        c = Credential(((2, 1), (0, 0)))
        assert c.pairs == ((0, 0), (2, 1))

    def test_containment(self):
        big = Credential(((0, 0), (1, 1), (2, 0)))
        assert big.contains(Credential(((1, 1),)))
        assert not big.contains(Credential(((1, 0),)))


class TestEnumerateColumnSets:
    def test_k3_t2(self):
        assert list(enumerate_column_sets(3, 2)) == [(0, 1), (0, 2), (1, 2)]

    def test_k4_t2_count(self):
        assert len(list(enumerate_column_sets(4, 2))) == 6

    def test_t_equals_k(self):
        assert list(enumerate_column_sets(5, 5)) == [(0, 1, 2, 3, 4)]

    def test_t_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            enumerate_column_sets(3, 0)
        with pytest.raises(InvalidParameterError):
            enumerate_column_sets(3, 4)

    @pytest.mark.parametrize("k,t", [(4, 2), (5, 3), (6, 4), (6, 1)])
    def test_size_matches_recursive_oracle(self, k, t):
        sets = list(enumerate_column_sets(k, t))
        assert len(sets) == len(set(sets)) == binomial_recursive(k, t)
        assert sets == sorted(sets)
        assert math.comb(k, t) == binomial_recursive(k, t)


class TestCounting:
    def test_array_b_role_job(self, array_b, university_schema):
        table = count_credentials(array_b, (0, 1))
        # (faculty, instructor)=4, (graduate, instructor)=2,
        # (graduate, grader)=2, (undergraduate, grader)=4
        assert table.counts == {(0, 0): 4, (1, 0): 2, (1, 1): 2, (2, 1): 4}

    def test_array_a_cs_grader(self, array_a):
        table = count_credentials(array_a, (1, 2))
        assert table.counts[(1, 0)] == 1  # (grader, CS)

    def test_counts_sum_to_n(self, array_b):
        for cols in enumerate_column_sets(array_b.k, 2):
            table = count_credentials(array_b, cols)
            assert sum(table.counts.values()) == array_b.n_rows

    def test_single_valued_column_totals_n(self):
        schema = AttributeSchema(
            (AttributeDef("fixed", ("x",)), AttributeDef("b", ("0", "1")))
        )
        arr = AccessProfileArray(schema, ((0, 0), (0, 1), (0, 1)))
        table = count_credentials(arr, (0, 1))
        assert sum(table.counts.values()) == 3

    def test_single_column_keys_are_1_tuples(self, array_a):
        assert count_credentials(array_a, (1,)).counts == {(0,): 4, (1,): 2}

    def test_invalid_column(self, array_a):
        with pytest.raises(InvalidParameterError):
            count_credentials(array_a, (0, 9))

    def test_empty_column_set(self, array_a):
        with pytest.raises(InvalidParameterError):
            count_credentials(array_a, ())


class TestCredentialOfRow:
    def test_array_a_row0(self, array_a):
        c = credential_of_row(array_a, 0, (0, 2))
        assert c.pairs == ((0, 0), (2, 0))  # (faculty, CS)

    def test_full_row(self, full_factorial):
        c = credential_of_row(full_factorial, 5, (0, 1, 2))
        assert c.pairs == ((0, 1), (1, 0), (2, 1))

    def test_fig_low_homogeneity_row0(self, full_factorial):
        c = credential_of_row(full_factorial, 0, (0, 1))
        assert c.pairs == ((0, 0), (1, 0))

    def test_appears_in_counts(self, array_b):
        for cols in enumerate_column_sets(array_b.k, 2):
            table = count_credentials(array_b, cols)
            for i in range(array_b.n_rows):
                c = credential_of_row(array_b, i, cols)
                assert table.counts[tuple(v for _, v in c.pairs)] >= 1

    def test_row_out_of_range(self, array_a):
        with pytest.raises(InvalidParameterError):
            credential_of_row(array_a, 99, (0, 1))
