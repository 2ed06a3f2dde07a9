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
from anonarray.model import _column_masks, _use_bits


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


def _uniform(n, sizes):
    schema = AttributeSchema(
        AttributeDef(f"a{i}", tuple(map(str, range(v)))) for i, v in enumerate(sizes)
    )
    return AccessProfileArray(schema, [tuple(i % v for v in sizes) for i in range(n)])


class TestCountingPath:
    def test_bits_on_an_audit_like_shape(self):
        # the shape of the audit benchmark: 4000 rows, domains of 2 to 5
        array = _uniform(4000, (2, 3, 4, 5, 2, 3, 4, 5, 3, 4))
        assert all(_use_bits(array, cols) for cols in enumerate_column_sets(10, 3))
        count_credentials(array, (0, 1, 2))
        assert "_value_masks" in vars(array)  # built by counting, then cached

    def test_codes_on_a_sparse_shape(self):
        array = _uniform(200, (10,) * 20)
        assert not any(_use_bits(array, cols) for cols in enumerate_column_sets(20, 3))
        count_credentials(array, (0, 1, 2))
        assert "_value_masks" not in vars(array)

    def test_bits_from_four_rows_per_value_tuple(self):
        # 2 * 3 * 4 = 24 value tuples: bits from N = 96 on
        assert _use_bits(_uniform(96, (2, 3, 4)), (0, 1, 2))
        assert not _use_bits(_uniform(95, (2, 3, 4)), (0, 1, 2))

    def test_codes_past_256_value_tuples(self):
        # N is past 4 * 257; a 257-value column would not fit a byte either
        array = _uniform(3000, (16, 16, 1, 257))
        assert _use_bits(array, (0, 1))
        assert not _use_bits(array, (2, 3))

    def test_codes_on_one_column(self):
        array = _uniform(1000, (2, 3))
        assert not _use_bits(array, (0,))
        assert _use_bits(array, (0, 1))

    def test_masks_only_for_the_columns_counted(self):
        # a 300-value column does not fit a byte, and is never made a mask
        array = _uniform(1000, (2, 3, 300))
        table = count_credentials(array, (0, 1))
        assert sorted(array._value_masks) == [0, 1]
        # row i holds (i % 2, i % 3); 1000 = 6 * 166 + 4
        assert table.counts == {
            (0, 0): 167, (0, 1): 166, (0, 2): 167, (1, 0): 167, (1, 1): 167, (1, 2): 166
        }

    def test_value_masks_hold_row_i_at_bit_i(self):
        array = AccessProfileArray(
            AttributeSchema([AttributeDef("a", ("x", "y", "z"))]), [(2,), (0,), (0,)]
        )
        masks = _column_masks(array, 0)
        assert masks == ((0, 0b110), (2, 0b001))
        assert _column_masks(array, 0) is masks  # built once, then cached


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
