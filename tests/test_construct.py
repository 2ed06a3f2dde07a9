import math
from fractions import Fraction

import pytest

import anonarray.construct as construct_mod
from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    BudgetExceededError,
    ConstraintSet,
    ConstructionConfig,
    Credential,
    InfeasibleError,
    InvalidParameterError,
    compute_guarantee,
    construct_padding,
    global_homogeneity,
    row_lower_bound,
    validate,
)
from anonarray.constraints import kinds_on
from anonarray.construct import _credential_kinds, _State
from anonarray.io import load_constraints

from conftest import FIXTURES, cred


class TestConfig:
    def test_r_target_minimum(self):
        with pytest.raises(InvalidParameterError):
            ConstructionConfig(r_target=1, t=2)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"candidates_per_row": 0}, "candidates_per_row must be at least 1"),
            ({"restarts": -1}, "restarts must be non-negative"),
        ],
    )
    def test_counts_out_of_range(self, field, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            ConstructionConfig(r_target=2, t=2, **field)

    def test_weight_range(self):
        with pytest.raises(InvalidParameterError):
            ConstructionConfig(r_target=2, t=2, homogeneity_weight=Fraction(3, 2))

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(InvalidParameterError, match=r"^homogeneity_weight must be in \[0, 1\]$"):
            ConstructionConfig(r_target=2, t=2, homogeneity_weight=w)


def state_deficiency(array, r_target, t, constraints):
    """The shortfall map of a construction state counted from `array`."""
    kinds = _credential_kinds(array.schema, constraints, t)
    return _State(kinds, constraints, t, r_target, array).deficiency()


class TestDeficiency:
    def test_array_a_shortfalls(
        self, array_a, university_constraints, university_schema
    ):
        defic = state_deficiency(array_a, 2, 2, university_constraints)
        cs_grader = cred(university_schema, ("Job", "grader"), ("Department", "CS"))
        assert defic[(cs_grader.attributes, cs_grader)] == 1
        fac_spring = cred(university_schema, ("Role", "faculty"), ("Semester", "Spring"))
        assert defic[(fac_spring.attributes, fac_spring)] == 1
        # total shortfall over all pairs of Array A
        assert sum(defic.values()) == 18

    def test_array_b_empty(self, array_b, university_constraints):
        assert state_deficiency(array_b, 2, 2, university_constraints) == {}

    def test_r1_always_empty(self, full_factorial):
        assert state_deficiency(full_factorial, 1, 2, ConstraintSet()) == {}

    def test_absent_soft_not_deficient(self, array_a, university_constraints):
        defic = state_deficiency(array_a, 2, 2, university_constraints)
        soft = next(iter(university_constraints.soft))
        assert (soft.attributes, soft) not in defic

    def test_infeasible_system_raises(self, binary3_schema, pair_block_constraints):
        arr = AccessProfileArray(binary3_schema, ((1, 0, 0),))
        config = ConstructionConfig(r_target=2, t=2)
        with pytest.raises(InfeasibleError) as exc:
            construct_padding(arr, pair_block_constraints, config)
        assert exc.value.report.witnesses

    def test_infeasible_message_names_each_credential(self, binary3_schema):
        constraints, _ = load_constraints(
            FIXTURES / "pair_block_constraints.json", binary3_schema
        )
        config = ConstructionConfig(r_target=2, t=2)
        with pytest.raises(InfeasibleError) as exc:
            construct_padding(None, constraints, config, schema=binary3_schema)
        # both witnesses share one reason, which is given once
        assert str(exc.value) == (
            "constraint system is infeasible: {(a1, 0), (a3, 0)}, {(a1, 0), (a3, 1)}: "
            "unconstrained credential is unrealizable: every row containing it "
            "violates a hard constraint (implied by {(a1, 0)})"
        )


class TestConstructPadding:
    def test_array_a_reaches_lower_bound(self, array_a, university_constraints):
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        result = construct_padding(array_a, university_constraints, config)
        assert result.array.n_rows == 12
        assert result.lower_bound == 12
        assert result.meets_lower_bound
        assert result.padding_count == 6
        assert result.array.rows[:6] == array_a.rows
        assert validate(result.array, 2, 2, university_constraints).ok

    def test_array_b_unchanged(self, array_b, university_constraints):
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        result = construct_padding(array_b, university_constraints, config)
        assert result.padding_count == 0
        assert result.array.rows == array_b.rows

    def test_from_scratch_unconstrained(self, binary3_schema):
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        result = construct_padding(None, ConstraintSet(), config, schema=binary3_schema)
        assert result.array.n_rows >= 8
        assert validate(result.array, 2, 2).ok

    def test_halfspace_scenario(self, binary3_schema, halfspace_constraints):
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        result = construct_padding(
            None, halfspace_constraints, config, schema=binary3_schema
        )
        assert result.array.n_rows == 8
        assert all(row[0] == 1 for row in result.array.rows)
        assert compute_guarantee(result.array, 2, halfspace_constraints).r == 2

    def test_infeasible_raises(self, binary3_schema, pair_block_constraints):
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        with pytest.raises(InfeasibleError):
            construct_padding(
                None, pair_block_constraints, config, schema=binary3_schema
            )

    def test_budget_exceeded_carries_state(self, array_a, university_constraints):
        config = ConstructionConfig(r_target=2, t=2, seed=0, max_rows=8)
        with pytest.raises(BudgetExceededError) as exc:
            construct_padding(array_a, university_constraints, config)
        assert len(exc.value.partial_rows) == 8
        assert exc.value.remaining

    def test_max_rows_below_base_rejected(self, array_b, university_constraints):
        config = ConstructionConfig(r_target=2, t=2, max_rows=array_b.n_rows - 1)
        with pytest.raises(InvalidParameterError, match="smaller than the base"):
            construct_padding(array_b, university_constraints, config)

    def test_max_rows_below_r_target_with_nothing_to_pad(self):
        # every credential is don't-care, so only the row count must reach r
        schema = AttributeSchema(
            (AttributeDef("A", ("x", "y")), AttributeDef("B", ("p", "q")))
        )
        cons = ConstraintSet(
            dont_care=frozenset({Credential(((0, 0),)), Credential(((0, 1),))})
        )
        config = ConstructionConfig(r_target=2, t=2, max_rows=1)
        with pytest.raises(BudgetExceededError, match="max_rows=1 is below r_target=2"):
            construct_padding(None, cons, config, schema=schema)
        base = AccessProfileArray(schema, ((1, 1),))
        with pytest.raises(BudgetExceededError) as exc:
            construct_padding(base, cons, config)
        assert exc.value.partial_rows == [(1, 1)]
        assert exc.value.remaining == {}
        config = ConstructionConfig(r_target=3, t=2, max_rows=3)
        result = construct_padding(base, cons, config)
        # copies of the base row keep every credential don't-care
        assert result.array.rows == ((1, 1),) * 3
        assert result.achieved.r == 3
        assert validate(result.array, 3, 2, cons).ok

    def test_deterministic(self, array_a, university_constraints):
        config = ConstructionConfig(r_target=2, t=2, seed=7)
        first = construct_padding(array_a, university_constraints, config)
        second = construct_padding(array_a, university_constraints, config)
        assert first.array.rows == second.array.rows
        assert first.trace == second.trace

    def test_base_with_hard_violation_rejected(
        self, binary3_schema, halfspace_constraints
    ):
        bad = AccessProfileArray(binary3_schema, ((0, 0, 0),))
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        with pytest.raises(InvalidParameterError, match="violates hard"):
            construct_padding(bad, halfspace_constraints, config)

    def test_base_with_hard_constraint_larger_than_t_rejected(self, binary3_schema):
        cons = ConstraintSet(hard=frozenset({Credential(((0, 0), (1, 0), (2, 0)))}))
        bad = AccessProfileArray(binary3_schema, ((1, 1, 1), (0, 0, 0)))
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        with pytest.raises(InvalidParameterError, match="violates hard"):
            construct_padding(bad, cons, config)

    def test_infeasible_where_value_elimination_misses(self, binary3_schema):
        cons = ConstraintSet(
            hard=frozenset(
                {
                    Credential(((0, 0), (1, 0))),
                    Credential(((0, 0), (2, 0))),
                    Credential(((1, 1), (2, 1))),
                }
            )
        )
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        with pytest.raises(InfeasibleError) as exc:
            construct_padding(None, cons, config, schema=binary3_schema)
        assert "(implied by {(a1, 0)})" in str(exc.value)

    def test_schema_required_from_scratch(self):
        config = ConstructionConfig(r_target=2, t=1)
        with pytest.raises(
            InvalidParameterError, match="^schema required when base is None$"
        ):
            construct_padding(None, ConstraintSet(), config)

    def test_nothing_to_pad_from_scratch(self, binary3_schema):
        # every size-3 credential is hard or don't-care
        cons = ConstraintSet(
            hard=frozenset({Credential(((0, 1),))}),
            dont_care=frozenset({Credential(((0, 0),))}),
        )
        config = ConstructionConfig(r_target=2, t=3, seed=0)
        result = construct_padding(None, cons, config, schema=binary3_schema)
        assert result.array.rows == ((0, 0, 0), (0, 0, 0))
        assert validate(result.array, 2, 3, cons).ok
        assert result.lower_bound == 2
        assert result.meets_lower_bound

    def test_no_legal_row_infeasible(self, binary3_schema):
        cons = ConstraintSet(
            hard=frozenset(Credential(((a, x),)) for a in (0, 1) for x in (0, 1))
        )
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        with pytest.raises(InfeasibleError, match="no row avoids every hard"):
            construct_padding(None, cons, config, schema=binary3_schema)

    def test_soft_zero_or_r(self, array_a, university_constraints, university_schema):
        # whichever padding is chosen, every soft credential appears 0 or >= 2 times
        for seed in range(5):
            config = ConstructionConfig(r_target=2, t=2, seed=seed)
            result = construct_padding(array_a, university_constraints, config)
            for soft in university_constraints.soft:
                count = sum(
                    1 for row in result.array.rows if soft.contained_in_row(row)
                )
                assert count == 0 or count >= 2

    def test_homogeneity_weight_steers_down(self, binary3_schema):
        # duplicate-heavy base: closeness-aware scoring should not produce
        # more homogeneous results on average
        base = AccessProfileArray(
            binary3_schema, ((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1))
        )
        greedy, aware = [], []
        for seed in range(20):
            plain = construct_padding(
                base,
                ConstraintSet(),
                ConstructionConfig(r_target=2, t=2, seed=seed),
            )
            weighted = construct_padding(
                base,
                ConstraintSet(),
                ConstructionConfig(
                    r_target=2, t=2, seed=seed, homogeneity_weight=Fraction(1)
                ),
            )
            assert validate(weighted.array, 2, 2).ok
            greedy.append(global_homogeneity(plain.array, 2))
            aware.append(global_homogeneity(weighted.array, 2))
        assert sum(aware) / len(aware) <= sum(greedy) / len(greedy)

    def test_row_labels_kept_and_padding_labelled(
        self, array_a, university_constraints
    ):
        labelled = AccessProfileArray(
            array_a.schema, array_a.rows, row_labels=tuple("abcdef")
        )
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        result = construct_padding(labelled, university_constraints, config)
        assert result.array.row_labels == tuple("abcdef") + tuple(
            f"pad-{i}" for i in range(1, result.padding_count + 1)
        )
        # unlabelled input gives unlabelled output
        plain = construct_padding(array_a, university_constraints, config)
        assert plain.array.row_labels is None
        assert plain.array.rows == result.array.rows

    def test_kinds_classified_once_per_call_not_per_attempt(
        self, binary3_schema, monkeypatch
    ):
        calls = []

        def counting_kinds_on(schema, constraints, cols):
            calls.append(cols)
            return kinds_on(schema, constraints, cols)

        monkeypatch.setattr(construct_mod, "kinds_on", counting_kinds_on)
        config = ConstructionConfig(r_target=2, t=2, seed=0, restarts=3)
        construct_padding(None, ConstraintSet(), config, schema=binary3_schema)
        # every size-t column set once: C(k, t)
        assert len(calls) <= math.comb(3, 2)

    def test_base_counted_once_per_call_not_per_attempt(
        self, array_a, university_constraints, monkeypatch
    ):
        passes, coded_counts = [], construct_mod._coded_counts

        def counting_coded_counts(array, column_sets):
            passes.append(array)
            return coded_counts(array, column_sets)

        monkeypatch.setattr(construct_mod, "_coded_counts", counting_coded_counts)
        config = ConstructionConfig(r_target=2, t=2, seed=0, restarts=3)
        construct_padding(array_a, university_constraints, config)
        # one coded pass over the base for all four attempts
        assert passes == [array_a]

    def test_draws_that_keep_hitting_hard_fall_back_to_complete(self, monkeypatch):
        # a1..a9 must be 0, so a draw around a target is legal with
        # probability 1/256: nearly every candidate comes from `complete`
        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i + 1}", ("0", "1")) for i in range(10))
        )
        constraints = ConstraintSet(
            hard=frozenset(Credential(((a, 1),)) for a in range(9))
        )
        fixed_cells, complete = [], construct_mod.complete

        def counting_complete(schema, hard, fixed):
            fixed_cells.append(dict(fixed))
            return complete(schema, hard, fixed)

        monkeypatch.setattr(construct_mod, "complete", counting_complete)
        config = ConstructionConfig(r_target=2, t=2, seed=0)
        result = construct_padding(None, constraints, config, schema=schema)
        assert any(fixed_cells)
        assert validate(result.array, 2, 2, constraints).ok
        assert result.array.n_rows == row_lower_bound(schema, constraints, 2, 2) == 4
