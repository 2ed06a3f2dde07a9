import random

import pytest

import anonarray.constraints as constraints_mod
from anonarray import (
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    Credential,
    InvalidParameterError,
    SearchBudgetError,
    check_feasibility,
    row_lower_bound,
)
from anonarray.constraints import DONT_CARE, HARD, SOFT, UNCONSTRAINED, complete

from conftest import cred
from oracles import brute_force_infeasible_credentials, classify


class TestConstraintSet:
    def test_kinds_must_be_disjoint(self):
        c = Credential(((0, 0),))
        with pytest.raises(InvalidParameterError):
            ConstraintSet(hard=frozenset({c}), soft=frozenset({c}))


class TestClassify:
    """The oracles' `classify`, which `kinds_on` is tested against, on
    hand-worked cases."""

    def test_hard_from_table(self, pair_block_constraints):
        assert classify(Credential(((0, 0), (1, 0))), pair_block_constraints) == HARD

    def test_unconstrained_from_table(self, pair_block_constraints):
        assert (
            classify(Credential(((0, 1), (1, 0))), pair_block_constraints)
            == UNCONSTRAINED
        )

    def test_soft_match(self, university_schema, university_constraints):
        c = cred(university_schema, ("Role", "graduate"), ("Job", "grader"))
        assert classify(c, university_constraints) == SOFT

    def test_superset_of_hard_is_hard(self, pair_block_constraints):
        c = Credential(((0, 0), (1, 0), (2, 1)))
        assert classify(c, pair_block_constraints) == HARD

    def test_superset_of_soft_is_unconstrained(
        self, university_schema, university_constraints
    ):
        # a soft constraint governs only the credential itself
        c = cred(
            university_schema,
            ("Role", "graduate"),
            ("Job", "grader"),
            ("Semester", "Fall"),
        )
        assert classify(c, university_constraints) == UNCONSTRAINED

    def test_superset_of_dont_care_is_dont_care(self):
        cons = ConstraintSet(dont_care=frozenset({Credential(((0, 0),))}))
        assert classify(Credential(((0, 0), (1, 1))), cons) == DONT_CARE


class TestDeriveImplicitHard:
    def test_value_elimination(self, binary3_schema, pair_block_constraints):
        report = check_feasibility(binary3_schema, pair_block_constraints, 2)
        assert report.implicit_hard == frozenset({Credential(((0, 0),))})

    def test_empty_hard_set(self, binary3_schema):
        report = check_feasibility(binary3_schema, ConstraintSet(), 2)
        assert report.implicit_hard == frozenset()

    def test_two_attribute_elimination(self):
        from anonarray import AttributeDef, AttributeSchema

        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i + 1}", ("0", "1")) for i in range(2))
        )
        cons = ConstraintSet(
            hard=frozenset(
                {
                    Credential(((0, 0), (1, 0))),
                    Credential(((0, 0), (1, 1))),
                    Credential(((0, 1), (1, 0))),
                }
            )
        )
        derived = check_feasibility(schema, cons, 2).implicit_hard
        # brute force over the 4 full rows: only (1, 1) survives
        assert derived == frozenset(
            {Credential(((0, 0),)), Credential(((1, 0),))}
        )

    def test_derived_are_genuinely_infeasible(
        self, binary3_schema, pair_block_constraints
    ):
        report = check_feasibility(binary3_schema, pair_block_constraints, 2)
        infeasible = set(
            brute_force_infeasible_credentials(
                binary3_schema, pair_block_constraints.hard, 2
            )
        )
        for c in report.implicit_hard:
            assert c in infeasible

    def test_monotone_in_hard_set(self, binary3_schema, pair_block_constraints):
        bigger = ConstraintSet(
            hard=pair_block_constraints.hard
            | {Credential(((1, 1), (2, 0))), Credential(((1, 1), (2, 1)))}
        )
        small = check_feasibility(
            binary3_schema, pair_block_constraints, 2
        ).implicit_hard
        large = check_feasibility(binary3_schema, bigger, 2).implicit_hard
        # enlarging the hard set never shrinks the forbidden region
        for c in small:
            assert any(c.contains(d) or d.contains(c) or c == d for d in large)
        assert len(large) >= len(small)


    def test_exact_where_value_elimination_misses(self):
        # no legal row holds a1=0, though each single extension of it is legal
        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i + 1}", ("0", "1")) for i in range(3))
        )
        cons = ConstraintSet(
            hard=frozenset(
                {
                    Credential(((0, 0), (1, 0))),
                    Credential(((0, 0), (2, 0))),
                    Credential(((1, 1), (2, 1))),
                }
            )
        )
        assert check_feasibility(schema, cons, 2).implicit_hard == frozenset(
            {Credential(((0, 0),))}
        )

    def test_hard_constraints_larger_than_t_count(
        self, binary3_schema, halfspace_constraints
    ):
        report = check_feasibility(binary3_schema, halfspace_constraints, 1)
        assert report.implicit_hard == frozenset({Credential(((0, 0),))})


class TestComplete:
    def test_smallest_legal_row(self, binary3_schema, halfspace_constraints):
        assert complete(binary3_schema, halfspace_constraints.hard, {}) == (1, 0, 0)
        assert complete(binary3_schema, halfspace_constraints.hard, {2: 1}) == (1, 0, 1)

    def test_none_when_fixed_cells_hold_a_constraint(
        self, binary3_schema, halfspace_constraints
    ):
        assert complete(binary3_schema, halfspace_constraints.hard, {0: 0}) is None

    def test_backtracks(self, uncolourable):
        schema, cons = uncolourable
        assert complete(schema, cons.hard, {0: 0}) == (0, 0, 0, 0, 0)
        assert complete(schema, cons.hard, {0: 1}) is None
        assert check_feasibility(schema, cons, 2).implicit_hard == frozenset(
            {Credential(((0, 1),))}
        )

    def test_node_budget_names_the_credential(self, uncolourable, monkeypatch):
        schema, cons = uncolourable
        monkeypatch.setattr(constraints_mod, "_SEARCH_BUDGET", 20)
        # the smallest legal row still fits in the budget
        assert complete(schema, cons.hard, {}) == (0, 0, 0, 0, 0)
        with pytest.raises(SearchBudgetError) as exc:
            check_feasibility(schema, cons, 2)
        assert "{(a1, 1)}" in str(exc.value)


class TestFeasibility:
    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_t_out_of_range(self, binary3_schema, t):
        with pytest.raises(InvalidParameterError, match="out of range"):
            check_feasibility(binary3_schema, ConstraintSet(), t)

    @pytest.mark.parametrize("t", [1, 2])
    def test_size_three_constraints_block_a_value(self, t):
        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i}", ("0", "1")) for i in range(4))
        )
        cons = ConstraintSet(
            hard=frozenset(
                Credential(((0, 0), (1, b), (c, x)))
                for b, c in ((0, 2), (1, 3))
                for x in (0, 1)
            )
        )
        report = check_feasibility(schema, cons, t)
        assert not report.feasible
        assert report.implicit_hard == frozenset({Credential(((0, 0),))})

    def test_no_legal_row_is_infeasible(self, binary3_schema):
        # every size-2 credential is hard, so none is a witness
        cons = ConstraintSet(
            hard=frozenset(Credential(((a, x),)) for a in (0, 1) for x in (0, 1))
        )
        report = check_feasibility(binary3_schema, cons, 2)
        assert not report.feasible
        assert report.witnesses == ()

    def test_pair_block_infeasible(self, binary3_schema, pair_block_constraints):
        report = check_feasibility(binary3_schema, pair_block_constraints, 2)
        assert not report.feasible
        witnessed = {c for c, _ in report.witnesses}
        assert Credential(((0, 0), (2, 0))) in witnessed
        assert Credential(((0, 0), (2, 1))) in witnessed

    def test_promoted_constraints_feasible(self, binary3_schema, halfspace_constraints):
        report = check_feasibility(binary3_schema, halfspace_constraints, 2)
        assert report.feasible
        assert report.witnesses == ()

    def test_soft_variant_feasible(self, binary3_schema, pair_block_constraints):
        soft_version = ConstraintSet(soft=pair_block_constraints.hard)
        report = check_feasibility(binary3_schema, soft_version, 2)
        assert report.feasible

    def test_report_disjoint_from_explicit(
        self, binary3_schema, pair_block_constraints
    ):
        report = check_feasibility(binary3_schema, pair_block_constraints, 2)
        explicit = (
            pair_block_constraints.hard
            | pair_block_constraints.soft
            | pair_block_constraints.dont_care
        )
        assert not (report.implicit_hard & explicit)

    def test_infeasible_report_has_witnesses(
        self, binary3_schema, pair_block_constraints
    ):
        report = check_feasibility(binary3_schema, pair_block_constraints, 2)
        assert report.witnesses


    def test_pre_test_spares_complete_on_a_one_component_chain(self, complete_calls):
        # every attribute is in one component, so only the cheap pre-test
        # keeps the walk from asking `complete` about each of the 37,824
        # size-3 credentials; a walk with it makes 9185 calls here
        rnd = random.Random(0)
        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i}", tuple("0123")) for i in range(16))
        )
        hard = frozenset(
            Credential(((i, rnd.randrange(4)), (i + 1, rnd.randrange(4))))
            for i in range(15)
        )
        report = check_feasibility(schema, ConstraintSet(hard=hard), 3)
        assert report.feasible
        assert len(complete_calls) <= 9185 + 1

    def test_walk_stays_inside_each_component(self, complete_calls):
        # components {a0, a1} and {a2, a3}, a4 free; a whole-row walk asks
        # `complete` about credentials such as {a1=0, a3=0}
        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i}", ("0", "1", "2")) for i in range(5))
        )
        hard = frozenset(
            [Credential(((0, 0), (1, x))) for x in range(3)]
            + [Credential(((2, x), (3, 0))) for x in range(2)]
        )
        report = check_feasibility(schema, ConstraintSet(hard=hard), 2)
        assert report.implicit_hard == frozenset({Credential(((0, 0),))})
        assert complete_calls
        for fixed in complete_calls:
            assert set(fixed) <= {0, 1} or set(fixed) <= {2, 3}


@pytest.fixture
def complete_calls(monkeypatch):
    """The `fixed` cells of every `complete` call made through the module."""
    calls = []
    real = constraints_mod.complete

    def counted(schema, hard, fixed):
        calls.append(fixed)
        return real(schema, hard, fixed)

    monkeypatch.setattr(constraints_mod, "complete", counted)
    return calls


class TestRowLowerBound:
    def test_array_a_bound(self, university_schema, university_constraints):
        assert row_lower_bound(university_schema, university_constraints, 2, 2) == 12

    def test_unconstrained_binary(self, binary3_schema):
        assert row_lower_bound(binary3_schema, ConstraintSet(), 1, 2) == 4

    def test_mixed_levels(self):
        from anonarray import AttributeDef, AttributeSchema

        schema = AttributeSchema(
            (
                AttributeDef("a", ("0", "1", "2")),
                AttributeDef("b", ("0", "1")),
                AttributeDef("c", ("0", "1")),
                AttributeDef("d", ("0", "1")),
            )
        )
        assert row_lower_bound(schema, ConstraintSet(), 2, 2) == 12

    def test_linear_in_r(self, university_schema, university_constraints):
        b1 = row_lower_bound(university_schema, university_constraints, 1, 2)
        b2 = row_lower_bound(university_schema, university_constraints, 2, 2)
        b5 = row_lower_bound(university_schema, university_constraints, 5, 2)
        assert b1 <= b2
        assert b2 == 2 * b1
        assert b5 == 5 * b1
