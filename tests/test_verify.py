import pytest

from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    Credential,
    InvalidParameterError,
    anonymity_profile,
    compute_guarantee,
    is_anonymizing_for,
    validate,
)

from conftest import cred


class TestComputeGuarantee:
    def test_array_a_is_1_2_anonymous(
        self, array_a, university_constraints, university_schema
    ):
        report = compute_guarantee(array_a, 2, university_constraints)
        assert report.r == 1
        assert report.min_witness[2] == 1
        assert report.hard_violations == ()

    def test_cs_grader_is_a_minimizer(self, array_a, university_constraints, university_schema):
        # (CS, grader) appears once; it must be among the validate witnesses
        result = validate(array_a, 2, 2, university_constraints)
        target = cred(university_schema, ("Job", "grader"), ("Department", "CS"))
        assert any(c == target and n == 1 for _, c, n, _ in result.violations)

    def test_array_b_is_2_2_anonymous(self, array_b, university_constraints):
        assert compute_guarantee(array_b, 2, university_constraints).r == 2

    def test_array_b_t3_drops_to_1(
        self, array_b, university_constraints, university_schema
    ):
        report = compute_guarantee(array_b, 3, university_constraints)
        assert report.r == 1
        witness = cred(
            university_schema,
            ("Role", "graduate"),
            ("Job", "grader"),
            ("Semester", "Fall"),
        )
        _, c, count = report.min_witness
        assert count == 1
        # the lexicographically-first minimizer need not be this exact
        # credential, but this one must be short
        result = validate(array_b, 2, 3, university_constraints)
        assert any(c == witness and n == 1 for _, c, n, _ in result.violations)

    def test_halfspace_array_clean(self, halfspace_array, halfspace_constraints):
        report = compute_guarantee(halfspace_array, 2, halfspace_constraints)
        assert report.r == 2
        assert report.hard_violations == ()

    def test_hard_violation_returns_zero(self, halfspace_array, halfspace_constraints):
        rows = ((0, 0, 0),) + halfspace_array.rows[1:]
        bad = AccessProfileArray(halfspace_array.schema, rows)
        report = compute_guarantee(bad, 2, halfspace_constraints)
        assert report.r == 0
        assert (0, Credential(((0, 0), (1, 0)))) in report.hard_violations

    def test_wide_domains_at_t3(self):
        # 100 values per attribute: the codes of three columns are decoded
        # one digit at a time, past the decode table
        labels = tuple(map(str, range(100)))
        schema = AttributeSchema(AttributeDef(f"a{i}", labels) for i in range(3))
        array = AccessProfileArray(schema, [(1, 2, 3)] * 3 + [(40, 50, 99)])
        report = compute_guarantee(array, 3, ConstraintSet())
        assert report.r == 1
        assert report.min_witness == ((0, 1, 2), Credential(((0, 40), (1, 50), (2, 99))), 1)

    def test_soft_appearances_listed(
        self, array_b, university_constraints, university_schema
    ):
        report = compute_guarantee(array_b, 2, university_constraints)
        soft = cred(university_schema, ("Role", "graduate"), ("Job", "grader"))
        assert (soft, 2) in report.soft_appearances

    def test_t_out_of_range(self, array_a, university_constraints):
        with pytest.raises(InvalidParameterError):
            compute_guarantee(array_a, 5, university_constraints)

    def test_schema_mismatch(self, full_factorial, university_constraints):
        with pytest.raises(InvalidParameterError):
            compute_guarantee(full_factorial, 2, university_constraints)

    def test_restricted_column_sets(self, array_a, university_constraints):
        # Role x Job alone is already (2, 2)-anonymous in Array A
        report = compute_guarantee(
            array_a, 2, university_constraints, allowed_column_sets=[(0, 1)]
        )
        assert report.r == 2

    def test_repeated_column_rejected(self, array_a):
        with pytest.raises(InvalidParameterError, match=r"invalid column set \(0, 0\) for t=2"):
            compute_guarantee(array_a, 2, allowed_column_sets=[(0, 1), (0, 0)])

    def test_repeated_column_set_rejected(self, array_a):
        # counted twice, each short credential on it would be listed twice
        with pytest.raises(InvalidParameterError, match=r"column set \(0, 1\) is repeated"):
            validate(array_a, 2, 2, allowed_column_sets=[(0, 1), (1, 3), (1, 0)])

    def test_dont_care_excluded_from_minimum(self, binary3_schema, full_factorial):
        # every pair on (a1, a2) is exempt; the minimum comes from elsewhere
        dc = ConstraintSet(
            dont_care=frozenset(
                Credential(((0, a), (1, b))) for a in (0, 1) for b in (0, 1)
            )
        )
        report = compute_guarantee(full_factorial, 2, dc)
        assert report.r == 2
        assert report.min_witness[0] != (0, 1)


class TestValidate:
    def test_array_b_valid_at_2_2(self, array_b, university_constraints):
        assert validate(array_b, 2, 2, university_constraints).ok

    def test_array_b_fails_3_2_with_faculty_cs(
        self, array_b, university_constraints, university_schema
    ):
        result = validate(array_b, 3, 2, university_constraints)
        assert not result.ok
        target = cred(university_schema, ("Role", "faculty"), ("Department", "CS"))
        assert any(c == target and n == 2 for _, c, n, _ in result.violations)

    def test_r_target_below_1_rejected(self, full_factorial):
        with pytest.raises(InvalidParameterError, match="^r_target must be at least 1$"):
            validate(full_factorial, 0, 2)

    def test_trivial_at_r1(self, full_factorial):
        assert validate(full_factorial, 1, 2).ok

    def test_soft_annotated(self, array_a, university_constraints):
        result = validate(array_a, 2, 2, university_constraints)
        assert not result.ok
        kinds = {kind for _, _, _, kind in result.violations}
        assert "soft" not in kinds  # the soft constraint is absent from A

    def test_short_soft_constraint_flagged(self, binary3_schema):
        # a size-1 soft credential appearing once with r_target 2
        cons = ConstraintSet(soft=frozenset({Credential(((0, 0),))}))
        arr = AccessProfileArray(
            binary3_schema, ((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 1), (1, 1, 1))
        )
        result = validate(arr, 2, 2, cons)
        assert any(
            c == Credential(((0, 0),)) and kind == "soft"
            for _, c, n, kind in result.violations
        )


class TestIsAnonymizingFor:
    def test_b_anonymizes_a(self, array_a, array_b, university_constraints):
        assert is_anonymizing_for(array_a, array_b, 2, 2, university_constraints)

    def test_a_does_not_anonymize_itself_at_2(self, array_a, university_constraints):
        assert not is_anonymizing_for(array_a, array_a, 2, 2, university_constraints)

    def test_self_at_r1(self, array_a, university_constraints):
        assert is_anonymizing_for(array_a, array_a, 1, 2, university_constraints)

    def test_multiset_containment_required(self, binary3_schema):
        base = AccessProfileArray(binary3_schema, ((0, 0, 0), (0, 0, 0)))
        ext = AccessProfileArray(binary3_schema, ((0, 0, 0), (1, 1, 1), (1, 1, 1)))
        assert not is_anonymizing_for(base, ext, 1, 2)

    def test_schema_mismatch(self, array_a, full_factorial):
        with pytest.raises(InvalidParameterError):
            is_anonymizing_for(array_a, full_factorial, 1, 2)


class TestAnonymityProfile:
    def test_full_factorial(self, full_factorial):
        profile = anonymity_profile(full_factorial)
        assert profile.entries == ((1, 4), (2, 2), (3, 1))

    def test_array_b(self, array_b, university_constraints):
        profile = anonymity_profile(array_b, university_constraints)
        assert profile.entries == ((1, 4), (2, 2), (3, 1))

    def test_single_row(self, binary3_schema):
        arr = AccessProfileArray(binary3_schema, ((0, 1, 0),))
        assert anonymity_profile(arr).entries == ((1, 1),)

    def test_non_increasing(self, fractional_replicated):
        profile = anonymity_profile(fractional_replicated)
        values = [r for _, r in profile.entries]
        assert values == sorted(values, reverse=True)

    def test_hard_violation_collapses(self, full_factorial, pair_block_constraints):
        # a row holding a hard constraint is illegal at every t, pairs at t = 1 too
        profile = anonymity_profile(full_factorial, pair_block_constraints)
        assert profile.entries == ((1, 0),)
        assert profile.hard_violations
