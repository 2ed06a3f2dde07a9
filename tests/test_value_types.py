"""The value-type semantics of every public immutable type.

Each type takes its fields by position or keyword, with defaults where
the type states them; compares equal and hashes by class and field
values; prints as `Name(field=value, ...)`; and refuses assignment and
deletion.  Only `Credential` is ordered.
"""

from fractions import Fraction

import pytest

import anonarray
from anonarray import (
    AccessProfileArray,
    AnonymityProfile,
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    ConstructionConfig,
    ConstructionResult,
    Credential,
    CredentialCountTable,
    FeasibilityReport,
    GuaranteeReport,
    HomogeneityReport,
    Neighborhood,
    ValidationResult,
)

A = AttributeDef("a", ("0", "1"))
SCHEMA = AttributeSchema((A,))
CRED = Credential(((0, 1),))
ARRAY = AccessProfileArray(SCHEMA, ((0,), (1,)), ("x", "y"))
REPORT = GuaranteeReport(1, 1, ((0,), CRED, 1), (), ((CRED, 1),))
HALF = Fraction(1, 2)

A_REPR = "AttributeDef(name='a', values=('0', '1'))"
SCHEMA_REPR = f"AttributeSchema(attributes=({A_REPR},))"
CRED_REPR = "Credential(pairs=((0, 1),))"
ARRAY_REPR = (
    f"AccessProfileArray(schema={SCHEMA_REPR}, rows=((0,), (1,)), "
    "row_labels=('x', 'y'))"
)
REPORT_REPR = (
    f"GuaranteeReport(t=1, r=1, min_witness=((0,), {CRED_REPR}, 1), "
    f"hard_violations=(), soft_appearances=(({CRED_REPR}, 1),))"
)

# (type, {field: value} in field order, repr of the instance)
CASES = [
    (AttributeDef, {"name": "a", "values": ("0", "1")}, A_REPR),
    (AttributeSchema, {"attributes": (A,)}, SCHEMA_REPR),
    (Credential, {"pairs": ((0, 1),)}, CRED_REPR),
    (
        AccessProfileArray,
        {"schema": SCHEMA, "rows": ((0,), (1,)), "row_labels": ("x", "y")},
        ARRAY_REPR,
    ),
    (
        CredentialCountTable,
        {"column_set": (0,), "counts": {(0,): 1}, "total": 1},
        "CredentialCountTable(column_set=(0,), counts={(0,): 1}, total=1)",
    ),
    (
        ConstraintSet,
        {"hard": frozenset({CRED}), "soft": frozenset(), "dont_care": frozenset()},
        f"ConstraintSet(hard=frozenset({{{CRED_REPR}}}), soft=frozenset(), "
        "dont_care=frozenset())",
    ),
    (
        FeasibilityReport,
        {"feasible": True, "implicit_hard": frozenset(), "witnesses": ()},
        "FeasibilityReport(feasible=True, implicit_hard=frozenset(), witnesses=())",
    ),
    (
        GuaranteeReport,
        {
            "t": 1,
            "r": 1,
            "min_witness": ((0,), CRED, 1),
            "hard_violations": (),
            "soft_appearances": ((CRED, 1),),
        },
        REPORT_REPR,
    ),
    (
        ValidationResult,
        {"ok": False, "violations": (((0,), CRED, 1, "soft"),), "report": REPORT},
        f"ValidationResult(ok=False, violations=(((0,), {CRED_REPR}, 1, 'soft'),), "
        f"report={REPORT_REPR})",
    ),
    (
        AnonymityProfile,
        {"entries": ((1, 1),), "hard_violations": ()},
        "AnonymityProfile(entries=((1, 1),), hard_violations=())",
    ),
    (
        Neighborhood,
        {"column_set": (0,), "credential": CRED, "members": frozenset({1})},
        f"Neighborhood(column_set=(0,), credential={CRED_REPR}, members=frozenset({{1}}))",
    ),
    (
        HomogeneityReport,
        {
            "t": 1,
            "local": (HALF,),
            "min": HALF,
            "max": HALF,
            "global_score": HALF,
            "isolated": frozenset({0}),
        },
        "HomogeneityReport(t=1, local=(Fraction(1, 2),), min=Fraction(1, 2), "
        "max=Fraction(1, 2), global_score=Fraction(1, 2), isolated=frozenset({0}))",
    ),
    (
        ConstructionConfig,
        {
            "r_target": 2,
            "t": 1,
            "seed": 0,
            "max_rows": None,
            "candidates_per_row": 64,
            "restarts": 3,
            "homogeneity_weight": Fraction(0),
        },
        "ConstructionConfig(r_target=2, t=1, seed=0, max_rows=None, "
        "candidates_per_row=64, restarts=3, homogeneity_weight=Fraction(0, 1))",
    ),
    (
        ConstructionResult,
        {"array": ARRAY, "padding_count": 0, "achieved": REPORT, "lower_bound": 2,
         "trace": ()},
        f"ConstructionResult(array={ARRAY_REPR}, padding_count=0, "
        f"achieved={REPORT_REPR}, lower_bound=2, trace=())",
    ),
]

_IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, fields, text", CASES, ids=_IDS)
def test_equality_and_hash_by_class_and_fields(cls, fields, text):
    one, two = cls(**fields), cls(**fields)
    assert one == two and not one != two
    assert one.__eq__(object()) is NotImplemented
    assert one != tuple(fields.values())
    if cls is CredentialCountTable:
        # its counts are a dict, so it is unhashable
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields, text", CASES, ids=_IDS)
def test_repr_names_every_field(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=_IDS)
def test_assignment_and_deletion_refused(cls, fields, text):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


def test_field_changes_break_equality():
    assert Credential(((0, 1),)) != Credential(((0, 0),))
    assert ConstraintSet(hard=[CRED]) != ConstraintSet(soft=[CRED])
    assert AccessProfileArray(SCHEMA, ((0,), (1,))) != ARRAY


def test_defaults():
    assert ConstraintSet() == ConstraintSet(frozenset(), frozenset(), frozenset())
    assert ConstraintSet(soft=[CRED]).soft == frozenset({CRED})
    assert AccessProfileArray(SCHEMA, ((0,), (1,))).row_labels is None
    assert AnonymityProfile(((1, 1),)).hard_violations == ()
    assert ConstructionConfig(2, 1) == ConstructionConfig(
        2, 1, 0, None, 64, 3, Fraction(0)
    )
    one, two = CredentialCountTable((0,)), CredentialCountTable((1,))
    assert one.counts == {} and one.total == 0
    # each table owns its counts
    assert one.counts is not two.counts


def test_missing_or_unknown_arguments_rejected():
    with pytest.raises(TypeError):
        FeasibilityReport(True, frozenset())
    with pytest.raises(TypeError):
        FeasibilityReport(True, frozenset(), (), ())
    with pytest.raises(TypeError):
        AnonymityProfile(entries=(), extra=())
    with pytest.raises(TypeError):
        AnonymityProfile((), entries=())


def test_only_credentials_are_ordered():
    low, high = Credential(((0, 0), (1, 1))), Credential(((0, 1),))
    assert sorted([high, low]) == [low, high]
    assert low < high and low <= high and high > low and high >= low
    assert low <= Credential(((1, 1), (0, 0))) >= low
    with pytest.raises(TypeError):
        low < ((0, 0), (1, 1))
    with pytest.raises(TypeError):
        ConstraintSet() < ConstraintSet()
    with pytest.raises(TypeError):
        sorted([REPORT, REPORT])


def test_cached_properties_survive_freezing():
    schema = AttributeSchema((A, AttributeDef("b", ("x", "y", "z"))))
    assert schema.sizes == (2, 3)
    assert schema.sizes is schema.sizes
    array = AccessProfileArray(schema, ((0, 2), (1, 0)))
    assert array.columns == ((0, 1), (2, 0))
    assert array.columns is array.columns
    # the cached values are not fields
    assert array == AccessProfileArray(schema, ((0, 2), (1, 0)))
    assert repr(schema) == (
        f"AttributeSchema(attributes=({A_REPR}, "
        "AttributeDef(name='b', values=('x', 'y', 'z'))))"
    )


def test_public_api_is_pinned():
    assert anonarray.__all__ == [
        "AccessProfileArray",
        "AnonArrayError",
        "AnonymityProfile",
        "AttributeDef",
        "AttributeSchema",
        "BudgetExceededError",
        "ConstraintSet",
        "ConstructionConfig",
        "ConstructionResult",
        "Credential",
        "CredentialCountTable",
        "FeasibilityReport",
        "GuaranteeReport",
        "HomogeneityReport",
        "InfeasibleError",
        "InvalidParameterError",
        "Neighborhood",
        "ParseError",
        "SearchBudgetError",
        "ValidationResult",
        "anonymity_profile",
        "check_feasibility",
        "closeness",
        "closeness_matrix",
        "compute_guarantee",
        "construct_padding",
        "count_credentials",
        "enumerate_column_sets",
        "export_hypergraph",
        "global_homogeneity",
        "is_anonymizing_for",
        "local_homogeneity",
        "neighborhoods",
        "row_lower_bound",
        "validate",
        "weight",
    ]
    for name in anonarray.__all__:
        assert getattr(anonarray, name) is not None
    # removed for want of a caller outside the tests
    removed = [
        "classify",
        "credential_of_row",
        "deficiency",
        "derive_implicit_hard",
        "suggest_credential_size",
    ]
    for name in removed:
        assert not hasattr(anonarray, name)
