import pathlib

import pytest

from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    Credential,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def cred(schema, *pairs):
    """Credential from (attribute name, value label) pairs."""
    out = []
    for name, label in pairs:
        a = schema.attribute_index(name)
        out.append((a, schema.value_index(a, label)))
    return Credential(tuple(out))


def labelled_rows(schema, rows):
    return tuple(
        tuple(schema.value_index(j, label) for j, label in enumerate(row))
        for row in rows
    )


@pytest.fixture(scope="session")
def university_schema():
    return AttributeSchema(
        (
            AttributeDef("Role", ("faculty", "graduate", "undergraduate")),
            AttributeDef("Job", ("instructor", "grader")),
            AttributeDef("Department", ("CS", "EE")),
            AttributeDef("Semester", ("Spring", "Fall")),
        )
    )


@pytest.fixture(scope="session")
def array_a(university_schema):
    rows = labelled_rows(
        university_schema,
        [
            ("faculty", "instructor", "CS", "Spring"),
            ("faculty", "instructor", "EE", "Fall"),
            ("graduate", "instructor", "CS", "Spring"),
            ("graduate", "instructor", "EE", "Fall"),
            ("undergraduate", "grader", "CS", "Fall"),
            ("undergraduate", "grader", "EE", "Spring"),
        ],
    )
    return AccessProfileArray(university_schema, rows)


@pytest.fixture(scope="session")
def array_b(university_schema, array_a):
    padding = labelled_rows(
        university_schema,
        [
            ("faculty", "instructor", "CS", "Fall"),
            ("faculty", "instructor", "EE", "Spring"),
            ("graduate", "grader", "CS", "Fall"),
            ("graduate", "grader", "EE", "Spring"),
            ("undergraduate", "grader", "CS", "Fall"),
            ("undergraduate", "grader", "EE", "Spring"),
        ],
    )
    return AccessProfileArray(university_schema, array_a.rows + padding)


@pytest.fixture(scope="session")
def university_constraints(university_schema):
    s = university_schema
    return ConstraintSet(
        hard=frozenset(
            {
                cred(s, ("Role", "faculty"), ("Job", "grader")),
                cred(s, ("Role", "undergraduate"), ("Job", "instructor")),
            }
        ),
        soft=frozenset({cred(s, ("Role", "graduate"), ("Job", "grader"))}),
    )


@pytest.fixture(scope="session")
def binary3_schema():
    return AttributeSchema(
        tuple(AttributeDef(f"a{i + 1}", ("0", "1")) for i in range(3))
    )


@pytest.fixture(scope="session")
def pair_block_constraints():
    # forbids both completions of a1=0 over a2
    return ConstraintSet(
        hard=frozenset(
            {Credential(((0, 0), (1, 0))), Credential(((0, 0), (1, 1)))}
        )
    )


@pytest.fixture(scope="session")
def halfspace_constraints():
    # the two explicit hard constraints plus their implied completions
    return ConstraintSet(
        hard=frozenset(
            {
                Credential(((0, 0), (1, 0))),
                Credential(((0, 0), (1, 1))),
                Credential(((0, 0), (2, 0))),
                Credential(((0, 0), (2, 1))),
            }
        )
    )


@pytest.fixture(scope="session")
def halfspace_array(binary3_schema):
    rows = tuple((1, b, c) for b in (0, 1) for c in (0, 1) for _ in (0, 1))
    return AccessProfileArray(binary3_schema, rows)


@pytest.fixture(scope="session")
def full_factorial(binary3_schema):
    rows = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    return AccessProfileArray(binary3_schema, rows)


@pytest.fixture(scope="session")
def fractional_replicated(binary3_schema):
    rows = ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)) * 2
    return AccessProfileArray(binary3_schema, rows)


@pytest.fixture(scope="session")
def two_groups(binary3_schema):
    rows = ((0, 0, 0), (0, 0, 0)) + ((1, 1, 1),) * 6
    return AccessProfileArray(binary3_schema, rows)


@pytest.fixture(scope="session")
def uncolourable():
    """Five three-valued attributes; a1=1 forbids every equal pair among
    a2..a5, so rows with a1=1 would 3-colour K4.  Deciding that no such row
    exists takes 48 search nodes; the smallest legal row takes 5."""
    schema = AttributeSchema(
        tuple(AttributeDef(f"a{i + 1}", ("0", "1", "2")) for i in range(5))
    )
    hard = {
        Credential(((0, 1), (i, c), (j, c)))
        for i in range(1, 5)
        for j in range(i + 1, 5)
        for c in range(3)
    }
    return schema, ConstraintSet(hard=frozenset(hard))
