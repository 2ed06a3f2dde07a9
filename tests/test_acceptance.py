"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s`.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    ConstructionConfig,
    Credential,
    check_feasibility,
    classify,
    compute_guarantee,
    construct_padding,
    derive_implicit_hard,
    global_homogeneity,
    is_anonymizing_for,
    local_homogeneity,
    row_lower_bound,
    validate,
)
from anonarray import model
from anonarray.constraints import DONT_CARE
from anonarray.io import serialize_array, serialize_schema
from conftest import cred
from oracles import (
    brute_force_counts,
    brute_force_guarantee,
    brute_force_local_homogeneity,
)

CORPUS_SEED = 20260824


def _report(criterion, started, budget, detail=""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {criterion}: {elapsed:.2f}s{suffix}")


def _random_schema(rnd, min_k=2, max_k=6):
    k = rnd.randint(min_k, max_k)
    return AttributeSchema(
        tuple(
            AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(rnd.choice((2, 3)))))
            for i in range(k)
        )
    )


def _random_credential(rnd, schema, max_size):
    size = rnd.randint(1, max_size)
    cols = sorted(rnd.sample(range(schema.k), size))
    return Credential(tuple((c, rnd.randrange(schema.sizes[c])) for c in cols))


def _random_constraints(rnd, schema, t):
    hard, soft, dont_care = set(), set(), set()
    for _ in range(rnd.randint(0, 4)):
        c = _random_credential(rnd, schema, t)
        kind = rnd.randint(0, 2)
        if kind == 0:
            hard.add(c)
        elif kind == 1 and c not in hard:
            soft.add(c)
        elif c not in hard and c not in soft:
            dont_care.add(c)
    return ConstraintSet(
        hard=frozenset(hard),
        soft=frozenset(soft - hard),
        dont_care=frozenset(dont_care - hard - soft),
    )


@pytest.fixture(scope="module")
def corpus():
    rnd = random.Random(CORPUS_SEED)
    cases = []
    for _ in range(500):
        schema = _random_schema(rnd)
        n = rnd.randint(1, 32)
        rows = tuple(
            tuple(rnd.randrange(v) for v in schema.sizes) for _ in range(n)
        )
        array = AccessProfileArray(schema, rows)
        t = rnd.randint(1, schema.k)
        constraints = _random_constraints(rnd, schema, t)
        cases.append((array, t, constraints))
    return cases


def test_criterion_1_worked_example_fidelity(
    array_a, array_b, university_constraints, university_schema
):
    started = time.monotonic()
    assert compute_guarantee(array_a, 2, university_constraints).r == 1
    assert compute_guarantee(array_b, 2, university_constraints).r == 2

    result = validate(array_b, 3, 2, university_constraints)
    assert not result.ok
    faculty_cs = cred(university_schema, ("Role", "faculty"), ("Department", "CS"))
    assert any(c == faculty_cs for _, c, _, _ in result.violations)

    result = validate(array_b, 2, 3, university_constraints)
    assert not result.ok
    grad_grader_fall = cred(
        university_schema,
        ("Role", "graduate"),
        ("Job", "grader"),
        ("Semester", "Fall"),
    )
    assert any(c == grad_grader_fall for _, c, _, _ in result.violations)

    assert is_anonymizing_for(array_a, array_b, 2, 2, university_constraints)
    _report(1, started, 1.0, "worked example fidelity")


def test_criterion_2_constraint_example_fidelity(
    binary3_schema, pair_block_constraints, halfspace_constraints, halfspace_array
):
    started = time.monotonic()
    derived = derive_implicit_hard(binary3_schema, pair_block_constraints, 2)
    bold = {Credential(((0, 0), (2, 0))), Credential(((0, 0), (2, 1)))}
    for b in bold:
        assert any(b.contains(d) for d in derived)
    assert not check_feasibility(binary3_schema, pair_block_constraints, 2).feasible

    assert check_feasibility(binary3_schema, halfspace_constraints, 2).feasible
    result = construct_padding(
        None,
        halfspace_constraints,
        ConstructionConfig(r_target=2, t=2, seed=0),
        schema=binary3_schema,
    )
    assert result.array.n_rows == 8
    assert validate(result.array, 2, 2, halfspace_constraints).ok

    report = compute_guarantee(halfspace_array, 2, halfspace_constraints)
    assert report.r == 2
    assert report.hard_violations == ()
    _report(2, started, 1.0, "constraint example fidelity")


def test_criterion_3_homogeneity_table_fidelity(
    full_factorial, fractional_replicated, two_groups
):
    started = time.monotonic()
    expected = {
        "low": (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        "medium": (Fraction(7, 12), Fraction(7, 12), Fraction(7, 12)),
        "high": (Fraction(1, 2), Fraction(3, 2), Fraction(3, 4)),
    }
    for name, array in (
        ("low", full_factorial),
        ("medium", fractional_replicated),
        ("high", two_groups),
    ):
        rep = local_homogeneity(array, 2)
        assert (rep.min, rep.max, rep.global_score) == expected[name], name
        for got, want in zip(
            (rep.min, rep.max, rep.global_score), expected[name]
        ):
            assert abs(float(got) - float(want)) < 1e-9
    _report(3, started, 1.0, "homogeneity table fidelity")


def test_criterion_4_lower_bound_fidelity(
    university_schema, university_constraints, array_a
):
    started = time.monotonic()
    assert row_lower_bound(university_schema, university_constraints, 2, 2) == 12
    result = construct_padding(
        array_a, university_constraints, ConstructionConfig(r_target=2, t=2, seed=0)
    )
    assert result.array.n_rows == 12
    assert result.meets_lower_bound
    _report(4, started, 5.0, "lower bound fidelity")


def test_criterion_5_and_8_oracle_equivalence(corpus):
    started = time.monotonic()
    for array, t, constraints in corpus:
        assert compute_guarantee(array, t, constraints).r == brute_force_guarantee(
            array, t, constraints
        )
        # criterion 8: the accumulation shortcut must equal the average
        # computed from the closeness matrix, exactly in rationals
        assert list(local_homogeneity(array, t).local) == (
            brute_force_local_homogeneity(array, t)
        )
    _report(5, started, 60.0, f"{len(corpus)} random arrays")
    print("PASS criterion 8: shortcut equals closeness-matrix average (inside 5)")


def test_criterion_6_monotonicity_properties(corpus):
    started = time.monotonic()
    rnd = random.Random(CORPUS_SEED + 1)
    for idx, (array, t, _) in enumerate(corpus):
        values = [compute_guarantee(array, s).r for s in range(1, array.k + 1)]
        assert values == sorted(values, reverse=True)
        for s in range(2, array.k + 1):
            if validate(array, 2, s).ok:
                assert all(validate(array, 2, w).ok for w in range(1, s))
        # permutation invariance on a sample to stay inside the budget
        if idx % 5 == 0:
            row_perm = list(range(array.n_rows))
            col_perm = list(range(array.k))
            rnd.shuffle(row_perm)
            rnd.shuffle(col_perm)
            permuted = AccessProfileArray(
                AttributeSchema(
                    tuple(array.schema.attributes[c] for c in col_perm)
                ),
                tuple(tuple(array.rows[i][c] for c in col_perm) for i in row_perm),
            )
            assert compute_guarantee(permuted, t).r == compute_guarantee(array, t).r
            assert global_homogeneity(permuted, t) == global_homogeneity(array, t)
    _report(6, started, 60.0, "monotonicity, closure, permutation invariance")


def test_criterion_7_construction_soundness():
    started = time.monotonic()
    rnd = random.Random(CORPUS_SEED + 2)
    instances = 0
    while instances < 100:
        schema = _random_schema(rnd, min_k=3, max_k=4)
        t = rnd.randint(1, 2)
        r_target = rnd.randint(2, 3)
        constraints = _random_constraints(rnd, schema, t)
        if not check_feasibility(schema, constraints, t).feasible:
            continue
        n_base = rnd.randint(0, 8)
        rows = []
        while len(rows) < n_base:
            row = tuple(rnd.randrange(v) for v in schema.sizes)
            if not any(h.contained_in_row(row) for h in constraints.hard):
                rows.append(row)
        base = AccessProfileArray(schema, tuple(rows)) if rows else None
        config = ConstructionConfig(
            r_target=r_target, t=t, seed=instances, restarts=1, candidates_per_row=32
        )
        result = construct_padding(base, constraints, config, schema=schema)
        instances += 1

        assert validate(result.array, r_target, t, constraints).ok
        if base is not None:
            assert result.array.rows[: base.n_rows] == base.rows
            assert is_anonymizing_for(base, result.array, r_target, t, constraints)
        for row in result.array.rows:
            assert not any(h.contained_in_row(row) for h in constraints.hard)
        for soft in constraints.soft:
            if len(soft) > t:
                continue
            count = sum(
                1 for row in result.array.rows if soft.contained_in_row(row)
            )
            assert count == 0 or count >= r_target
        assert result.array.n_rows >= row_lower_bound(
            schema, constraints, r_target, t
        )

        rerun = construct_padding(base, constraints, config, schema=schema)
        assert rerun.array.rows == result.array.rows
    _report(7, started, 120.0, f"{instances} randomized instances")


def test_criterion_9_feasibility_cost_follows_components():
    # k=32, v=4, t=3 has 317,440 size-3 credentials; six random hard pairs
    # join at most 12 attributes, and the walk stays inside them; the
    # lower bound looks only at the constrained tuples of each column set
    rnd = random.Random(CORPUS_SEED + 3)
    schema = AttributeSchema(
        tuple(AttributeDef(f"a{i + 1}", tuple("0123")) for i in range(32))
    )
    random_pairs = [
        Credential(tuple((a, rnd.randrange(4)) for a in rnd.sample(range(32), 2)))
        for _ in range(6)
    ]
    # every value of a2 is forbidden under a1=0, so {a1=0} is derived
    planted = [Credential(((0, 0), (1, x))) for x in range(4)]
    started = time.monotonic()
    for hard in (random_pairs, random_pairs + planted):
        constraints = ConstraintSet(hard=frozenset(hard))
        report = check_feasibility(schema, constraints, 3)
        # some triple holds no hard pair, so all 4^3 of its tuples count
        assert row_lower_bound(schema, constraints, 2, 3) == 2 * 4**3
        # the same system with the free attributes dropped
        kept = sorted({a for h in hard for a in h.attributes})
        index = {a: i for i, a in enumerate(kept)}
        reduced = check_feasibility(
            AttributeSchema(tuple(schema.attributes[a] for a in kept)),
            ConstraintSet(
                hard=frozenset(
                    Credential(tuple((index[a], v) for a, v in h.pairs)) for h in hard
                )
            ),
            3,
        )

        def widen(c):
            return Credential(tuple((kept[a], v) for a, v in c.pairs))

        assert report.implicit_hard == {widen(c) for c in reduced.implicit_hard}
        # free attributes only add witnesses, each holding a free attribute
        inside = {(widen(c), reason) for c, reason in reduced.witnesses}
        assert inside <= set(report.witnesses)
        for c, _ in set(report.witnesses) - inside:
            assert not set(c.attributes) <= set(kept)
    assert report.implicit_hard == {Credential(((0, 0),))}
    assert len(report.witnesses) > len(reduced.witnesses)
    _report(9, started, 1.0, "k=32 v=4 t=3, 6 random hard pairs, then 4 planted")


def test_criterion_11_guarantee_cost_follows_the_appearing_tuples():
    # N=50, k=10, v=6, t=7 with don't-care {a2=0}: expanding the constraint
    # would write 6^6 kinds in each of the 84 column sets holding a2, while
    # at most 50 tuples appear in each
    rnd = random.Random(CORPUS_SEED + 11)
    schema = AttributeSchema(
        tuple(AttributeDef(f"a{i + 1}", tuple("012345")) for i in range(10))
    )
    rows = tuple(tuple(rnd.randrange(6) for _ in range(10)) for _ in range(50))
    array = AccessProfileArray(schema, rows)
    constraints = ConstraintSet(dont_care=frozenset({Credential(((1, 0),))}))
    expected = min(
        n
        for cols in itertools.combinations(range(10), 7)
        for values, n in brute_force_counts(array, cols).items()
        if classify(Credential(tuple(zip(cols, values))), constraints) != DONT_CARE
    )
    started = time.monotonic()
    assert compute_guarantee(array, 7, constraints).r == expected
    _report(11, started, 0.1, "N=50 k=10 v=6 t=7, one don't-care pair")


# Builds a seeded array and scores it: uniform random rows, or with a
# nonzero `distinct`, rows drawn from that many seeded random rows.  Prints
# the number of local scores and the process's own peak resident set
# (ru_maxrss, KB on Linux).
_HOMOGENEITY_WORKER = """
import random, resource, sys
from anonarray import (
    AccessProfileArray, AttributeDef, AttributeSchema, local_homogeneity
)
seed, n, k, v, t, distinct = map(int, sys.argv[1:])
rnd = random.Random(seed)
schema = AttributeSchema(
    tuple(AttributeDef(f"a{i + 1}", tuple(str(x) for x in range(v))) for i in range(k))
)
draw = lambda: tuple(rnd.randrange(v) for _ in range(k))
pool = [draw() for _ in range(distinct)]
rows = tuple(rnd.choice(pool) if pool else draw() for _ in range(n))
report = local_homogeneity(AccessProfileArray(schema, rows), t)
print(len(report.local), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# An exec'd process starts with the peak resident set of the process that
# started it, here the test runner; a small launcher in between keeps the
# worker's ru_maxrss its own.
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def _score_in_worker(n, distinct):
    """(local scores, peak RSS in MB) of the worker at k=10, v=3, t=2."""
    src = Path(__file__).resolve().parent.parent / "src"
    # the worker reads seed, N, k, v, t, distinct
    worker = [sys.executable, "-c", _HOMOGENEITY_WORKER, str(CORPUS_SEED), str(n)]
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *worker, "10", "3", "2", str(distinct)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    scored, maxrss_kb = map(int, proc.stdout.split())
    return scored, maxrss_kb / 1024


def test_criterion_10_homogeneity_at_the_documented_limit():
    # N=20000, k=10, v=3, t=2: one N-bit mask per row would hold 50 MB alone
    n, budget_mb = 20000, 80
    started = time.monotonic()
    scored, peak_mb = _score_in_worker(n, 0)
    assert scored == n
    assert peak_mb <= budget_mb, f"peak RSS {peak_mb:.1f} MB over {budget_mb} MB"
    _report(10, started, 60.0, f"N={n} k=10 v=3 t=2, peak RSS {peak_mb:.1f} MB")


def test_criterion_13_homogeneity_scores_each_distinct_row_once():
    # 20000 rows drawn from 2000: scoring every row on its own peaks near
    # 37 MB, scoring each distinct row once near 20 MB
    n, distinct, budget_mb = 20000, 2000, 30
    started = time.monotonic()
    scored, peak_mb = _score_in_worker(n, distinct)
    assert scored == n
    assert peak_mb <= budget_mb, f"peak RSS {peak_mb:.1f} MB over {budget_mb} MB"
    _report(13, started, 30.0, f"N={n} of {distinct} distinct, k=10 v=3 t=2, "
            f"peak RSS {peak_mb:.1f} MB")


# Pads a base of 20000 copies of one seeded row plus 30 seeded random rows
# (k=8, v=3, t=3, r=2, homogeneity weight 1/2, no restarts); prints the
# padding count, the achieved r and the process's own peak resident set.
_HEAVY_BASE_WORKER = """
import random, resource, sys
from fractions import Fraction
from anonarray import (
    AccessProfileArray, AttributeDef, AttributeSchema, ConstraintSet,
    ConstructionConfig, construct_padding,
)
seed, copies = map(int, sys.argv[1:])
rnd = random.Random(seed)
schema = AttributeSchema(
    tuple(AttributeDef(f"a{i + 1}", ("0", "1", "2")) for i in range(8))
)
heavy = tuple(rnd.randrange(3) for _ in range(8))
rows = [heavy] * copies + [tuple(rnd.randrange(3) for _ in range(8)) for _ in range(30)]
config = ConstructionConfig(
    r_target=2, t=3, seed=1, restarts=0, homogeneity_weight=Fraction(1, 2)
)
result = construct_padding(AccessProfileArray(schema, rows), ConstraintSet(), config)
print(result.padding_count, result.achieved.r,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_criterion_12_construct_over_a_heavy_base():
    # counts met run from 0 to 20000: ranking keys must scale by the lcm of
    # the counts met, not of every count up to the largest
    copies, budget_mb = 20000, 40
    src = Path(__file__).resolve().parent.parent / "src"
    worker = [sys.executable, "-c", _HEAVY_BASE_WORKER, str(CORPUS_SEED), str(copies)]
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *worker],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    padding, achieved, maxrss_kb = map(int, proc.stdout.split())
    assert padding > 0 and achieved >= 2
    peak_mb = maxrss_kb / 1024
    assert peak_mb <= budget_mb, f"peak RSS {peak_mb:.1f} MB over {budget_mb} MB"
    _report(12, started, 5.0, f"{copies} + 30 rows k=8 v=3 t=3, peak RSS {peak_mb:.1f} MB")


# Runs the CLI's main on its arguments, with stdout as the caller sets it;
# prints the process's own peak resident set (KB) to stderr.
_CLI_WORKER = """
import resource, sys
from anonarray.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def _uniform_array(seed, n, k, v):
    rnd = random.Random(seed)
    schema = AttributeSchema(
        tuple(AttributeDef(f"a{i + 1}", tuple(map(str, range(v)))) for i in range(k))
    )
    rows = tuple(tuple(rnd.randrange(v) for _ in range(k)) for _ in range(n))
    return AccessProfileArray(schema, rows)


def _cli_in_worker(tmp_path, array, command, *flags):
    """(stdout, peak RSS in MB) of `anonarray COMMAND SCHEMA ARRAY FLAGS`,
    run in a worker on `array` written to files; the command must exit 0."""
    (tmp_path / "s.json").write_text(serialize_schema(array.schema))
    (tmp_path / "a.csv").write_text(serialize_array(array))
    argv = [command, tmp_path / "s.json", tmp_path / "a.csv", *flags]
    src = Path(__file__).resolve().parent.parent / "src"
    worker = [sys.executable, "-c", _CLI_WORKER, *map(str, argv)]
    with open(tmp_path / "out.txt", "w") as out:
        proc = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, *worker],
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=300,
        )
    assert proc.returncode == 0, proc.stderr
    return (tmp_path / "out.txt").read_text(), int(proc.stderr.split()[-1]) / 1024


def _closeness_in_worker(tmp_path, *flags):
    """(stdout, peak RSS in MB) of `homogeneity --closeness` in a worker at
    N=1000, k=8, v=3, t=2 on seeded uniform rows."""
    array = _uniform_array(CORPUS_SEED, 1000, 8, 3)
    return _cli_in_worker(tmp_path, array, "homogeneity", "--t", "2", "--closeness", *flags)


def test_criterion_14_closeness_text_streams_rows(tmp_path):
    # the N x N matrix of Fractions and its rendering held at once peak
    # near 95 MB; one integer row at a time stays near start-up
    n, budget_mb = 1000, 40
    started = time.monotonic()
    out, peak_mb = _closeness_in_worker(tmp_path)
    lines = out.splitlines()
    # the summary, one score line per row, then one closeness row per row
    assert len(lines) == 1 + 2 * n
    assert all(len(line.split()) == n for line in lines[1 + n:])
    assert peak_mb <= budget_mb, f"peak RSS {peak_mb:.1f} MB over {budget_mb} MB"
    _report(14, started, 5.0, f"N={n} k=8 v=3 t=2, peak RSS {peak_mb:.1f} MB")


def test_criterion_15_closeness_json_streams_rows(tmp_path):
    # the rendered matrix and the document json.dumps builds from it held
    # at once peak near 172 MB; written a row at a time, near start-up
    n, budget_mb = 1000, 40
    started = time.monotonic()
    out, peak_mb = _closeness_in_worker(tmp_path, "--json")
    closeness = json.loads(out)["closeness"]
    assert len(closeness) == n
    assert all(len(row) == n for row in closeness)
    assert peak_mb <= budget_mb, f"peak RSS {peak_mb:.1f} MB over {budget_mb} MB"
    _report(15, started, 5.0, f"N={n} k=8 v=3 t=2, peak RSS {peak_mb:.1f} MB")


def test_criterion_16_verify_at_the_stated_limit(tmp_path):
    # W1: N=20000, k=10, v=3, t=3 has 27 value tuples per column set, so
    # every set is counted by ANDing row masks; counting each row's code
    # took about 0.2 s.  The worker peaks near 21.5 MB either way, most of
    # it start-up and the parsed CSV
    n, budget_mb = 20000, 30
    array = _uniform_array(CORPUS_SEED + 16, n, 10, 3)
    started = time.monotonic()
    result = validate(array, 2, 3, ConstraintSet())
    _report(16, started, 0.1, f"N={n} k=10 v=3 t=3, r={result.report.r}")
    with mock.patch.object(model, "_use_bits", lambda array, cols: False):
        coded = validate(AccessProfileArray(array.schema, array.rows), 2, 3, ConstraintSet())
    assert result.ok and result.report.r == coded.report.r
    assert result.report.min_witness == coded.report.min_witness
    out, peak_mb = _cli_in_worker(tmp_path, array, "verify", "--t", "3", "--r", "2", "--json")
    doc = json.loads(out)
    assert (doc["r"], doc["valid"]) == (result.report.r, True)
    assert peak_mb <= budget_mb, f"peak RSS {peak_mb:.1f} MB over {budget_mb} MB"
    print(f"     verify --json in a worker: peak RSS {peak_mb:.1f} MB")
