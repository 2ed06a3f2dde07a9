"""Tests of the benchmark itself: generator, checkers and tracing.

Run from the repository root:  python3 -m pytest perfbench -q

The checkers are run on real CLI output for small instances of each
workload, then on corrupted copies of it, which they must reject.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import anonarray  # noqa: E402
import anonarray.cli  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {"AUDIT_N": 300, "SCORE_N": 120, "PAD_N0": 30}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """Small instances of every workload, with one real CLI output per job."""
    saved = {name: getattr(gen, name) for name in SMALL}
    for name, value in SMALL.items():
        setattr(gen, name, value)
    try:
        root = tmp_path_factory.mktemp("bench")
        dirs = gen.write_all(7, str(root))
    finally:
        for name, value in saved.items():
            setattr(gen, name, value)
    built = {name: workloads.build(name, d) for name, d in dirs.items()}
    outputs = {}
    for name, workload in built.items():
        for job in workload.jobs:
            code, stdout = _run(job.argv)
            outputs[job.label] = (code, stdout, _read(job.output))
    return built, outputs, dirs


def _run(argv, main=anonarray.cli.main):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _read(path):
    if path is None:
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _job(built, label):
    return next(j for w in built.values() for j in w.jobs if j.label == label)


# --- generator ----------------------------------------------------------


def test_same_seed_gives_byte_identical_files(tmp_path):
    a = gen.write_all(3, str(tmp_path / "a"))
    b = gen.write_all(3, str(tmp_path / "b"))
    c = gen.write_all(4, str(tmp_path / "c"))
    differs = False
    for name in gen.WORKLOADS:
        files = sorted(os.listdir(a[name]))
        assert files == sorted(os.listdir(b[name]))
        for f in files:
            with open(os.path.join(a[name], f), "rb") as x, open(os.path.join(b[name], f), "rb") as y:
                assert x.read() == y.read(), (name, f)
            with open(os.path.join(a[name], f), "rb") as x, open(os.path.join(c[name], f), "rb") as z:
                differs |= x.read() != z.read()
    assert differs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arrays_never_contain_a_hard_constraint(tmp_path, seed):
    dirs = gen.write_all(seed, str(tmp_path))
    for name, array in (("audit", "array.csv"), ("pad", "base.csv")):
        d = dirs[name]
        inputs = checks.Inputs(
            os.path.join(d, "schema.json"), os.path.join(d, array),
            os.path.join(d, "constraints.json"))
        assert len(inputs.hard) == 2
        assert not any(checks.contains(row, h) for row in inputs.rows for h in inputs.hard)


# --- checkers accept real output ... -------------------------------------


@pytest.mark.parametrize(
    "label", ["verify", "homogeneity", "construct-base", "construct-scratch", "constraints-derive"])
def test_checker_accepts_real_output(small, label):
    built, outputs, _ = small
    assert _job(built, label).check(*outputs[label]) == []


def test_derive_output_is_infeasible_with_exit_code_5(small):
    _, outputs, _ = small
    code, stdout, _ = outputs["constraints-derive"]
    assert code == 5
    assert json.loads(stdout)["feasible"] is False


# --- ... and reject corrupted output ------------------------------------


def _flip_cell(csv_text, row_index):
    rows = list(csv.reader(csv_text.splitlines()))
    cell = rows[row_index + 1][0]
    rows[row_index + 1][0] = "v1" if cell == "v0" else "v0"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("where", ["base", "padding"])
def test_construct_checker_rejects_a_flipped_cell(small, where):
    built, outputs, _ = small
    job = _job(built, "construct-base")
    code, stdout, text = outputs["construct-base"]
    row = 0 if where == "base" else len(text.splitlines()) - 2
    assert job.check(code, stdout, _flip_cell(text, row))


def test_construct_checker_rejects_a_wrong_row_count(small):
    built, outputs, _ = small
    code, stdout, text = outputs["construct-scratch"]
    doc = json.loads(stdout)
    doc["rows"] += 1
    assert _job(built, "construct-scratch").check(code, json.dumps(doc), text)


def test_verify_checker_rejects_a_wrong_r(small):
    built, outputs, _ = small
    code, stdout, _ = outputs["verify"]
    doc = json.loads(stdout)
    doc["r"] += 1
    assert any("r =" in p for p in _job(built, "verify").check(code, json.dumps(doc), ""))


def test_verify_checker_rejects_a_wrong_valid_flag(small):
    built, outputs, _ = small
    code, stdout, _ = outputs["verify"]
    doc = json.loads(stdout)
    doc["valid"] = not doc["valid"]
    assert _job(built, "verify").check(code, json.dumps(doc), "")


def test_homogeneity_checker_rejects_a_wrong_global(small):
    built, outputs, _ = small
    code, stdout, _ = outputs["homogeneity"]
    decoder = json.JSONDecoder()
    doc, end = decoder.raw_decode(stdout)
    doc["global"] = checks.render(float(doc["global"]) * 1.001)
    corrupted = json.dumps(doc) + "\n" + stdout[end:]
    assert any("global" in p for p in _job(built, "homogeneity").check(code, corrupted, ""))


def test_homogeneity_checker_rejects_a_wrong_local_score(small):
    built, outputs, _ = small
    code, stdout, _ = outputs["homogeneity"]
    doc, end = json.JSONDecoder().raw_decode(stdout)
    doc["local"][3] = "0.123456"
    corrupted = json.dumps(doc) + "\n" + stdout[end:]
    assert _job(built, "homogeneity").check(code, corrupted, "")


def test_derive_checker_rejects_a_bogus_implicit_credential(small):
    built, outputs, _ = small
    code, stdout, _ = outputs["constraints-derive"]
    doc = json.loads(stdout)
    doc["implicit_hard"].append([["a5", "v2"], ["a9", "v1"]])
    problems = _job(built, "constraints-derive").check(code, json.dumps(doc), "")
    assert any("legal row contains it" in p for p in problems)


def test_derive_checker_rejects_a_wrong_exit_code(small):
    built, outputs, _ = small
    _, stdout, _ = outputs["constraints-derive"]
    assert _job(built, "constraints-derive").check(0, stdout, "")


def test_legal_row_search_agrees_with_brute_force():
    import itertools

    inputs = checks.Inputs.__new__(checks.Inputs)
    inputs.k, inputs.sizes = 4, [2, 2, 2, 2]
    inputs.hard = [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((2, 1), (3, 0))]
    for size in (1, 2):
        for cols in itertools.combinations(range(4), size):
            for values in itertools.product((0, 1), repeat=size):
                cred = tuple(zip(cols, values))
                brute = any(
                    checks.contains(row, cred)
                    and not any(checks.contains(row, h) for h in inputs.hard)
                    for row in itertools.product((0, 1), repeat=4)
                )
                assert (checks.legal_row_with(inputs, cred) is not None) == brute, cred


# --- tracing ------------------------------------------------------------


def _traced_counts(workload):
    recorder = spans.Recorder()
    main = recorder.wrap("cli.main", anonarray.cli.main)
    with spans.traced(anonarray, recorder):
        stdouts = {job.label: _run(job.argv, main)[1] for job in workload.jobs}
    return recorder, run.layer_metrics(recorder, stdouts, workload)


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_traced_counts_repeat_exactly(small, name):
    built, _, _ = small
    _, first = _traced_counts(built[name])
    _, second = _traced_counts(built[name])
    units = {**run.LAYER_METRICS[name], **run.COMMON_LAYER_METRICS}
    counts = {k: v for k, v in first.items() if units[k] in run.COUNT_UNITS}
    assert counts == {k: second[k] for k in counts}


def test_tracing_wraps_shared_references_and_restores_them(small):
    built, _, _ = small
    original = anonarray.construct.classify
    assert anonarray.verify.classify is original
    recorder = spans.Recorder()
    with spans.traced(anonarray, recorder):
        assert anonarray.construct.classify is anonarray.verify.classify
        assert anonarray.construct.classify is not original
    assert anonarray.construct.classify is original
    assert anonarray.verify.classify is original
    recorder, metrics = _traced_counts(built["audit"])
    assert metrics["verify.compute_guarantee.calls"] == 2
    assert metrics["constraints.classify.calls"] > 0
    assert metrics["model.count_credentials.calls"] > 0


def test_self_time_subtracts_direct_children_only():
    recorder = spans.Recorder()
    recorder.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    summary = recorder.summary()
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert summary["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert recorder.descendants_of("a", "c") == 1
    assert recorder.descendants_of("c", "b") == 0


# --- metric lists and start-up ---------------------------------------


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
