"""Seeded benchmark of the anonarray CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload audit --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

`--trace 0` runs the named workload's CLI jobs one subprocess at a time,
in a closed loop with one client, for `--seconds`; it checks every
output and reports the end-to-end metrics (`all` runs the four in turn).
`--trace 1` traces every workload, whichever is named, in rounds of
three operations: through the CLI, in-process, and in-process with a
span around every public function of the layer modules; it reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

Inputs, outputs and span dumps go to .perfbench/ under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import gen
import spans
import workloads

# The console-script entry point, `anonarray = anonarray.cli:main`.
ENTRY = "import sys; from anonarray.cli import main; sys.exit(main())"
# Set-up: interpreter start, `import anonarray`, and loading the inputs.
SETUP = """
import sys
import anonarray
from anonarray import io
schema = None
for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):
    if kind == "schema":
        schema = io.load_schema(path)
    elif kind == "array":
        io.load_array(path, schema)
    else:
        io.load_constraints(path, schema)
"""
# Set-up is timed twice after every operation, so that it samples the
# same stretch of machine load as the operations do, and at least 9 times.
# Every subprocess is started by this small launcher and reaped with
# os.wait4 there.  Linux charges a child's ru_maxrss with the resident set
# of the process that spawned it, so spawning from the benchmark process
# itself, which grows while it checks outputs, would leak its size into
# peak_rss_mb.  Protocol, one JSON line each way: the job in; the child's
# pid out; then [exit code, wall seconds, ru_maxrss in KiB] out.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    args, stdout, stderr = json.loads(line)
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err)
        print(proc.pid, flush=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)
"""
SETUP_PER_OP = 2
SETUP_MIN = 9
STARTUP_REPS = 5
MIN_OPS = 3
# Every job is killed past this many seconds from the start of the run.
RUN_LIMIT_S = 160

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of each workload's traced operation.  A time is listed
# only where the workload runs that layer; a count is listed also where it
# should stay near zero.  README.md names the end-to-end metric each one
# should move.
LAYER_METRICS = {
    "audit": {
        "io.load_array.s": "s",
        "io.load_constraints.s": "s",
        "model.count_credentials.calls": "count",
        "model.count_credentials.s": "s",
        "model.rows_projected": "count",
        "model.distinct_tuples": "count",
        "model.credential_count.calls": "count",
        "constraints.classify.calls": "count",
        "constraints.classify.s": "s",
        "verify.compute_guarantee.calls": "count",
        "verify.compute_guarantee.self_s": "s",
        "verify.validate.self_s": "s",
    },
    "score": {
        "io.load_array.s": "s",
        "model.count_credentials.calls": "count",
        "constraints.classify.calls": "count",
        "homogeneity.neighborhoods.calls": "count",
        "homogeneity.neighborhoods.s": "s",
        "homogeneity.neighborhoods.members": "count",
        "homogeneity.local_homogeneity.self_s": "s",
        "homogeneity.export_hypergraph.s": "s",
    },
    "pad": {
        "io.load_array.s": "s",
        "io.serialize_array.s": "s",
        "model.count_credentials.calls": "count",
        "constraints.classify.calls": "count",
        "constraints.classify.s": "s",
        "constraints.derive_implicit_hard.calls": "count",
        "constraints.derive_implicit_hard.s": "s",
        "constraints.check_feasibility.s": "s",
        "constraints.row_lower_bound.s": "s",
        "verify.compute_guarantee.calls": "count",
        "verify.compute_guarantee.self_s": "s",
        "homogeneity.global_homogeneity.s": "s",
        "construct.construct_padding.self_s": "s",
        "construct.classify_calls": "count",
        "construct.rows_appended": "count",
        "construct.classify_per_padding_row": "ratio",
        "construct.padding_rows": "count",
        "construct.rows_over_bound": "ratio",
        "construct.output_homogeneity": "score",
    },
    "derive": {
        "io.load_constraints.s": "s",
        "model.count_credentials.calls": "count",
        "constraints.classify.calls": "count",
        "constraints.classify.s": "s",
        "constraints.derive_implicit_hard.calls": "count",
        "constraints.derive_implicit_hard.s": "s",
        "constraints.check_feasibility.s": "s",
    },
}
COMMON_LAYER_METRICS = {
    "cli.overhead_s": "s",
    "cli.main.self_s": "s",
    "trace.layer_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER = {"cli.startup_s": "s"}
for _name, _metrics in LAYER_METRICS.items():
    for _metric, _unit in {**_metrics, **COMMON_LAYER_METRICS}.items():
        PER_LAYER[f"{_name}.{_metric}"] = _unit
# Units of the per-layer metrics that count work: they must repeat exactly.
COUNT_UNITS = ("count", "ratio", "score")


class Runner:
    """Runs Python subprocesses against the checkout's own source tree,
    one at a time, through LAUNCHER."""

    def __init__(self, root: str, started: float):
        self.root = root
        self.started = started
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("PYTHONHOME", None)
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, cwd=root)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def spawn(self, args, stdout_path, stderr_path):
        """(exit code, wall seconds, peak RSS in MB) of one subprocess."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        self.launcher.stdin.write(
            json.dumps([[sys.executable, *args], stdout_path, stderr_path]) + "\n")
        self.launcher.stdin.flush()
        pid = int(self.launcher.stdout.readline())
        timer = threading.Timer(timeout, _kill, (pid,))
        timer.start()
        try:
            code, wall, maxrss_kib = json.loads(self.launcher.stdout.readline())
        finally:
            timer.cancel()
        return code, wall, maxrss_kib / 1024.0

    def cli(self, argv, scratch):
        return self.spawn(["-c", ENTRY, *argv], scratch + ".stdout", scratch + ".stderr")

    def timed(self, args, reps, scratch):
        """Wall seconds of `reps` runs of a command that must succeed."""
        walls = []
        for _ in range(reps):
            code, wall, _ = self.spawn(args, scratch + ".stdout", scratch + ".stderr")
            if code != 0:
                with open(scratch + ".stderr", encoding="utf-8", errors="replace") as fh:
                    raise RuntimeError(f"{args[:2]} exited {code}: {fh.read()[-400:]}")
            walls.append(wall)
        return walls

    def over_time(self):
        return time.perf_counter() - self.started > RUN_LIMIT_S


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended on its own meanwhile
        pass


def _read(path):
    if path is None or not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def _clear(job):
    if job.output is not None and os.path.exists(job.output):
        os.remove(job.output)


class Outcomes:
    """Checks every job output once per distinct (code, stdout, file) and
    requires every run of a job to give the same bytes as its first."""

    def __init__(self):
        self.first = {}
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, job, code, stdout: bytes, output: bytes):
        self.attempted += 1
        key = (code, stdout, output)
        first = self.first.setdefault(job.label, key)
        problems = []
        if key != first:
            problems.append("output differs from the first run with the same inputs")
        if key not in self.verdicts:
            try:
                self.verdicts[key] = job.check(
                    code, stdout.decode("utf-8"), output.decode("utf-8"))
            except Exception as exc:  # a malformed output must count as failed
                self.verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
        problems += self.verdicts[key]
        if problems:
            self.failed += 1
            self.problems.append(f"{job.label}: " + "; ".join(problems[:3]))


def run_cli_op(runner, jobs, scratch):
    """One operation's jobs through the CLI: (wall, peak RSS, records)."""
    wall, rss, records = 0.0, 0.0, []
    for job in jobs:
        _clear(job)
        code, w, m = runner.cli(job.argv, scratch)
        wall += w
        rss = max(rss, m)
        records.append((job, code, _read(scratch + ".stdout"), _read(job.output)))
    return wall, rss, records


def run_untraced(runner, workload, seconds, scratch):
    outcomes = Outcomes()
    setup_args = ["-c", SETUP] + [x for pair in workload.loads for x in pair]
    setups, walls, rsss, stdouts = [], [], [], {}
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        wall, rss, records = run_cli_op(runner, workload.jobs, scratch)
        walls.append(wall)
        rsss.append(rss)
        for record in records:
            outcomes.add(*record)
            if record[0].label not in stdouts:
                stdouts[record[0].label] = record[2].decode()
        setups += runner.timed(setup_args, SETUP_PER_OP, scratch)
        if runner.over_time():
            break
    setups += runner.timed(setup_args, max(0, SETUP_MIN - len(setups)), scratch)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rsss),
    }
    notes = {"ops": len(walls), "wall_s_all": [round(w, 4) for w in walls],
             **workloads.quality(workload, stdouts)}
    return metrics, outcomes, notes


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import anonarray
    import anonarray.cli

    where = os.path.realpath(anonarray.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"anonarray imported from {where}, not from {src}")
    return anonarray, anonarray.cli


def _in_process(main, job):
    _clear(job)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(job.argv)
    return code, out.getvalue().encode("utf-8")


def run_inprocess_op(main, jobs):
    """One operation's jobs through `main` in this process: (wall, records)."""
    wall, records = 0.0, []
    for job in jobs:
        t0 = time.perf_counter()
        code, stdout = _in_process(main, job)
        wall += time.perf_counter() - t0
        records.append((job, code, stdout, _read(job.output)))
    return wall, records


def layer_metrics(recorder, stdouts, workload):
    """The workload's LAYER_METRICS and COMMON_LAYER_METRICS for one traced
    operation, given its stdout by job label (the two overheads are filled
    in by the caller)."""
    summary = recorder.summary()
    classify_calls = recorder.descendants_of("construct.construct_padding", "constraints.classify")
    appended = recorder.counts["construct.rows_appended"]
    q = workloads.quality(workload, stdouts)
    derived = {
        "construct.classify_calls": classify_calls,
        "construct.rows_appended": appended,
        "construct.classify_per_padding_row": classify_calls / appended if appended else 0.0,
        "construct.padding_rows": q.get("padding_rows", 0),
        "construct.rows_over_bound": q.get("rows_over_bound", 0.0),
        "construct.output_homogeneity": q.get("output_homogeneity", 0.0),
        "cli.main.self_s": summary.get("cli.main", {}).get("self_s", 0.0),
        "trace.layer_s": sum(v["self_s"] for k, v in summary.items() if k != "cli.main"),
    }
    out = {}
    for metric in LAYER_METRICS[workload.name]:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in recorder.counts:
            out[metric] = recorder.counts[metric]
        else:
            span, _, field = metric.rpartition(".")
            out[metric] = summary.get(span, {}).get(field, 0)
    out["cli.main.self_s"] = derived["cli.main.self_s"]
    out["trace.layer_s"] = derived["trace.layer_s"]
    return out


def trace_workload(runner, package, cli, workload, seconds, scratch, trace_path):
    """Rounds of three operations: through the CLI, in-process, and
    in-process traced."""
    outcomes = Outcomes()
    cli_walls, plain_walls, traced_walls, per_round = [], [], [], []
    first_recorder = None
    deadline = time.perf_counter() + seconds
    while not per_round or time.perf_counter() < deadline:
        wall, _, records = run_cli_op(runner, workload.jobs, scratch)
        cli_walls.append(wall)
        for record in records:
            outcomes.add(*record)

        gc.collect()
        wall, records = run_inprocess_op(cli.main, workload.jobs)
        plain_walls.append(wall)
        for record in records:
            outcomes.add(*record)

        gc.collect()
        recorder = spans.Recorder()
        with spans.traced(package, recorder):
            wall, records = run_inprocess_op(recorder.wrap("cli.main", cli.main), workload.jobs)
        traced_walls.append(wall)
        for record in records:
            outcomes.add(*record)
        per_round.append(layer_metrics(
            recorder, {job.label: stdout.decode() for job, _, stdout, _ in records}, workload))
        if first_recorder is None:
            first_recorder = recorder
        if runner.over_time():
            break
    first_recorder.dump(trace_path)

    units = {**LAYER_METRICS[workload.name], **COMMON_LAYER_METRICS}
    metrics = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if units[name] in COUNT_UNITS:
            if len(set(values)) != 1:
                outcomes.failed += 1
                outcomes.problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    plain = statistics.median(plain_walls)
    metrics["cli.overhead_s"] = statistics.median(cli_walls) - plain
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - plain
    notes = {"rounds": len(per_round), "cli_wall_s": statistics.median(cli_walls),
             "inprocess_wall_s": plain, "traced_wall_s": statistics.median(traced_walls)}
    return metrics, outcomes, notes


def _report(name, metrics, units, outcomes, notes, seed, trace):
    """Human-readable lines: every metric by name with its unit."""
    print(f"# {name}: seed {seed}, trace {trace}, {json.dumps(notes)}")
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    print(f"{name} fail_ratio = {outcomes.failed / outcomes.attempted:g} "
          f"({outcomes.failed}/{outcomes.attempted})")
    for problem in outcomes.problems[:10]:
        print(f"{name} FAILED {problem}")


def run_all(args, root, runner):
    """Generate the inputs, run the workloads and print the result line."""
    work = os.path.join(".perfbench", f"seed{args.seed}")
    dirs = gen.write_all(args.seed, work)
    # Compile and cache the package before any timing.
    warm = os.path.join(work, "warm")
    runner.timed(["-c", "import anonarray.cli"], 1, warm)

    metrics, units, all_outcomes = {}, {}, []
    if args.trace:
        # Every workload is traced, whichever --workload is named, so that
        # each per-layer metric is measured on the workload that runs it.
        startup = statistics.median(runner.timed(["-c", ENTRY, "--help"], STARTUP_REPS, warm))
        print(f"cli.startup_s = {startup:.6g} s")
        metrics["cli.startup_s"] = startup
        package, cli = _import_package(root)
        for name in gen.WORKLOADS:
            workload = workloads.build(name, dirs[name])
            out = os.path.join(dirs[name], "out")
            m, outcomes, notes = trace_workload(
                runner, package, cli, workload, args.seconds / len(gen.WORKLOADS),
                os.path.join(out, "job"), os.path.join(out, "trace.json"))
            m = {f"{name}.{k}": v for k, v in m.items()}
            _report(name, m, PER_LAYER, outcomes, notes, args.seed, 1)
            metrics.update(m)
            all_outcomes.append(outcomes)
        units = PER_LAYER
    else:
        names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            workload = workloads.build(name, dirs[name])
            m, outcomes, notes = run_untraced(
                runner, workload, args.seconds, os.path.join(dirs[name], "out", "job"))
            _report(name, {f"{name}.{k}": v for k, v in m.items()},
                    {f"{name}.{k}": u for k, u in END_TO_END.items()}, outcomes, notes,
                    args.seed, 0)
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, value in m.items():
                metrics[prefix + metric] = value
                units[prefix + metric] = END_TO_END[metric]
            all_outcomes.append(outcomes)

    attempted = sum(o.attempted for o in all_outcomes)
    failed = sum(o.failed for o in all_outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark of the anonarray CLI.")
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "anonarray", "cli.py")):
        print("error: run from the root of an anonarray checkout (src/anonarray not found)",
              file=sys.stderr)
        return 2

    runner = Runner(root, started)
    try:
        return run_all(args, root, runner)
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
