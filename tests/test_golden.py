"""Byte-exact CLI outputs pinned on the fixtures.

Each case runs `anonarray.cli.main` in-process and compares its exit
code, its stdout and, for `construct -o`, the written CSV with the
golden files under `fixtures/golden/`, one JSON document per subcommand.
Refactors must leave every one of them unchanged.

Regenerate (only when an output change is intended and stated):

    PYTHONPATH=src python tests/test_golden.py

It prints the id of each case whose result changed, as pytest names it,
before writing the files.
"""

import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from anonarray.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

# (schema, arrays, constraint files, homogeneity t values) per fixture
# family; binary3 has k = 3, so at t = 3 only identical rows are neighbours
_FAMILIES = (
    (
        "university_schema.json",
        ("array_a.csv", "array_b.csv"),
        ("university_constraints.json",),
        (1, 2),
    ),
    (
        "binary3_schema.json",
        ("full_factorial.csv", "fractional_replicated.csv", "halfspace_array.csv",
         "two_groups.csv"),
        ("halfspace_constraints.json", "pair_block_constraints.json"),
        (1, 2, 3),
    ),
)


# arrays whose closeness matrix is pinned, text and JSON, at t = 1 and 2
_CLOSENESS = ("array_a.csv", "full_factorial.csv", "fractional_replicated.csv",
              "halfspace_array.csv", "two_groups.csv")


def _stem(name):
    return name.rsplit(".", 1)[0]


def cases():
    """{subcommand: {case id: argv}}; `OUT` marks the construct output path."""
    out = {"verify": {}, "profile": {}, "homogeneity": {}, "construct": {},
           "constraints-derive": {}}
    for schema, arrays, constraint_files, homogeneity_ts in _FAMILIES:
        for array in arrays:
            for cons in (None,) + constraint_files:
                tail = [cons] if cons else []
                tag = f"{_stem(array)}+{_stem(cons) if cons else 'none'}"
                for t in (1, 2, 3):
                    for r in (None, 2):
                        argv = ["verify", schema, array, *tail, "--t", str(t), "--json"]
                        if r is not None:
                            argv += ["--r", str(r)]
                        out["verify"][f"{tag}/t{t}/r{r}"] = argv
                out["profile"][tag] = ["profile", schema, array, *tail, "--json"]
            for t in homogeneity_ts:
                out["homogeneity"][f"{_stem(array)}/t{t}"] = [
                    "homogeneity", schema, array, "--t", str(t), "--json",
                    "--hypergraph", "json",
                ]
                out["homogeneity"][f"{_stem(array)}/t{t}/text"] = [
                    "homogeneity", schema, array, "--t", str(t),
                    "--hypergraph", "text",
                ]
            if array in _CLOSENESS:
                for t in (1, 2):
                    argv = ["homogeneity", schema, array, "--t", str(t), "--closeness"]
                    out["homogeneity"][f"{_stem(array)}/t{t}/closeness"] = [*argv, "--json"]
                    out["homogeneity"][f"{_stem(array)}/t{t}/closeness/text"] = argv
        for cons in constraint_files:
            for t in (1, 2, 3):
                out["constraints-derive"][f"{_stem(cons)}/t{t}"] = [
                    "constraints-derive", schema, cons, "--t", str(t), "--json"]
    starts = (
        ("university", ["university_schema.json", "array_a.csv",
                        "university_constraints.json"]),
        ("binary3", ["binary3_schema.json", "-"]),
    )
    for label, head in starts:
        for r in (2, 3):
            for t in (1, 2):
                for seed in (0, 1):
                    for w in ("0", "0.5"):
                        out["construct"][f"{label}/r{r}/t{t}/seed{seed}/w{w}"] = [
                            "construct", *head, "--r", str(r), "--t", str(t),
                            "--seed", str(seed), "--homogeneity-weight", w,
                            "--json", "-o", "OUT",
                        ]
    # the shape of the benchmark's padding run: k=8, v=3, t=3 with hard,
    # soft (sizes 2 and 3) and don't-care constraints
    for w in ("0", "0.5"):
        for restarts in ("0", None):
            argv = ["construct", "pad8_schema.json", "pad8_base.csv",
                    "pad8_constraints.json", "--r", "2", "--t", "3",
                    "--homogeneity-weight", w, "--json", "-o", "OUT"]
            if restarts is not None:
                argv += ["--restarts", restarts]
            out["construct"][f"pad8/r2/t3/w{w}/restarts{restarts or 'default'}"] = argv
    # every value of a0 is soft, so while all three are absent every draw
    # holds one: the first row's candidates are the ones drawn once the
    # 60-draw absent-soft window runs out, and a shorter window changes them
    for w in ("0", "0.5"):
        out["construct"][f"pad8-soft-window/r2/t2/w{w}"] = [
            "construct", "pad8_schema.json", "-", "pad8_soft_window_constraints.json",
            "--r", "2", "--t", "2", "--homogeneity-weight", w, "--json", "-o", "OUT",
        ]
    return out


def run_case(argv, workdir):
    """(exit code, stdout, written output or None) of one CLI call."""
    out_path = pathlib.Path(workdir) / "out.csv"
    if out_path.exists():
        out_path.unlink()
    resolved = [
        str(out_path) if a == "OUT"
        else str(FIXTURES / a) if a.endswith((".json", ".csv"))
        else a
        for a in argv
    ]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(resolved)
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return {"exit": code, "stdout": stdout.getvalue(), "output": written}


def _golden(command):
    with open(GOLDEN / f"{command}.json", encoding="utf-8") as fh:
        return json.load(fh)


_PARAMS = [
    pytest.param(command, case, argv, id=f"{command}:{case}")
    for command, table in cases().items()
    for case, argv in table.items()
]


@pytest.mark.parametrize("command", sorted(cases()))
def test_golden_covers_every_case(command):
    assert sorted(_golden(command)) == sorted(cases()[command])


@pytest.mark.parametrize("command,case,argv", _PARAMS)
def test_output_matches_golden(command, case, argv, tmp_path):
    expected = _golden(command)[case]
    assert expected["argv"] == argv
    got = run_case(argv, tmp_path)
    assert got["exit"] == expected["exit"]
    assert got["stdout"].encode("utf-8") == expected["stdout"].encode("utf-8")
    if expected["output"] is None:
        assert got["output"] is None
    else:
        assert got["output"].encode("utf-8") == expected["output"].encode("utf-8")


_RESULT = ("exit", "stdout", "output")


def regenerate():
    """Rewrite the golden files, first printing the id of every case whose
    exit code, stdout or output file differs from its golden (or is new)."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for command, table in cases().items():
            old = _golden(command) if (GOLDEN / f"{command}.json").exists() else {}
            doc = {case: {"argv": argv, **run_case(argv, workdir)}
                   for case, argv in table.items()}
            for case, got in doc.items():
                before = old.get(case, {})
                if any(got[key] != before.get(key) for key in _RESULT):
                    print(f"{command}:{case}")
            with open(GOLDEN / f"{command}.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
