"""The CLI jobs of each workload and how their outputs are checked.

A job is one `anonarray` command line.  One operation of a workload runs
its jobs in order; `pad` has two jobs, the others one.  See
perfbench/README.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import checks

T_AUDIT, R_AUDIT = 3, 2
T_SCORE = 2
T_PAD, R_PAD, PAD_WEIGHT, PAD_RESTARTS = 3, 2, "0.5", "0"
T_SCRATCH, R_SCRATCH = 2, 2
T_DERIVE = 3
# {a0 = v0}: every value of a1 is forbidden under it (see gen.gen_derive).
DERIVE_PLANTED = (((0, 0),),)


@dataclass
class Job:
    label: str
    argv: List[str]
    # file written with -o, read back for the check
    output: Optional[str]
    # (exit code, stdout text, output file text) -> list of problems
    check: Callable[[int, str, str], List[str]]


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    # (kind, path) pairs loaded through anonarray.io to measure set-up
    loads: List[tuple]


def build(name: str, d: str) -> Workload:
    """The jobs of workload `name` over the generated inputs in directory d."""
    p = lambda f: os.path.join(d, f)  # noqa: E731
    out = lambda f: os.path.join(d, "out", f)  # noqa: E731
    os.makedirs(os.path.join(d, "out"), exist_ok=True)

    if name == "audit":
        inputs = checks.Inputs(p("schema.json"), p("array.csv"), p("constraints.json"))
        job = Job(
            "verify",
            ["verify", p("schema.json"), p("array.csv"), p("constraints.json"),
             "--t", str(T_AUDIT), "--r", str(R_AUDIT), "--json"],
            None,
            lambda code, stdout, _: checks.check_verify(inputs, T_AUDIT, R_AUDIT, code, stdout),
        )
        return Workload(name, [job], [("schema", p("schema.json")), ("array", p("array.csv")),
                                      ("constraints", p("constraints.json"))])

    if name == "score":
        inputs = checks.Inputs(p("schema.json"), p("array.csv"))
        job = Job(
            "homogeneity",
            ["homogeneity", p("schema.json"), p("array.csv"),
             "--t", str(T_SCORE), "--json", "--hypergraph", "json"],
            None,
            lambda code, stdout, _: checks.check_homogeneity(inputs, T_SCORE, code, stdout),
        )
        return Workload(name, [job], [("schema", p("schema.json")), ("array", p("array.csv"))])

    if name == "pad":
        with open(p("params.json"), encoding="utf-8") as fh:
            seed = str(json.load(fh)["construct_seed"])
        based = checks.Inputs(p("schema.json"), p("base.csv"), p("constraints.json"))
        scratch = checks.Inputs(p("schema6.json"))
        jobs = [
            Job(
                "construct-base",
                ["construct", p("schema.json"), p("base.csv"), p("constraints.json"),
                 "--r", str(R_PAD), "--t", str(T_PAD), "--homogeneity-weight", PAD_WEIGHT,
                 "--restarts", PAD_RESTARTS, "--seed", seed, "--json", "-o", out("base_out.csv")],
                out("base_out.csv"),
                lambda code, stdout, text: checks.check_construct(
                    based, based.rows, R_PAD, T_PAD, code, stdout, text),
            ),
            Job(
                "construct-scratch",
                ["construct", p("schema6.json"), "-", "--r", str(R_SCRATCH), "--t", str(T_SCRATCH),
                 "--seed", seed, "--json", "-o", out("scratch_out.csv")],
                out("scratch_out.csv"),
                lambda code, stdout, text: checks.check_construct(
                    scratch, [], R_SCRATCH, T_SCRATCH, code, stdout, text),
            ),
        ]
        return Workload(name, jobs, [("schema", p("schema.json")), ("array", p("base.csv")),
                                     ("constraints", p("constraints.json")),
                                     ("schema", p("schema6.json"))])

    if name == "derive":
        inputs = checks.Inputs(p("schema.json"), None, p("constraints.json"))
        job = Job(
            "constraints-derive",
            ["constraints-derive", p("schema.json"), p("constraints.json"),
             "--t", str(T_DERIVE), "--json"],
            None,
            lambda code, stdout, _: checks.check_derive(
                inputs, T_DERIVE, code, stdout, DERIVE_PLANTED),
        )
        return Workload(name, [job], [("schema", p("schema.json")),
                                      ("constraints", p("constraints.json"))])

    raise ValueError(f"unknown workload {name!r}")


def quality(workload: Workload, stdouts: dict) -> dict:
    """Output quality of `pad`, from the CLI's JSON summaries by job label:
    rows appended to the real base, its global homogeneity, and rows /
    lower bound of the from-scratch array."""
    if workload.name != "pad":
        return {}
    try:
        base = json.loads(stdouts["construct-base"])
        scratch = json.loads(stdouts["construct-scratch"])
        return {
            "padding_rows": base["padding_count"],
            "output_homogeneity": float(base["global_homogeneity"]),
            "rows_over_bound": scratch["rows"] / scratch["lower_bound"],
        }
    except (ValueError, KeyError):  # a failed job; its check reports it
        return {}
