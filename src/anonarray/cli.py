"""Command-line interface.

Subcommands: verify, profile, homogeneity, construct, constraints-derive.
Exit codes: 0 success, 1 usage, parse, schema or invalid-parameter error
(such as `verify --t abc`, a file that is not UTF-8, or `construct --r 1`)
or an exhausted row-completion search budget, 2 guarantee below target,
3 hard-constraint violation, 4 row budget exceeded, 5 infeasible constraint
system.  Failures print `error: ...` to stderr.  Machine output (--json)
is versioned; human output may evolve.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import construct as construct_mod
from . import homogeneity as hom
from . import verify as verify_mod
from .constraints import EMPTY_CONSTRAINTS, check_feasibility
from .errors import (
    NO_LEGAL_ROW,
    AnonArrayError,
    BudgetExceededError,
    InfeasibleError,
    InvalidParameterError,
)
from .io import (
    _credential_doc,
    load_array,
    load_constraints,
    load_schema,
    serialize_array,
    write_json,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VIOLATION = 2
EXIT_HARD = 3
EXIT_BUDGET = 4
EXIT_INFEASIBLE = 5

_HYPERGRAPH_FMT = {"json": "structured-json", "text": "graph-description-text"}
_EXIT_CODES = {InfeasibleError: EXIT_INFEASIBLE, BudgetExceededError: EXIT_BUDGET}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not 2, which means "below target"
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _load_inputs(args):
    schema = load_schema(args.schema)
    path = getattr(args, "array", None)
    no_base = args.command == "construct" and path == "-"  # build from scratch
    array = load_array(path, schema) if path and not no_base else None
    constraints, allowed = EMPTY_CONSTRAINTS, None
    if getattr(args, "constraints", None):
        constraints, allowed = load_constraints(args.constraints, schema)
    return schema, array, constraints, allowed


def _hard_docs(violations, schema):
    return [{"row": i, "constraint": _credential_doc(c, schema)} for i, c in violations]


def _warn_trivial(schema):
    trivial = schema.trivial_attributes()
    if trivial:
        names = ", ".join(schema.attributes[i].name for i in trivial)
        print(f"note: single-valued (trivial) attributes: {names}", file=sys.stderr)


def cmd_verify(args) -> int:
    schema, array, constraints, allowed = _load_inputs(args)
    _warn_trivial(schema)
    result = None
    if args.r is None:
        report = verify_mod.compute_guarantee(array, args.t, constraints, allowed)
    else:
        result = verify_mod.validate(array, args.r, args.t, constraints, allowed)
        report = result.report

    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "t": report.t,
            "r": report.r,
            "min_witness": None,
            "hard_violations": _hard_docs(report.hard_violations, schema),
            "soft_appearances": [
                {"credential": _credential_doc(c, schema), "count": n}
                for c, n in report.soft_appearances
            ],
        }
        if report.min_witness is not None:
            cols, cred, count = report.min_witness
            doc["min_witness"] = {
                "columns": [schema.attributes[c].name for c in cols],
                "credential": _credential_doc(cred, schema),
                "count": count,
            }
        if result is not None:
            doc["r_target"] = args.r
            doc["valid"] = result.ok
            doc["violations"] = [
                {"credential": _credential_doc(c, schema), "count": n, "kind": kind}
                for _, c, n, kind in result.violations
            ]
        write_json(doc, sys.stdout)
    else:
        print(f"r = {report.r} (t = {report.t})")
        if report.min_witness is not None:
            cols, cred, count = report.min_witness
            print(f"minimum: {cred.render(schema)} appears {count} time(s)")
        for i, c in report.hard_violations:
            print(f"hard violation: row {i + 1} contains {c.render(schema)}")
        for c, n in report.soft_appearances:
            print(f"soft constraint {c.render(schema)} appears {n} time(s)")
        if result is not None:
            print(f"target r = {args.r}: {'satisfied' if result.ok else 'violated'}")
            for _, c, n, kind in result.violations:
                tag = " (soft)" if kind == "soft" else ""
                print(f"  short: {c.render(schema)} appears {n} < {args.r}{tag}")

    if report.hard_violations:
        return EXIT_HARD
    if result is not None and not result.ok:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_profile(args) -> int:
    schema, array, constraints, allowed = _load_inputs(args)
    if allowed is not None:  # they have size t, and profile varies t
        raise InvalidParameterError(
            f"{args.constraints}: profile does not take allowed_column_sets"
        )
    profile = verify_mod.anonymity_profile(array, constraints)
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "entries": [{"t": t, "r": r} for t, r in profile.entries],
            "hard_violations": _hard_docs(profile.hard_violations, schema),
        }
        write_json(doc, sys.stdout)
    else:
        for t, r in profile.entries:
            print(f"t = {t}: r = {r}")
        for i, c in profile.hard_violations:
            print(f"hard violation: row {i + 1} contains {c.render(schema)}")
    return EXIT_HARD if profile.hard_violations else EXIT_OK


def cmd_homogeneity(args) -> int:
    if args.hypergraph_out and not args.hypergraph:
        raise InvalidParameterError("--hypergraph-out needs --hypergraph FORMAT")
    schema, array, _, _ = _load_inputs(args)
    report = hom.local_homogeneity(array, args.t)
    if args.closeness:
        # rendered a row at a time; int / int rounds as float(Fraction) does
        rows = hom._closeness_rows(array, args.t, range(array.n_rows))
        closeness = ([hom.render_score(a / lcm) for a in row] for row, lcm in rows)
    to_file = args.hypergraph_out and args.hypergraph_out != "-"
    # opened before anything is written, so a bad path prints nothing
    graph = (
        open(args.hypergraph_out, "w", encoding="utf-8")
        if to_file
        else nullcontext(sys.stdout)
    )
    with graph as graph_out:
        if args.json:
            doc = {
                "format_version": FORMAT_VERSION,
                "t": report.t,
                "min": hom.render_score(report.min),
                "max": hom.render_score(report.max),
                "global": hom.render_score(report.global_score),
                "local": map(hom.render_score, report.local),
                "isolated": sorted(report.isolated),
            }
            if args.closeness:
                doc["closeness"] = closeness
            write_json(doc, sys.stdout)
        else:
            print(
                f"min {hom.render_score(report.min)} "
                f"max {hom.render_score(report.max)} "
                f"global {hom.render_score(report.global_score)}"
            )
            for i, score in enumerate(report.local):
                mark = " (isolated)" if i in report.isolated else ""
                print(f"row {i + 1}: {hom.render_score(score)}{mark}")
            if args.closeness:
                for row in closeness:
                    print(" ".join(row))
        if args.hypergraph:
            graph_out.writelines(
                hom._hypergraph_pieces(array, args.t, _HYPERGRAPH_FMT[args.hypergraph])
            )
            if not to_file:
                print()
    return EXIT_OK


def cmd_construct(args) -> int:
    schema, base, constraints, _ = _load_inputs(args)
    weight = args.homogeneity_weight
    if math.isfinite(weight):  # the config rejects nan and inf
        weight = Fraction(weight).limit_denominator(10**6)
    config = construct_mod.ConstructionConfig(
        r_target=args.r,
        t=args.t,
        seed=args.seed,
        max_rows=args.max_rows,
        candidates_per_row=args.candidates,
        restarts=args.restarts,
        homogeneity_weight=weight,
    )
    result = construct_mod.construct_padding(base, constraints, config, schema=schema)
    text = serialize_array(result.array)
    to_file = args.output and args.output != "-"
    if to_file:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    summary = {
        "format_version": FORMAT_VERSION,
        "rows": result.array.n_rows,
        "padding_count": result.padding_count,
        "lower_bound": result.lower_bound,
        "achieved_r": result.achieved.r,
        "global_homogeneity": hom.render_score(
            hom.global_homogeneity(result.array, args.t)
        ),
    }
    if args.json:
        # stdout carries the CSV unless it went to a file
        write_json(summary, sys.stdout if to_file else sys.stderr)
    else:
        print(
            f"rows={summary['rows']} padding={summary['padding_count']} "
            f"lower_bound={summary['lower_bound']} r={summary['achieved_r']} "
            f"global_homogeneity={summary['global_homogeneity']}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_constraints_derive(args) -> int:
    schema, _, constraints, _ = _load_inputs(args)
    report = check_feasibility(schema, constraints, args.t)
    derived = report.implicit_hard
    # an infeasible report without a witness has no legal row at all
    no_legal_row = not report.feasible and not report.witnesses
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "t": args.t,
            "implicit_hard": [_credential_doc(c, schema) for c in sorted(derived)],
            "feasible": report.feasible,
            "witnesses": (
                {"credential": _credential_doc(c, schema), "reason": reason}
                for c, reason in report.witnesses
            ),
        }
        if no_legal_row:
            doc["reason"] = NO_LEGAL_ROW
        write_json(doc, sys.stdout)
    else:
        if derived:
            print("implicit hard constraints:")
            for c in sorted(derived):
                print(f"  {c.render(schema)}")
        else:
            print("no implicit hard constraints")
        print(f"feasible: {'yes' if report.feasible else 'no'}")
        for c, reason in report.witnesses:
            print(f"  {c.render(schema)}: {reason}")
        if no_legal_row:
            print(f"  {NO_LEGAL_ROW}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anonarray",
        description="Verify, score, and construct anonymizing arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    array = ("array", None, "array CSV file")
    constraints = ("constraints", "?", "constraints JSON file")

    def command(name, func, help, *positionals):
        """Subparser taking the schema, then (dest, nargs, help) positionals."""
        p = sub.add_parser(name, help=help)
        p.add_argument("schema", help="schema JSON file")
        for dest, nargs, text in positionals:
            p.add_argument(dest, nargs=nargs, help=text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = command(
        "verify", cmd_verify, "compute the anonymity guarantee", array, constraints
    )
    p.add_argument("--t", type=int, required=True, help="maximum credential size")
    p.add_argument("--r", type=int, help="target guarantee to validate against")

    command("profile", cmd_profile, "full (t, r) anonymity profile", array, constraints)

    p = command(
        "homogeneity", cmd_homogeneity, "local/global homogeneity scores", array
    )
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--closeness", action="store_true", help="dump the closeness matrix")
    p.add_argument(
        "--hypergraph", choices=sorted(_HYPERGRAPH_FMT), help="export the hypergraph"
    )
    p.add_argument(
        "--hypergraph-out", help="write the export to this file (- = stdout)"
    )

    p = command(
        "construct", cmd_construct, "append padding rows to reach a target",
        ("array", "?", "base array CSV file (optional; '-' for none)"), constraints,
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rows", type=int)
    p.add_argument("--candidates", type=int, default=64)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--homogeneity-weight", type=float, default=0.0)
    p.add_argument("-o", "--output", default="-", help="output array file (- = stdout)")

    p = command(
        "constraints-derive", cmd_constraints_derive,
        "derive implicit hard constraints and feasibility",
        ("constraints", None, "constraints JSON file"),
    )
    p.add_argument("--t", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AnonArrayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
