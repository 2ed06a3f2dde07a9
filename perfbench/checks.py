"""Output checks that share no code with the package under test.

Everything here reads the input files itself and recomputes the answer
from the definitions in the package README and `constraints.py`
docstring:

* a size-t credential is hard when it contains a hard constraint, soft
  when it equals a soft constraint, don't-care when it equals or contains
  a don't-care constraint, and unconstrained otherwise;
* r is the smallest count of an appearing, non-don't-care size-t
  credential (0 when a row contains a hard constraint);
* local homogeneity of a row is the sum, over the credentials it holds,
  of the weight 1/m it shares with each other member of a neighbourhood
  of size m, divided by its number of distinct neighbours.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter
from fractions import Fraction


# --- inputs -------------------------------------------------------------


class Inputs:
    """A schema, optionally with array rows and constraints, as plain ints."""

    def __init__(self, schema_path, array_path=None, constraints_path=None):
        with open(schema_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.names = [a["name"] for a in doc["attributes"]]
        self.values = [list(a["values"]) for a in doc["attributes"]]
        self.k = len(self.names)
        self.sizes = [len(v) for v in self.values]
        self.rows = read_rows(array_path, self) if array_path else []
        self.hard, self.soft, self.dont_care = [], [], []
        if constraints_path:
            with open(constraints_path, encoding="utf-8") as fh:
                cdoc = json.load(fh)
            self.hard = [self.credential(c) for c in cdoc.get("hard", [])]
            self.soft = [self.credential(c) for c in cdoc.get("soft", [])]
            self.dont_care = [self.credential(c) for c in cdoc.get("dont_care", [])]

    def credential(self, pairs):
        """[[name, label], ...] -> sorted tuple of (attribute, value) ints."""
        out = []
        for name, label in pairs:
            a = self.names.index(name)
            out.append((a, self.values[a].index(label)))
        return tuple(sorted(out))

    def kind(self, cred):
        """Kind of a credential given as a sorted tuple of pairs."""
        pairs = set(cred)
        if any(pairs.issuperset(h) for h in self.hard):
            return "hard"
        if cred in self.soft:
            return "soft"
        if any(pairs.issuperset(d) for d in self.dont_care):
            return "dont_care"
        return "unconstrained"


def parse_rows(text, inputs):
    reader = csv.reader(text.splitlines())
    header = [h.strip() for h in next(reader)]
    has_id = bool(header) and header[0] == "id"
    if (header[1:] if has_id else header) != inputs.names:
        raise ValueError(f"header {header} does not match the schema")
    rows = []
    for record in reader:
        if not record:
            continue
        cells = record[1:] if has_id else record
        if len(cells) != inputs.k:
            raise ValueError(f"row {record} has {len(cells)} cells, expected {inputs.k}")
        rows.append(tuple(inputs.values[j].index(c.strip()) for j, c in enumerate(cells)))
    return rows


def read_rows(path, inputs):
    with open(path, encoding="utf-8") as fh:
        return parse_rows(fh.read(), inputs)


def contains(row, cred):
    return all(row[a] == v for a, v in cred)


def render(value):
    """The package's documented 6-significant-digit rendering."""
    return f"{float(value):.6g}"


# --- counting -----------------------------------------------------------


def tuple_counts(rows, t, k):
    """{column set: Counter of value tuples} over every t-subset of columns."""
    columns = list(zip(*rows)) if rows else [()] * k
    return {
        cols: Counter(zip(*(columns[c] for c in cols)))
        for cols in itertools.combinations(range(k), t)
    }


def guarantee(inputs, rows, t, r_target):
    """Independent (r, valid, number of short credentials, hard rows)."""
    hard_rows = [
        i for i, row in enumerate(rows)
        if any(contains(row, h) for h in inputs.hard if len(h) <= t)
    ]
    best = None
    short = 0
    for cols, counts in tuple_counts(rows, t, inputs.k).items():
        for values, n in counts.items():
            if inputs.kind(tuple(zip(cols, values))) == "dont_care":
                continue
            best = n if best is None else min(best, n)
            if n < r_target:
                short += 1
    for s in inputs.soft:
        if len(s) < t:
            n = sum(1 for row in rows if contains(row, s))
            if 0 < n < r_target:
                short += 1
    r = 0 if hard_rows else (best if best is not None else len(rows))
    valid = not hard_rows and short == 0 and r >= r_target
    return r, valid, short, hard_rows


def lower_bound(inputs, r, t):
    """r times the most unconstrained size-t credentials on one column set."""
    best = 0
    for cols in itertools.combinations(range(inputs.k), t):
        n = sum(
            1
            for values in itertools.product(*(range(inputs.sizes[c]) for c in cols))
            if inputs.kind(tuple(zip(cols, values))) == "unconstrained"
        )
        best = max(best, n)
    return r * best


# --- homogeneity --------------------------------------------------------


def homogeneity(rows, t, k):
    """Exact local scores and the isolated rows, from bitset neighbourhoods."""
    n = len(rows)
    accum = [Fraction(0)] * n
    reach = [0] * n
    for cols in itertools.combinations(range(k), t):
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault(tuple(row[c] for c in cols), []).append(i)
        for members in groups.values():
            m = len(members)
            share = Fraction(m - 1, m)
            mask = 0
            for i in members:
                mask |= 1 << i
            for i in members:
                accum[i] += share
                reach[i] |= mask
    sentinel = Fraction(math.comb(k, t))
    local, isolated = [], []
    for i in range(n):
        degree = bin(reach[i]).count("1") - 1
        if degree:
            local.append(accum[i] / degree)
        else:
            local.append(sentinel)
            isolated.append(i)
    return local, isolated


def brute_local(rows, t, k, i):
    """Local homogeneity of row i from pairwise closeness, by definition."""
    col_sets = list(itertools.combinations(range(k), t))
    sizes = {
        cols: sum(1 for row in rows if all(row[c] == rows[i][c] for c in cols))
        for cols in col_sets
    }
    total, neighbours = Fraction(0), 0
    for j, row in enumerate(rows):
        if j == i:
            continue
        close = sum(
            (Fraction(1, sizes[cols]) for cols in col_sets
             if all(row[c] == rows[i][c] for c in cols)),
            Fraction(0),
        )
        if close:
            total += close
            neighbours += 1
    return total / neighbours if neighbours else Fraction(math.comb(k, t))


def global_score(rows, t, k):
    local, _ = homogeneity(rows, t, k)
    return sum(local, Fraction(0)) / len(local)


# --- per-job checks -----------------------------------------------------


def _json_docs(text):
    """Every JSON document printed one after another on stdout."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    text = text.strip()
    while pos < len(text):
        doc, end = decoder.raw_decode(text, pos)
        docs.append(doc)
        pos = end
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def check_verify(inputs, t, r_target, code, stdout):
    r, valid, short, hard_rows = guarantee(inputs, inputs.rows, t, r_target)
    expected_code = 3 if hard_rows else (0 if valid else 2)
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    try:
        (doc,) = _json_docs(stdout)
    except ValueError as exc:
        return problems + [f"verify output is not one JSON document: {exc}"]
    if doc.get("r") != r:
        problems.append(f"r = {doc.get('r')}, expected {r}")
    if doc.get("valid") != valid:
        problems.append(f"valid = {doc.get('valid')}, expected {valid}")
    if len(doc.get("violations", ())) != short:
        problems.append(f"{len(doc.get('violations', ()))} violations, expected {short}")
    if len(doc.get("hard_violations", ())) != len(hard_rows):
        problems.append("hard violation count differs")
    return problems


def check_homogeneity(inputs, t, code, stdout, sample=8):
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    try:
        doc, graph = _json_docs(stdout)
    except ValueError as exc:
        return problems + [f"homogeneity output is not two JSON documents: {exc}"]
    rows, k = inputs.rows, inputs.k
    local, isolated = homogeneity(rows, t, k)
    expected_global = sum(local, Fraction(0)) / len(local)
    if doc.get("global") != render(expected_global):
        problems.append(f"global = {doc.get('global')}, expected {render(expected_global)}")
    if doc.get("local") != [render(x) for x in local]:
        problems.append("local scores differ")
    if doc.get("min") != render(min(local)) or doc.get("max") != render(max(local)):
        problems.append("min or max differs")
    if doc.get("isolated") != isolated:
        problems.append("isolated rows differ")
    step = max(1, len(rows) // sample)
    for i in range(0, len(rows), step)[:sample]:
        if brute_local(rows, t, k, i) != local[i]:
            problems.append(f"row {i}: bitset score disagrees with pairwise closeness")
    edges = set()
    for cols in itertools.combinations(range(k), t):
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault(tuple(row[c] for c in cols), []).append(i)
        for values, members in groups.items():
            edges.add((
                tuple(inputs.names[c] for c in cols),
                tuple(inputs.values[c][v] for c, v in zip(cols, values)),
                tuple(members),
            ))
    got = {
        (tuple(e["columns"]), tuple(e["values"]), tuple(e["members"]))
        for e in graph.get("edges", ())
    }
    if got != edges or len(graph.get("edges", ())) != len(edges):
        problems.append("hypergraph edges differ")
    if len(graph.get("vertices", ())) != len(rows):
        problems.append("hypergraph vertex count differs")
    return problems


def check_construct(inputs, base_rows, r, t, code, stdout, csv_text):
    """Output validates at (r, t), covers every unconstrained size-t
    credential r times, keeps the base as a prefix, avoids every hard
    constraint, and its summary agrees with the rows."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    try:
        rows = parse_rows(csv_text, inputs)
    except (ValueError, StopIteration) as exc:
        return problems + [f"output CSV unreadable: {exc}"]
    if rows[: len(base_rows)] != list(base_rows):
        problems.append("base rows are not kept as a prefix")
    bad = [i for i, row in enumerate(rows) if any(contains(row, h) for h in inputs.hard)]
    if bad:
        problems.append(f"rows {bad[:5]} contain a hard constraint")
    got_r, valid, short, _ = guarantee(inputs, rows, t, r)
    if not valid:
        problems.append(f"output is not ({r}, {t})-anonymous: r = {got_r}, {short} short")
    counts = tuple_counts(rows, t, inputs.k)
    for cols, table in counts.items():
        for values in itertools.product(*(range(inputs.sizes[c]) for c in cols)):
            cred = tuple(zip(cols, values))
            if inputs.kind(cred) == "unconstrained" and table.get(values, 0) < r:
                problems.append(f"unconstrained credential {cred} appears fewer than {r} times")
                break
    try:
        (summary,) = _json_docs(stdout)
    except ValueError as exc:
        return problems + [f"summary is not one JSON document: {exc}"]
    expected = {
        "rows": len(rows),
        "padding_count": len(rows) - len(base_rows),
        "lower_bound": lower_bound(inputs, r, t),
        "achieved_r": got_r,
        "global_homogeneity": render(global_score(rows, t, inputs.k)),
    }
    for key, want in expected.items():
        if summary.get(key) != want:
            problems.append(f"{key} = {summary.get(key)}, expected {want}")
    return problems


def legal_row_with(inputs, cred, budget=1_000_000):
    """A full row containing `cred` and no hard constraint, or None.

    Depth-first search with forward checking: once every pair of a hard
    constraint but one is fixed, that last value is struck from its
    attribute's domain.  Raises RuntimeError past `budget` nodes.
    """
    domains = [set(range(s)) for s in inputs.sizes]
    for a, v in cred:
        if v not in domains[a]:
            return None
        domains[a] = {v}
    nodes = 0

    def prune(doms):
        changed = True
        while changed:
            changed = False
            for h in inputs.hard:
                open_pairs = [(a, v) for a, v in h if doms[a] != {v}]
                if not open_pairs:
                    return False
                if len(open_pairs) == 1:
                    a, v = open_pairs[0]
                    if v in doms[a]:
                        doms[a] = doms[a] - {v}
                        changed = True
                        if not doms[a]:
                            return False
        return True

    def search(doms):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise RuntimeError("search budget exhausted")
        if not prune(doms):
            return None
        free = [a for a in range(inputs.k) if len(doms[a]) > 1]
        if not free:
            return tuple(next(iter(d)) for d in doms)
        a = min(free, key=lambda x: len(doms[x]))
        for v in sorted(doms[a]):
            trial = list(doms)
            trial[a] = {v}
            found = search(trial)
            if found is not None:
                return found
        return None

    return search(domains)


def check_derive(inputs, t, code, stdout, planted=()):
    """Every reported implicit credential and witness is sound (no legal
    row contains it), each witness is an unconstrained size-t credential,
    the planted implicit credentials are reported, and the exit code
    matches the reported feasibility."""
    problems = []
    try:
        (doc,) = _json_docs(stdout)
    except ValueError as exc:
        return [f"derive output is not one JSON document: {exc}"]
    implicit = [inputs.credential(c) for c in doc.get("implicit_hard", ())]
    witnesses = [inputs.credential(w["credential"]) for w in doc.get("witnesses", ())]
    for cred in implicit + witnesses:
        if legal_row_with(inputs, cred) is not None:
            problems.append(f"{cred} is reported unrealizable but a legal row contains it")
    for w in witnesses:
        if len(w) != t or inputs.kind(w) != "unconstrained":
            problems.append(f"witness {w} is not an unconstrained size-{t} credential")
    for p in planted:
        if p not in implicit:
            problems.append(f"planted implicit credential {p} is not reported")
    feasible = not witnesses
    if doc.get("feasible") is not feasible:
        problems.append(f"feasible = {doc.get('feasible')} with {len(witnesses)} witnesses")
    expected_code = 0 if feasible else 5
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    return problems
