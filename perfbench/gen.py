"""Seeded input generator for every benchmark workload.

One call writes the inputs of all four workloads from one process.  The
same seed gives byte-identical files (on one Python version), because
every random draw comes from a `random.Random` seeded with a string
derived from the run seed and the workload name.

Shapes are fixed; only the drawn values depend on the seed, so the work
per job stays close to constant across seeds.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random

# Workload shapes.  See perfbench/README.md for why each was chosen.
AUDIT_N = 4000
AUDIT_SIZES = (2, 3, 4, 5, 2, 3, 4, 5, 3, 4)  # k = 10, domain sizes 2..5
SCORE_N = 2000
SCORE_K, SCORE_V = 8, 3
PAD_N0 = 100
PAD_K, PAD_V = 8, 3
SCRATCH_K, SCRATCH_V = 6, 3
DERIVE_K, DERIVE_V = 16, 4
ZIPF_S = 1.0

WORKLOADS = ("audit", "score", "pad", "derive")


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{name}")


def schema_doc(sizes):
    return {
        "attributes": [
            {"name": f"a{i}", "values": [f"v{x}" for x in range(d)]}
            for i, d in enumerate(sizes)
        ]
    }


def _zipf_cum(d: int):
    cum, total = [], 0.0
    for x in range(d):
        total += 1.0 / (x + 1) ** ZIPF_S
        cum.append(total)
    return cum


def _zipf_rows(rng, sizes, n, forbidden=()):
    """n rows with Zipf-skewed values; the most frequent value of each
    column is drawn per seed.  Rows containing a forbidden credential
    (a tuple of (attribute, value) pairs) are drawn again."""
    perms = []
    for d in sizes:
        p = list(range(d))
        rng.shuffle(p)
        perms.append(p)
    cums = [_zipf_cum(d) for d in sizes]
    rows = []
    while len(rows) < n:
        row = tuple(
            perms[j][rng.choices(range(d), cum_weights=cums[j])[0]]
            for j, d in enumerate(sizes)
        )
        if any(all(row[a] == v for a, v in cred) for cred in forbidden):
            continue
        rows.append(row)
    return rows


def _cred_doc(cred):
    return [[f"a{a}", f"v{v}"] for a, v in cred]


def constraints_doc(hard=(), soft=(), dont_care=()):
    return {
        "hard": [_cred_doc(c) for c in hard],
        "soft": [_cred_doc(c) for c in soft],
        "dont_care": [_cred_doc(c) for c in dont_care],
    }


def array_csv(rows, k) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"a{j}" for j in range(k)])
    for row in rows:
        writer.writerow([f"v{x}" for x in row])
    return out.getvalue()


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path, doc):
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def gen_audit(seed, out):
    rng = _rng(seed, "audit")
    sizes = AUDIT_SIZES
    # Two hard, one soft and one don't-care constraint, on four distinct
    # attribute pairs.  The soft one has size 2 < t, so it is recounted
    # row by row; it is taken from a drawn row so that it appears.
    pairs = rng.sample(list(itertools.combinations(range(len(sizes)), 2)), 4)
    hard = [tuple((a, rng.randrange(sizes[a])) for a in p) for p in pairs[:2]]
    rows = _zipf_rows(rng, sizes, AUDIT_N, forbidden=hard)
    probe = rows[rng.randrange(len(rows))]
    soft = [tuple((a, probe[a]) for a in pairs[2])]
    dont_care = [tuple((a, rng.randrange(sizes[a])) for a in pairs[3])]
    _write_json(os.path.join(out, "schema.json"), schema_doc(sizes))
    _write(os.path.join(out, "array.csv"), array_csv(rows, len(sizes)))
    _write_json(os.path.join(out, "constraints.json"), constraints_doc(hard, soft, dont_care))


def gen_score(seed, out):
    rng = _rng(seed, "score")
    sizes = (SCORE_V,) * SCORE_K
    rows = _zipf_rows(rng, sizes, SCORE_N)
    _write_json(os.path.join(out, "schema.json"), schema_doc(sizes))
    _write(os.path.join(out, "array.csv"), array_csv(rows, len(sizes)))


def _pad_template():
    """The fixed base array and constraints that every seed relabels.

    2 hard of size 2, 2 soft (size 2 < t and size 3 = t), 1 don't-care of
    size 2; no constraint contains another, so the kinds never clash.
    """
    rng = _rng(0, "pad-template")
    sizes = (PAD_V,) * PAD_K
    attrs = list(range(PAD_K))
    rng.shuffle(attrs)
    groups = [attrs[0:2], attrs[2:4], attrs[4:6], attrs[5:8], [attrs[1], attrs[4]]]
    hard = [tuple((a, rng.randrange(PAD_V)) for a in sorted(g)) for g in groups[:2]]
    rows = _zipf_rows(rng, sizes, PAD_N0, forbidden=hard)
    probe = rows[rng.randrange(len(rows))]
    soft = [tuple((a, probe[a]) for a in sorted(g)) for g in groups[2:4]]
    dont_care = [tuple((a, rng.randrange(PAD_V)) for a in sorted(groups[4]))]
    return rows, hard, soft, dont_care


def gen_pad(seed, out):
    # How many padding rows a base needs varies by about +-20 % between
    # random bases of this size, which would swamp run-to-run timing.  So
    # every seed pads the same base and constraints under its own random
    # relabelling of attributes, values and row order: the work is the
    # same up to the construct seed, the inputs differ.
    rng = _rng(seed, "pad")
    rows, hard, soft, dont_care = _pad_template()
    attr = list(range(PAD_K))
    rng.shuffle(attr)
    value = []
    for _ in range(PAD_K):
        p = list(range(PAD_V))
        rng.shuffle(p)
        value.append(p)

    def relabel(cred):
        return tuple(sorted((attr[a], value[a][v]) for a, v in cred))

    new_rows = []
    for row in rows:
        cells = [0] * PAD_K
        for a, v in enumerate(row):
            cells[attr[a]] = value[a][v]
        new_rows.append(tuple(cells))
    rng.shuffle(new_rows)
    _write_json(os.path.join(out, "schema.json"), schema_doc((PAD_V,) * PAD_K))
    _write(os.path.join(out, "base.csv"), array_csv(new_rows, PAD_K))
    _write_json(os.path.join(out, "constraints.json"), constraints_doc(
        [relabel(c) for c in hard], [relabel(c) for c in soft], [relabel(c) for c in dont_care]))
    _write_json(os.path.join(out, "schema6.json"), schema_doc((SCRATCH_V,) * SCRATCH_K))
    _write_json(os.path.join(out, "params.json"), {"construct_seed": rng.randrange(2**31)})


def gen_derive(seed, out):
    rng = _rng(seed, "derive")
    sizes = (DERIVE_V,) * DERIVE_K
    # Block every value of a1 under a0 = v0: {a0=v0} is an implicit hard
    # constraint, so the system is infeasible at t = 3.
    planted = [((0, 0), (1, x)) for x in range(DERIVE_V)]
    others = [p for p in itertools.combinations(range(DERIVE_K), 2) if p != (0, 1)]
    hard = [
        tuple((a, rng.randrange(DERIVE_V)) for a in p) for p in rng.sample(others, 6)
    ]
    _write_json(os.path.join(out, "schema.json"), schema_doc(sizes))
    _write_json(os.path.join(out, "constraints.json"), constraints_doc(hard + planted))


GENERATORS = {"audit": gen_audit, "score": gen_score, "pad": gen_pad, "derive": gen_derive}


def write_all(seed: int, root: str) -> dict:
    """Write every workload's inputs under root/<workload>/; return the dirs."""
    dirs = {}
    for name in WORKLOADS:
        out = os.path.join(root, name)
        os.makedirs(out, exist_ok=True)
        GENERATORS[name](seed, out)
        dirs[name] = out
    return dirs
