"""Mutated input files never end in a traceback or an undocumented exit code.

Each example damages one fixture file the way files get damaged in
practice (cut short, a flipped byte, saved in another encoding, a value
of the wrong JSON type, a missing CSV column, blank lines, CR-LF line
ends) and runs every subcommand on it in-process.  Whatever the damage,
the CLI must exit with one of the documented codes 0-5, and a non-zero
code must come with an `error:` line or the documented violation text.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonarray.cli import main

from conftest import FIXTURES

SCHEMA, ARRAY, CONSTRAINTS = (
    "university_schema.json", "array_a.csv", "university_constraints.json"
)

# subcommand argv, with file names standing for the (possibly mutated) files
COMMANDS = (
    ["verify", SCHEMA, ARRAY, CONSTRAINTS, "--t", "2", "--r", "2"],
    ["profile", SCHEMA, ARRAY, CONSTRAINTS],
    ["homogeneity", SCHEMA, ARRAY, "--t", "2", "--closeness"],
    ["construct", SCHEMA, ARRAY, CONSTRAINTS, "--r", "2", "--t", "2",
     "--restarts", "0"],
    ["constraints-derive", SCHEMA, CONSTRAINTS, "--t", "2"],
)

# what stdout says when a check fails without an error
VIOLATION_TEXT = {2: "violated", 3: "hard violation", 5: "feasible: no"}


def _truncate(text, draw):
    raw = text.encode("utf-8")
    return raw[: draw(st.integers(0, len(raw) - 1))]


def _flip_byte(text, draw):
    raw = bytearray(text.encode("utf-8"))
    raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    return bytes(raw)


def _utf16(text, draw):
    return text.encode("utf-16")


def _latin1(text, draw):
    at = draw(st.integers(0, len(text)))
    accent = draw(st.sampled_from("\xe9\xfc\xa3"))
    return (text[:at] + accent + text[at:]).encode("latin-1")


def _blank_line(text, draw):
    lines = text.split("\n")
    lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines).encode("utf-8")


def _crlf(text, draw):
    return text.replace("\n", "\r\n").encode("utf-8")


def _swap_json_type(text, draw):
    doc = json.loads(text)
    slots = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                walk(node[key])

    walk(doc)
    node, key = draw(st.sampled_from(slots))
    node[key] = draw(st.sampled_from([None, 0, 1.5, "x", True, [], {}, [[]]]))
    return json.dumps(doc).encode("utf-8")


def _drop_csv_column(text, draw):
    width = text.split("\n", 1)[0].count(",") + 1
    j = draw(st.integers(0, width - 1))
    rows = [line.split(",") for line in text.split("\n")]
    return "\n".join(",".join(r[:j] + r[j + 1:]) for r in rows).encode("utf-8")


COMMON = (_truncate, _flip_byte, _utf16, _latin1, _blank_line, _crlf)
MUTATIONS = {
    SCHEMA: COMMON + (_swap_json_type,),
    ARRAY: COMMON + (_drop_csv_column,),
    CONSTRAINTS: COMMON + (_swap_json_type,),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs_fail_cleanly(workdir, data):
    name = data.draw(st.sampled_from(sorted(MUTATIONS)), label="file")
    mutate = data.draw(st.sampled_from(MUTATIONS[name]), label="mutation")
    mutated = mutate((FIXTURES / name).read_text(encoding="utf-8"), data.draw)
    (workdir / name).write_bytes(mutated)
    for argv in COMMANDS:
        resolved = [
            str(workdir / a if a == name else FIXTURES / a) if a in MUTATIONS else a
            for a in argv
        ]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(resolved)
        assert code in range(6), (argv, code)
        if code:
            assert "error: " in err.getvalue() or (
                VIOLATION_TEXT.get(code, "error: ") in out.getvalue()
            ), (argv, code, out.getvalue(), err.getvalue())
