import json

import pytest

import anonarray.constraints as constraints_mod
from anonarray import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    ConstraintSet,
    Credential,
    ParseError,
    export_hypergraph,
)
from anonarray.cli import main
from anonarray.io import (
    load_array,
    load_constraints,
    load_schema,
    parse_array,
    parse_constraints,
    parse_schema,
    serialize_array,
    serialize_constraints,
    serialize_schema,
)

from conftest import FIXTURES


@pytest.fixture(scope="module")
def schema():
    return load_schema(FIXTURES / "university_schema.json")


class TestDocuments:
    def test_schema_round_trip(self, schema):
        assert parse_schema(serialize_schema(schema)) == schema

    def test_array_round_trip(self, schema):
        array = load_array(FIXTURES / "array_b.csv", schema)
        assert array.n_rows == 12
        assert array.row_labels[0] == "1"
        assert parse_array(serialize_array(array), schema) == array

    def test_array_without_id_column(self, schema):
        array = load_array(FIXTURES / "array_a.csv", schema)
        text = "\n".join(
            line.split(",", 1)[1] for line in serialize_array(array).splitlines()
        )
        again = parse_array(text, schema)
        assert again.rows == array.rows
        assert again.row_labels is None

    def test_constraints_round_trip(self, schema):
        cons, allowed = load_constraints(
            FIXTURES / "university_constraints.json", schema
        )
        assert len(cons.hard) == 2
        assert len(cons.soft) == 1
        assert allowed is None
        again, _ = parse_constraints(serialize_constraints(cons, schema), schema)
        assert again == cons

    def test_unknown_label_is_error_with_location(self, schema):
        text = "Role,Job,Department,Semester\nfaculty,instructor,CS,Winter\n"
        with pytest.raises(ParseError) as exc:
            parse_array(text, schema, filename="bad.csv")
        assert exc.value.line == 2
        assert "Winter" in str(exc.value)
        assert "bad.csv" in str(exc.value)

    @pytest.mark.parametrize(
        "header, record, column",
        [
            ("", "faculty,tutor,CS,Fall", 2),
            ("id,", "7,faculty,tutor,CS,Fall", 3),
        ],
    )
    def test_first_unknown_label_named_exactly(self, schema, header, record, column):
        text = (
            f"{header}Role,Job,Department,Semester\n"
            + ("7," if header else "")
            + "graduate,grader,EE,Spring\n"
            + f"{record[:-4]}Winter\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_array(text, schema, filename="bad.csv")
        assert str(exc.value) == (
            f"bad.csv, line 3, column {column}: "
            "unknown value 'tutor' for attribute 'Job'"
        )
        assert (exc.value.line, exc.value.column) == (3, column)

    def test_row_width_named_exactly(self, schema):
        text = "Role,Job,Department,Semester\nfaculty,grader,CS\n"
        with pytest.raises(ParseError) as exc:
            parse_array(text, schema, filename="bad.csv")
        assert str(exc.value) == "bad.csv, line 2: expected 4 value cells, found 3"

    @pytest.mark.parametrize(
        "record, error",
        [
            ("2,0,1,9", "line 4, column 4: unknown value '9' for attribute 'a3'"),
            ("2,0,1", "line 4: expected 3 value cells, found 2"),
        ],
    )
    def test_line_counted_past_a_cell_spanning_lines(self, record, error):
        binary3 = load_schema(FIXTURES / "binary3_schema.json")
        text = f'id,a1,a2,a3\n"a\nb",0,1,0\n{record}\n'
        with pytest.raises(ParseError) as exc:
            parse_array(text, binary3, filename="bad.csv")
        assert str(exc.value) == f"bad.csv, {error}"

    def test_reordered_columns_rejected(self, schema):
        text = "Job,Role,Department,Semester\ninstructor,faculty,CS,Spring\n"
        with pytest.raises(ParseError):
            parse_array(text, schema)

    def test_allowed_column_sets(self, schema):
        doc = json.dumps(
            {"hard": [], "allowed_column_sets": [["Role", "Job"], ["Job", "Semester"]]}
        )
        _, allowed = parse_constraints(doc, schema)
        assert allowed == [(0, 1), (1, 3)]

    def test_repeated_allowed_attribute_names_the_file(self, schema):
        doc = json.dumps({"allowed_column_sets": [["Role", "Job"], ["Role", "Role"]]})
        with pytest.raises(ParseError) as exc:
            parse_constraints(doc, schema, filename="c.json")
        assert str(exc.value) == "c.json: allowed_column_sets: attribute 'Role' is repeated"

    def test_repeated_allowed_column_set_names_the_file(self, schema):
        doc = json.dumps({"allowed_column_sets": [["Role", "Job"], ["Job", "Role"]]})
        with pytest.raises(ParseError) as exc:
            parse_constraints(doc, schema, filename="c.json")
        assert str(exc.value) == (
            "c.json: allowed_column_sets: column set ['Job', 'Role'] is repeated"
        )

    def test_overlapping_kinds_rejected(self, schema):
        doc = json.dumps(
            {
                "hard": [[["Role", "faculty"], ["Job", "grader"]]],
                "soft": [[["Role", "faculty"], ["Job", "grader"]]],
            }
        )
        with pytest.raises(ParseError):
            parse_constraints(doc, schema)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliVerify:
    def test_array_b_r2(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_b.csv",
            FIXTURES / "university_constraints.json",
            "--t",
            "2",
        )
        assert code == 0
        assert "r = 2" in out

    def test_allowed_set_of_wrong_size_names_the_file(self, capsys, tmp_path):
        cons = tmp_path / "c.json"
        cons.write_text(json.dumps({"allowed_column_sets": [["Role", "Job"], ["Role"]]}))
        code, out, err = run(
            capsys,
            "verify",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            cons,
            "--t",
            "2",
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: {cons}: allowed_column_sets: column set ['Role'] "
            "does not have t=2 attributes\n"
        )
        code, _, err = run(
            capsys,
            "verify",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            cons,
            "--t",
            "5",
        )
        assert (code, err) == (1, "error: t=5 out of range for k=4\n")

    def test_array_a_target_violated(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            FIXTURES / "university_constraints.json",
            "--t",
            "2",
            "--r",
            "2",
        )
        assert code == 2
        assert "grader" in out and "CS" in out

    def test_halfspace_clean(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "halfspace_array.csv",
            FIXTURES / "halfspace_constraints.json",
            "--t",
            "2",
        )
        assert code == 0
        assert "r = 2" in out

    def test_hard_violation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        text = (FIXTURES / "halfspace_array.csv").read_text().replace(
            "1,0,0", "0,0,0", 1
        )
        bad.write_text(text)
        code, out, _ = run(
            capsys,
            "verify",
            FIXTURES / "binary3_schema.json",
            bad,
            FIXTURES / "halfspace_constraints.json",
            "--t",
            "2",
        )
        assert code == 3
        assert "hard violation" in out

    def test_trivial_attributes_noted_on_stderr(self, capsys, tmp_path):
        schema = AttributeSchema(
            (
                AttributeDef("a1", ("0", "1")),
                AttributeDef("a2", ("x",)),
                AttributeDef("a3", ("y",)),
            )
        )
        (tmp_path / "s.json").write_text(serialize_schema(schema))
        (tmp_path / "a.csv").write_text("a1,a2,a3\n0,x,y\n1,x,y\n0,x,y\n1,x,y\n")
        code, out, err = run(
            capsys, "verify", tmp_path / "s.json", tmp_path / "a.csv", "--t", "1"
        )
        assert code == 0
        assert out.startswith("r = 2 (t = 1)\n")
        assert err == "note: single-valued (trivial) attributes: a2, a3\n"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_b.csv",
            FIXTURES / "university_constraints.json",
            "--t",
            "2",
            "--json",
        )
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["r"] == 2

    _INPUTS = ("university_schema.json", "array_a.csv", "university_constraints.json")

    @pytest.mark.parametrize("marked", _INPUTS)
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, marked):
        # spreadsheet "UTF-8" exports start with U+FEFF
        text = (FIXTURES / marked).read_text(encoding="utf-8")
        (tmp_path / marked).write_text("\ufeff" + text, encoding="utf-8")
        paths = [tmp_path / n if n == marked else FIXTURES / n for n in self._INPUTS]
        expected = run(capsys, "verify", *(FIXTURES / n for n in self._INPUTS), "--t", "2")
        assert run(capsys, "verify", *paths, "--t", "2") == expected

    def test_parse_error_exit_1(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run(
            capsys, "verify", broken, FIXTURES / "array_a.csv", "--t", "2"
        )
        assert code == 1
        assert "broken.json" in err

    @pytest.mark.parametrize(
        "name, mangle, found",
        [
            # a spreadsheet's "Unicode text" export starts with bytes FF FE
            (
                "array_a.csv",
                lambda t: t.encode("utf-16"),
                ": byte 0 is not UTF-8; the file must be UTF-8 text",
            ),
            # the offset is that of the first non-ASCII byte, the e-umlaut
            (
                "university_schema.json",
                lambda t: t.replace("Fall", "F\xe4ll").encode("latin-1"),
                ": byte {} is not UTF-8; the file must be UTF-8 text",
            ),
            ("university_constraints.json", lambda t: b"[" * 200_000,
             ": JSON nested too deeply"),
            (
                "array_a.csv",
                lambda t: t.replace("\n", "\n" + "x" * 200_000 + ",", 1).encode(),
                ", line 2: field larger than field limit (131072)",
            ),
        ],
        ids=["utf16-array", "latin1-schema", "deep-constraints", "huge-cell"],
    )
    def test_unreadable_input_exit_1(self, capsys, tmp_path, name, mangle, found):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        (tmp_path / name).write_bytes(mangle(text))
        paths = [tmp_path / n if n == name else FIXTURES / n for n in self._INPUTS]
        code, out, err = run(capsys, "verify", *paths, "--t", "2")
        assert (code, out) == (1, "")
        found = found.format(text.find("Fall") + 1)
        assert err.startswith(f"error: {tmp_path / name}{found}")
        assert err.count("\n") == 1


@pytest.fixture
def doubled_factorial(tmp_path):
    """binary3 inputs: every row twice and the hard constraint
    {a1=0, a2=0, a3=0}, larger than t = 2, which rows 1 and 9 hold."""
    lines = (FIXTURES / "full_factorial.csv").read_text().splitlines()
    array = tmp_path / "doubled.csv"
    array.write_text("\n".join(lines + lines[1:]) + "\n")
    cons = tmp_path / "hard3.json"
    cons.write_text(json.dumps({"hard": [[["a1", "0"], ["a2", "0"], ["a3", "0"]]]}))
    return FIXTURES / "binary3_schema.json", array, cons


class TestCliHardLargerThanT:
    """A row holding a hard constraint is illegal at every t."""

    HARD = "{(a1, 0), (a2, 0), (a3, 0)}"

    def test_verify_reports_it(self, capsys, doubled_factorial):
        code, out, _ = run(capsys, "verify", *doubled_factorial, "--t", "2", "--r", "2")
        assert code == 3
        assert [line for line in out.splitlines() if "hard" in line] == [
            f"hard violation: row 1 contains {self.HARD}",
            f"hard violation: row 9 contains {self.HARD}",
        ]

    def test_profile_collapses_at_t1(self, capsys, doubled_factorial):
        code, out, _ = run(capsys, "profile", *doubled_factorial)
        assert code == 3
        assert out.splitlines()[0] == "t = 1: r = 0"

    def test_construct_refuses_the_base(self, capsys, doubled_factorial):
        code, out, err = run(
            capsys, "construct", *doubled_factorial, "--t", "2", "--r", "2"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: base array row 1 violates hard constraint {self.HARD}; "
            "padding cannot repair it\n"
        )


class TestCliProfile:
    def test_array_b(self, capsys):
        code, out, _ = run(
            capsys,
            "profile",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_b.csv",
            FIXTURES / "university_constraints.json",
            "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["entries"] == [
            {"t": 1, "r": 4},
            {"t": 2, "r": 2},
            {"t": 3, "r": 1},
        ]

    def test_allowed_column_sets_refused(self, capsys, tmp_path):
        # the sets have size t, and profile varies t
        cons = tmp_path / "c.json"
        cons.write_text(json.dumps({"allowed_column_sets": [["Role", "Job"]]}))
        code, out, err = run(
            capsys,
            "profile",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_b.csv",
            cons,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {cons}: profile does not take allowed_column_sets\n"


class TestCliHomogeneity:
    @pytest.mark.parametrize(
        "fixture,expected",
        [
            ("full_factorial.csv", "min 0.5 max 0.5 global 0.5"),
            ("fractional_replicated.csv", "min 0.583333 max 0.583333 global 0.583333"),
            ("two_groups.csv", "min 0.5 max 1.5 global 0.75"),
        ],
    )
    def test_table_scores(self, capsys, fixture, expected):
        code, out, _ = run(
            capsys,
            "homogeneity",
            FIXTURES / "binary3_schema.json",
            FIXTURES / fixture,
            "--t",
            "2",
        )
        assert code == 0
        assert out.splitlines()[0] == expected

    def test_hypergraph_export(self, capsys, tmp_path):
        out_file = tmp_path / "graph.json"
        code, _, _ = run(
            capsys,
            "homogeneity",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "two_groups.csv",
            "--t",
            "2",
            "--hypergraph",
            "json",
            "--hypergraph-out",
            out_file,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["edges"]) == 6

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize(
        "fmt,format", [("json", "structured-json"), ("text", "graph-description-text")]
    )
    def test_hypergraph_output_is_the_export(
        self, capsys, tmp_path, monkeypatch, fmt, format, labelled
    ):
        schema = load_schema(FIXTURES / "binary3_schema.json")
        array = load_array(FIXTURES / "two_groups.csv", schema)
        if labelled:
            labels = tuple(f'row "{i}" \u00e9' for i in range(array.n_rows))
            array = AccessProfileArray(schema, array.rows, labels)
        (tmp_path / "a.csv").write_text(serialize_array(array), encoding="utf-8")
        expected = export_hypergraph(array, 2, format)
        argv = (
            "homogeneity",
            FIXTURES / "binary3_schema.json",
            tmp_path / "a.csv",
            "--t",
            "2",
            "--hypergraph",
            fmt,
        )
        code, scores, _ = run(capsys, *argv, "--hypergraph-out", tmp_path / "graph")
        assert code == 0
        assert (tmp_path / "graph").read_text(encoding="utf-8") == expected
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == scores + expected + "\n"
        # "-" means stdout, as it does for construct -o
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv, "--hypergraph-out", "-") == (0, out, "")
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_hypergraph_out_to_a_missing_directory_prints_nothing(
        self, capsys, tmp_path, json_flag
    ):
        out_file = tmp_path / "missing" / "graph.json"
        code, out, err = run(
            capsys,
            "homogeneity",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "two_groups.csv",
            "--t",
            "2",
            *json_flag,
            "--hypergraph",
            "json",
            "--hypergraph-out",
            out_file,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "graph.json" in err

    def test_hypergraph_out_without_format_is_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "graph.json"
        code, out, err = run(
            capsys,
            "homogeneity",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "halfspace_array.csv",
            "--t",
            "2",
            "--hypergraph-out",
            out_file,
        )
        assert code == 1
        assert "--hypergraph" in err.replace("--hypergraph-out", "")
        assert out == ""
        assert not out_file.exists()

    def test_closeness_dump(self, capsys):
        code, out, _ = run(
            capsys,
            "homogeneity",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "two_groups.csv",
            "--t",
            "2",
            "--closeness",
            "--json",
        )
        doc = json.loads(out)
        assert doc["closeness"][0][1] == "1.5"
        assert doc["closeness"][0][0] == "0"


class TestCliConstruct:
    @pytest.mark.parametrize("w", ["nan", "inf", "1e400", "-inf"])
    def test_non_finite_weight_exit_1(self, capsys, w):
        code, out, err = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            "--r",
            "2",
            "--t",
            "2",
            f"--homogeneity-weight={w}",
        )
        assert code == 1
        assert out == ""
        assert err == "error: homogeneity_weight must be in [0, 1]\n"

    def test_pad_array_a(self, capsys, tmp_path):
        out_file = tmp_path / "padded.csv"
        code, out, _ = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            FIXTURES / "university_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
            "--seed",
            "0",
            "--json",
            "-o",
            out_file,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == 12
        assert doc["padding_count"] == 6
        assert doc["achieved_r"] == 2
        schema = load_schema(FIXTURES / "university_schema.json")
        padded = load_array(out_file, schema)
        assert padded.n_rows == 12

    def test_lower_bound_at_least_r_in_summary(self, capsys, tmp_path):
        # every size-2 credential is don't-care: two copies of one row
        # meet r = 2 and cannot shrink
        schema, cons = tmp_path / "s.json", tmp_path / "c.json"
        schema.write_text(
            json.dumps(
                {
                    "attributes": [
                        {"name": "A", "values": ["x", "y"]},
                        {"name": "B", "values": ["p", "q"]},
                    ]
                }
            )
        )
        cons.write_text(json.dumps({"dont_care": [[["A", "x"]], [["A", "y"]]]}))
        code, out, _ = run(
            capsys,
            "construct",
            schema,
            "-",
            cons,
            "--t",
            "2",
            "--r",
            "2",
            "--json",
            "-o",
            tmp_path / "out.csv",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["rows"], doc["lower_bound"]) == (2, 2)

    def test_first_attribute_named_id_round_trip(self, capsys, tmp_path):
        # no label column: the header "id,B" is the schema's own names
        schema, out_file = tmp_path / "s.json", tmp_path / "out.csv"
        schema.write_text(
            json.dumps(
                {
                    "attributes": [
                        {"name": "id", "values": ["0", "1"]},
                        {"name": "B", "values": ["p", "q"]},
                    ]
                }
            )
        )
        code, _, _ = run(
            capsys, "construct", schema, "-", "--t", "2", "--r", "2", "-o", out_file
        )
        assert code == 0
        assert out_file.read_text(encoding="utf-8").splitlines()[0] == "id,B"
        code, out, err = run(capsys, "verify", schema, out_file, "--t", "2")
        assert (code, err) == (0, "")
        assert "r = 2" in out

    def test_row_labels_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "padded.csv"
        code, _, _ = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            FIXTURES / "university_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
            "-o",
            out_file,
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "id,Role,Job,Department,Semester"
        schema = load_schema(FIXTURES / "university_schema.json")
        base = load_array(FIXTURES / "array_a.csv", schema)
        padded = load_array(out_file, schema)
        assert padded.rows[: base.n_rows] == base.rows
        assert padded.row_labels == base.row_labels + tuple(
            f"pad-{i}" for i in range(1, padded.n_rows - base.n_rows + 1)
        )
        assert serialize_array(padded) == text
        # from scratch there are no labels to keep
        code, out, _ = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            "-",
            FIXTURES / "university_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
        )
        assert code == 0
        assert out.splitlines()[0] == "Role,Job,Department,Semester"

    def test_infeasible_exit_5(self, capsys):
        code, _, err = run(
            capsys,
            "construct",
            FIXTURES / "binary3_schema.json",
            "-",
            FIXTURES / "pair_block_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
        )
        assert code == 5
        assert "a3" in err

    def test_oversized_hard_constraints_block_a_value_exit_5(self, capsys):
        code, _, err = run(
            capsys,
            "construct",
            FIXTURES / "binary3_schema.json",
            "-",
            FIXTURES / "halfspace_constraints.json",
            "--r",
            "2",
            "--t",
            "1",
        )
        assert code == 5
        assert "{(a1, 0)}" in err

    def test_already_satisfied(self, capsys, tmp_path):
        out_file = tmp_path / "same.csv"
        code, out, _ = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_b.csv",
            FIXTURES / "university_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
            "--json",
            "-o",
            out_file,
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["padding_count"] == 0
        assert doc["rows"] == 12

    def test_budget_exit_4(self, capsys):
        code, _, err = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            FIXTURES / "university_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
            "--max-rows",
            "8",
        )
        assert code == 4
        assert err.startswith("error: row budget exhausted with ")

    def test_budget_below_r_target_with_nothing_to_pad_exit_4(self, capsys, tmp_path):
        # every credential is don't-care, yet one row cannot meet r = 2
        schema = tmp_path / "s.json"
        schema.write_text(
            json.dumps(
                {
                    "attributes": [
                        {"name": "A", "values": ["x", "y"]},
                        {"name": "B", "values": ["p", "q"]},
                    ]
                }
            )
        )
        cons = tmp_path / "c.json"
        cons.write_text(json.dumps({"dont_care": [[["A", "x"]], [["A", "y"]]]}))
        argv = ["construct", schema, "-", cons, "--t", "2", "--r", "2"]
        code, out, err = run(capsys, *argv, "--max-rows", "1")
        assert (code, out) == (4, "")
        assert err == (
            "error: row budget exhausted: max_rows=1 is below r_target=2\n"
        )
        code, out, _ = run(capsys, *argv, "--max-rows", "2")
        assert (code, out) == (0, "A,B\nx,p\nx,p\n")

    def test_same_seed_same_output(self, capsys, tmp_path):
        outputs = []
        for name in ("one.csv", "two.csv"):
            out_file = tmp_path / name
            run(
                capsys,
                "construct",
                FIXTURES / "university_schema.json",
                FIXTURES / "array_a.csv",
                FIXTURES / "university_constraints.json",
                "--r",
                "2",
                "--t",
                "2",
                "--seed",
                "11",
                "-o",
                out_file,
            )
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    def test_json_summary_to_stderr_when_csv_on_stdout(self, capsys):
        code, out, err = run(
            capsys,
            "construct",
            FIXTURES / "university_schema.json",
            FIXTURES / "array_a.csv",
            FIXTURES / "university_constraints.json",
            "--r",
            "2",
            "--t",
            "2",
            "--json",
        )
        assert code == 0
        schema = load_schema(FIXTURES / "university_schema.json")
        padded = parse_array(out, schema)
        doc = json.loads(err)
        assert doc["rows"] == padded.n_rows == 12


class TestCliBadInputFiles:
    BINARY3 = FIXTURES / "binary3_schema.json"
    REPEATED = {"name": "a", "values": ["0", "1"]}

    @pytest.mark.parametrize(
        "schema_doc, constraints_doc, message",
        [
            ([], None, "top-level value must be an object"),
            (
                {"attributes": [REPEATED, REPEATED]},
                None,
                "attribute names must be unique",
            ),
            (
                None,
                {"hard": [[["a1", "0"], ["a1", "1"]]]},
                "hard constraint: credential attributes must be distinct",
            ),
            (None, {"hard": {}}, '"hard" must be a list'),
            (
                None,
                {"allowed_column_sets": "a1"},
                '"allowed_column_sets" must be a list',
            ),
            (
                None,
                {"allowed_column_sets": ["a1"]},
                "allowed column set must be a list of attribute names",
            ),
        ],
        ids=[
            "top-level-list",
            "repeated-attribute",
            "attribute-twice-in-constraint",
            "hard-not-list",
            "allowed-not-list",
            "allowed-entry-not-list",
        ],
    )
    def test_exit_1_naming_the_file(
        self, capsys, tmp_path, schema_doc, constraints_doc, message
    ):
        schema, cons = self.BINARY3, tmp_path / "c.json"
        cons.write_text(json.dumps(constraints_doc or {}))
        bad = cons
        if schema_doc is not None:
            schema = bad = tmp_path / "s.json"
            schema.write_text(json.dumps(schema_doc))
        code, out, err = run(capsys, "constraints-derive", schema, cons, "--t", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: {message}\n"


class TestCliOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "university_schema.json", "array_a.csv", "--t", "1"],
            ["construct", "university_schema.json", "-", "--r", "2", "--t", "1"],
            ["constraints-derive", "university_schema.json",
             "university_constraints.json", "--t", "1"],
        ],
    )
    def test_threads_rejected(self, capsys, argv):
        argv = [str(FIXTURES / a) if a.endswith((".json", ".csv")) else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("t", [["--t", "abc"], []], ids=["t-not-int", "t-missing"])
    def test_usage_error_exit_1_not_2(self, capsys, t):
        # 2 means "guarantee below target", so a typo must not exit 2
        argv = [str(FIXTURES / "university_schema.json"), str(FIXTURES / "array_a.csv")]
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv, *t])
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err


class TestCliConstraintsDerive:
    def test_pair_block(self, capsys):
        code, out, _ = run(
            capsys,
            "constraints-derive",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "pair_block_constraints.json",
            "--t",
            "2",
            "--json",
        )
        doc = json.loads(out)
        assert code == 5
        assert doc["implicit_hard"] == [[["a1", "0"]]]
        assert doc["feasible"] is False

    def test_pair_block_text_names_each_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "constraints-derive",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "pair_block_constraints.json",
            "--t",
            "2",
        )
        reason = (
            "unconstrained credential is unrealizable: every row containing it "
            "violates a hard constraint (implied by {(a1, 0)})"
        )
        assert code == 5
        assert out == (
            "implicit hard constraints:\n"
            "  {(a1, 0)}\n"
            "feasible: no\n"
            f"  {{(a1, 0), (a3, 0)}}: {reason}\n"
            f"  {{(a1, 0), (a3, 1)}}: {reason}\n"
        )

    def test_promoted_feasible(self, capsys):
        code, out, _ = run(
            capsys,
            "constraints-derive",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "halfspace_constraints.json",
            "--t",
            "2",
            "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["feasible"] is True

    def test_no_legal_row_gives_the_reason(self, capsys):
        argv = [
            "constraints-derive",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "no_legal_row_constraints.json",
            "--t",
            "2",
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 5
        assert out == (
            "implicit hard constraints:\n"
            "  {(a3, 0)}\n"
            "  {(a3, 1)}\n"
            "feasible: no\n"
            "  no row avoids every hard constraint\n"
        )
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 5
        assert doc["feasible"] is False
        assert doc["witnesses"] == []
        assert doc["reason"] == "no row avoids every hard constraint"

    @pytest.mark.parametrize("command", ["constraints-derive", "construct"])
    def test_no_legal_row_is_reported_briefly(self, capsys, tmp_path, command):
        # k=16, v=4 with every value of a1 hard: listing each unrealizable
        # size-3 credential as a witness printed 4.4 MB
        schema = AttributeSchema(
            tuple(AttributeDef(f"a{i + 1}", tuple("0123")) for i in range(16))
        )
        hard = frozenset(Credential(((0, x),)) for x in range(4))
        (tmp_path / "s.json").write_text(serialize_schema(schema))
        (tmp_path / "c.json").write_text(
            serialize_constraints(ConstraintSet(hard=hard), schema)
        )
        argv = [tmp_path / "s.json", tmp_path / "c.json", "--t", "3", "--json"]
        if command == "construct":
            argv = [argv[0], "-", *argv[1:], "--r", "2"]
        code, out, err = run(capsys, command, *argv)
        assert code == 5
        assert len(out) + len(err) < 10_000
        if command == "construct":
            assert out == ""
            assert err == (
                "error: constraint system is infeasible: "
                "no row avoids every hard constraint\n"
            )
        else:
            doc = json.loads(out)
            assert doc["feasible"] is False
            assert doc["witnesses"] == []
            assert doc["reason"] == "no row avoids every hard constraint"
            # every pair but the four hard ones is an implicit hard constraint
            assert len(doc["implicit_hard"]) == 16 * 4 - 4

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_t_out_of_range_exit_1(self, capsys, t):
        code, out, err = run(
            capsys,
            "constraints-derive",
            FIXTURES / "binary3_schema.json",
            FIXTURES / "halfspace_constraints.json",
            "--t",
            t,
        )
        assert code == 1
        assert out == ""
        assert f"t={t} out of range" in err

    @pytest.mark.parametrize("command", ["constraints-derive", "construct"])
    def test_search_budget_exit_1(
        self, capsys, tmp_path, monkeypatch, uncolourable, command
    ):
        schema, constraints = uncolourable
        (tmp_path / "s.json").write_text(serialize_schema(schema))
        (tmp_path / "c.json").write_text(serialize_constraints(constraints, schema))
        monkeypatch.setattr(constraints_mod, "_SEARCH_BUDGET", 20)
        argv = [tmp_path / "s.json", tmp_path / "c.json", "--t", "2"]
        if command == "construct":
            argv = [argv[0], "-", *argv[1:], "--r", "2"]
        code, _, err = run(capsys, command, *argv)
        assert code == 1
        assert "gave up after 20 search nodes while completing {(a1, 1)}" in err
