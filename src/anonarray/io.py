"""File formats: schema and constraint JSON documents, CSV array documents,
and `write_json`, which streams the CLI's machine-readable documents.

Labels live in files; indices live in memory.  Unknown labels are errors,
never silent extensions, because growing a domain invalidates any
previously computed guarantee.
"""

from __future__ import annotations

import csv
import io as _io
import json
from collections.abc import Iterator
from typing import Dict, List, Optional, TextIO, Tuple

from .constraints import ConstraintSet
from .errors import InvalidParameterError, ParseError
from .model import (
    AccessProfileArray,
    AttributeDef,
    AttributeSchema,
    ColumnSet,
    Credential,
)


def _load_json(text: str, filename=None) -> dict:
    try:
        # spreadsheet "UTF-8" exports start with a byte order mark
        doc = json.loads(text.removeprefix("\ufeff"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, filename=filename, line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise ParseError("JSON nested too deeply", filename=filename)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object", filename=filename)
    return doc


_quote = json.encoder.encode_basestring_ascii


def _dumps(value, indent: str) -> str:
    """json.dumps(value, indent=2) of a value that starts at `indent`."""
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_dumps(v, inner)}" for key, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple, Iterator)):
        if isinstance(value, Iterator):
            value = list(value)
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(_quote, value)
        elif kinds == {int}:
            items = map(str, value)
        else:
            items = [_dumps(v, inner) for v in value]
        brackets = "[]"
    else:  # numbers, booleans and None, as json.dumps spells them
        return json.dumps(value)
    if not value:
        return brackets
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _write_items(value, indent: str, out: TextIO) -> None:
    """Write _dumps(value, indent), a list, tuple or iterator an item at a time."""
    if not isinstance(value, (list, tuple, Iterator)):
        out.write(_dumps(value, indent))
        return
    inner = indent + "  "
    sep = "[\n" + inner
    for item in value:
        out.write(sep + _dumps(item, inner))
        sep = ",\n" + inner
    out.write("[]" if sep[0] == "[" else f"\n{indent}]")


def write_json(doc, out: TextIO) -> None:
    """Write `json.dumps(doc, indent=2) + "\\n"` to the text stream `out`.

    Any list in `doc` may be given as a tuple or an iterator, and dict keys
    must be str.  The lists that are `doc` or its top-level values are
    written one item at a time, so an iterator there is never held whole;
    anything deeper is rendered per top-level item.
    """
    if isinstance(doc, dict) and doc:
        sep = "{\n  "
        for key, value in doc.items():
            out.write(f"{sep}{_quote(key)}: ")
            _write_items(value, "  ", out)
            sep = ",\n  "
        out.write("\n}\n")
    else:
        _write_items(doc, "", out)
        out.write("\n")


def parse_schema(text: str, filename=None) -> AttributeSchema:
    doc = _load_json(text, filename)
    attrs = doc.get("attributes")
    if not isinstance(attrs, list) or not attrs:
        raise ParseError('"attributes" must be a non-empty list', filename=filename)
    defs = []
    for i, entry in enumerate(attrs):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("values"), list)
            or not all(isinstance(v, str) for v in entry["values"])
        ):
            raise ParseError(
                f'attribute {i}: expected {{"name": str, "values": [str, ...]}}',
                filename=filename,
            )
        defs.append(AttributeDef(name=entry["name"], values=tuple(entry["values"])))
    try:
        return AttributeSchema(attributes=tuple(defs))
    except Exception as exc:
        raise ParseError(str(exc), filename=filename)


def serialize_schema(schema: AttributeSchema) -> str:
    return json.dumps(
        {
            "attributes": [
                {"name": a.name, "values": list(a.values)} for a in schema.attributes
            ]
        },
        indent=2,
    )


def _records(reader, filename):
    """(line, record) per record, streamed; malformed CSV is a ParseError."""
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:
        raise ParseError(str(exc), filename=filename, line=reader.line_num)


def parse_array(text: str, schema: AttributeSchema, filename=None) -> AccessProfileArray:
    reader = _records(csv.reader(_io.StringIO(text.removeprefix("\ufeff"))), filename)
    try:
        _, header = next(reader)
    except StopIteration:
        raise ParseError("empty array document", filename=filename, line=1)
    header = [h.strip() for h in header]
    expected = [a.name for a in schema.attributes]
    has_id = bool(header) and header[0] == "id"
    names = header[1:] if has_id else header
    if names != expected:
        raise ParseError(
            f"header columns {names} do not match schema order {expected}",
            filename=filename,
            line=1,
        )
    index = [{label: v for v, label in enumerate(a.values)} for a in schema.attributes]
    rows = []
    labels: List[str] = []
    for lineno, record in reader:
        cells = list(map(str.strip, record))
        if not any(cells):
            continue
        if has_id:
            labels.append(cells[0])
            cells = cells[1:]
        if len(cells) != schema.k:
            raise ParseError(
                f"expected {schema.k} value cells, found {len(cells)}",
                filename=filename,
                line=lineno,
            )
        row = tuple(map(dict.get, index, cells))
        if None in row:
            j = row.index(None)
            raise ParseError(
                f"unknown value {cells[j]!r} for attribute "
                f"{schema.attributes[j].name!r}",
                filename=filename,
                line=lineno,
                column=j + (2 if has_id else 1),
            )
        rows.append(row)
    if not rows:
        raise ParseError("array document has no data rows", filename=filename)
    return AccessProfileArray(
        schema=schema,
        rows=tuple(rows),
        row_labels=tuple(labels) if has_id else None,
    )


def serialize_array(array: AccessProfileArray) -> str:
    out = _io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    names = [a.name for a in array.schema.attributes]
    has_id = array.row_labels is not None
    writer.writerow((["id"] if has_id else []) + names)
    for i, row in enumerate(array.rows):
        labels = [
            array.schema.attributes[j].values[v] for j, v in enumerate(row)
        ]
        writer.writerow(([array.row_labels[i]] if has_id else []) + labels)
    return out.getvalue()


def _parse_credential(entry, schema: AttributeSchema, kind: str, filename) -> Credential:
    if not isinstance(entry, list) or not entry:
        raise ParseError(
            f'{kind} constraint must be a non-empty list of [attribute, value] pairs',
            filename=filename,
        )
    pairs = []
    for pair in entry:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(
                f"{kind} constraint pair must be [attribute, value]", filename=filename
            )
        name, label = pair
        try:
            a = schema.attribute_index(name)
            v = schema.value_index(a, label)
        except Exception as exc:
            raise ParseError(f"{kind} constraint: {exc}", filename=filename)
        pairs.append((a, v))
    try:
        return Credential(tuple(pairs))
    except Exception as exc:
        raise ParseError(f"{kind} constraint: {exc}", filename=filename)


def _credential_doc(cred: Credential, schema: AttributeSchema) -> list:
    """[[attribute, value], ...], the list `_parse_credential` reads."""
    return [
        [schema.attributes[a].name, schema.attributes[a].values[v]]
        for a, v in cred.pairs
    ]


def parse_constraints(
    text: str, schema: AttributeSchema, filename=None
) -> Tuple[ConstraintSet, Optional[List[ColumnSet]]]:
    """Constraint document -> (ConstraintSet, allowed column sets or None)."""
    doc = _load_json(text, filename)
    kinds = {}
    for kind in ("hard", "soft", "dont_care"):
        entries = doc.get(kind, [])
        if not isinstance(entries, list):
            raise ParseError(f'"{kind}" must be a list', filename=filename)
        kinds[kind] = frozenset(
            _parse_credential(e, schema, kind, filename) for e in entries
        )
    allowed = None
    if "allowed_column_sets" in doc:
        raw = doc["allowed_column_sets"]
        if not isinstance(raw, list):
            raise ParseError('"allowed_column_sets" must be a list', filename=filename)
        sets: Dict[ColumnSet, None] = {}
        for names in raw:
            if not isinstance(names, list):
                raise ParseError(
                    "allowed column set must be a list of attribute names",
                    filename=filename,
                )
            try:
                repeated = [n for n in names if names.count(n) > 1]
                if repeated:
                    raise InvalidParameterError(f"attribute {repeated[0]!r} is repeated")
                cols = tuple(sorted(schema.attribute_index(n) for n in names))
                if cols in sets:
                    raise InvalidParameterError(f"column set {names!r} is repeated")
                sets[cols] = None
            except Exception as exc:
                raise ParseError(f"allowed_column_sets: {exc}", filename=filename)
        allowed = list(sets)
    try:
        constraints = ConstraintSet(**kinds)
    except Exception as exc:
        raise ParseError(str(exc), filename=filename)
    return constraints, allowed


def serialize_constraints(constraints: ConstraintSet, schema: AttributeSchema) -> str:
    doc = {
        kind: [_credential_doc(c, schema) for c in sorted(getattr(constraints, kind))]
        for kind in ("hard", "soft", "dont_care")
    }
    return json.dumps(doc, indent=2)


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            msg = f"byte {exc.start} is not UTF-8; the file must be UTF-8 text"
            raise ParseError(msg, filename=str(path))


def load_schema(path) -> AttributeSchema:
    return parse_schema(_read(path), filename=str(path))


def load_array(path, schema: AttributeSchema) -> AccessProfileArray:
    return parse_array(_read(path), schema, filename=str(path))


def load_constraints(path, schema: AttributeSchema):
    return parse_constraints(_read(path), schema, filename=str(path))
