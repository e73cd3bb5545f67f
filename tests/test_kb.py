from datetime import date
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planhorizon import kb

import oracles


def make_doc(**overrides):
    doc = {
        "concepts": [
            {"id": "c1", "name": "thing"},
            {"id": "c2", "name": "gadget", "subclass_of": ["c1"]},
        ],
        "entities": [
            {
                "id": "e1",
                "name": "Widget",
                "instance_of": ["c2"],
                "attributes": [
                    {"key": "mass", "value": {"kind": "number", "value": 3.5, "unit": "kilogram"}}
                ],
            },
            {
                "id": "e2",
                "name": "Gizmo",
                "instance_of": ["c1"],
                "relations": [
                    {"predicate": "part of", "direction": "forward", "target": "e1"}
                ],
            },
        ],
    }
    doc.update(overrides)
    return doc


class TestTypedValue:
    def test_constructors_and_render(self):
        assert kb.TypedValue("string", "hi").render() == "hi"
        assert kb.TypedValue("number", 206, "centimetre").render() == "206 centimetre"
        assert kb.TypedValue("number", 3.5).render() == "3.5"
        assert kb.TypedValue("year", 2003).render() == "2003"
        assert kb.TypedValue("date", date(1980, 1, 2)).render() == "1980-01-02"

    def test_kind_payload_must_agree(self):
        with pytest.raises(kb.KindMismatchError):
            kb.TypedValue("number", "oops")
        with pytest.raises(kb.KindMismatchError):
            kb.TypedValue("teapot", "x")

    def test_json_round_trip(self):
        for v in (kb.TypedValue("string", "a"), kb.TypedValue("number", 1.5, "m"),
                  kb.TypedValue("year", 1999), kb.TypedValue("date", date(2020, 5, 17))):
            assert kb.TypedValue.from_json(oracles.typed_value_json(v)) == v


class TestParseValueText:
    def test_heuristics(self):
        assert kb.parse_value_text("2003") == kb.TypedValue("year", 2003)
        assert kb.parse_value_text("206 centimetre") == kb.TypedValue("number", 206, "centimetre")
        assert kb.parse_value_text("1980-01-02") == kb.TypedValue("date", date(1980, 1, 2))
        assert kb.parse_value_text("LeBron James") == kb.TypedValue("string", "LeBron James")
        # out of the year range, so a bare number
        assert kb.parse_value_text("180000") == kb.TypedValue("number", 180000)

    def test_kind_hint_overrides(self):
        assert kb.parse_value_text("2003", "number") == kb.TypedValue("number", 2003)
        assert kb.parse_value_text("2003", "string") == kb.TypedValue("string", "2003")


# Every ISO 8601 date form Python 3.11's `date.fromisoformat` reads: only
# YYYY-MM-DD is a date, as on Python 3.10; the others read as they would there.
@pytest.mark.parametrize("text, read", [
    ("2023-01-15", kb.TypedValue("date", date(2023, 1, 15))),
    ("20230115", kb.TypedValue("number", 20230115)),
    ("2023W021", kb.TypedValue("string", "2023W021")),
    ("2023-W02-1", kb.TypedValue("string", "2023-W02-1")),
    ("2023-W02", kb.TypedValue("string", "2023-W02")),
    ("2023-1-15", kb.TypedValue("string", "2023-1-15")),
    ("\u0662\u0660\u0662\u0663-01-15", kb.TypedValue("string", "\u0662\u0660\u0662\u0663-01-15")),
], ids=["extended", "basic", "week-basic", "week-extended", "week-no-day",
        "short-month", "non-ascii-digits"])
def test_only_yyyy_mm_dd_is_a_date(text, read):
    assert kb.parse_value_text(text) == read
    if read.kind == "date":
        assert kb.parse_value_text(text, "date") == read
        assert kb.TypedValue.from_json({"kind": "date", "value": text}) == read
        return
    with pytest.raises(ValueError, match="Invalid isoformat string"):
        kb.parse_value_text(text, "date")
    with pytest.raises(kb.MalformedDocumentError, match=f"bad date value {text!r}"):
        kb.TypedValue.from_json({"kind": "date", "value": text})


class TestCompareTyped:
    def test_numbers_with_units(self):
        a = kb.TypedValue("number", 208, "centimetre")
        b = kb.TypedValue("number", 206, "centimetre")
        assert kb.compare_typed(a, ">", b)
        assert not kb.compare_typed(a, "<", b)
        assert kb.compare_typed(a, "!=", b)

    def test_unit_mismatch(self):
        a = kb.TypedValue("number", 1, "metre")
        b = kb.TypedValue("number", 1, "kilogram")
        with pytest.raises(kb.UnitMismatchError):
            kb.compare_typed(a, ">", b)

    def test_strings_only_equality(self):
        a, b = kb.TypedValue("string", "x"), kb.TypedValue("string", "y")
        assert not kb.compare_typed(a, "=", b)
        assert kb.compare_typed(a, "!=", b)
        with pytest.raises(kb.UnsupportedOperatorError):
            kb.compare_typed(a, "<", b)

    def test_kind_mismatch(self):
        with pytest.raises(kb.KindMismatchError):
            kb.compare_typed(kb.TypedValue("year", 2000), "=", kb.TypedValue("string", "2000"))

    def test_operator_aliases(self):
        a = kb.TypedValue("year", 1999)
        assert kb.compare_typed(a, "==", a)
        assert not kb.compare_typed(a, "≠", a)


class TestLoadKb:
    def test_valid_document(self):
        base = kb.load_kb(make_doc())
        assert list(base.entities) == ["e1", "e2"]
        assert base.name_index["Widget"] == ("e1",)
        assert base.entities["e2"].relations[0].target == "e1"

    def test_malformed_is_position_annotated(self):
        doc = make_doc()
        del doc["entities"][1]["name"]
        with pytest.raises(kb.MalformedDocumentError) as err:
            kb.load_kb(doc)
        assert "entities[1]" in str(err.value)

    def test_dangling_relation_target(self):
        doc = make_doc()
        doc["entities"][1]["relations"][0]["target"] = "nope"
        with pytest.raises(kb.DanglingReferenceError):
            kb.load_kb(doc)

    def test_dangling_concept(self):
        doc = make_doc()
        doc["entities"][0]["instance_of"] = ["ghost"]
        with pytest.raises(kb.DanglingReferenceError):
            kb.load_kb(doc)

    def test_cyclic_taxonomy(self):
        doc = make_doc()
        doc["concepts"][0]["subclass_of"] = ["c2"]
        with pytest.raises(kb.CyclicTaxonomyError):
            kb.load_kb(doc)

    def test_cycle_reached_from_outside_names_only_the_cycle(self):
        # x is a subclass of a, which lies on the 3-cycle a -> b -> c -> a
        links = {"x": ["a"], "a": ["b"], "b": ["c"], "c": ["a"]}
        doc = make_doc(entities=[], concepts=[{"id": cid, "name": cid, "subclass_of": parents}
                                              for cid, parents in links.items()])
        with pytest.raises(kb.CyclicTaxonomyError,
                           match=r"^cyclic subclass_of chain: a -> b -> c -> a$"):
            kb.load_kb(doc)

    def test_round_trip(self):
        base = kb.load_kb(make_doc())
        again = kb.load_kb(json.loads(json.dumps(oracles.serialize_kb(base))))
        assert oracles.serialize_kb(again) == oracles.serialize_kb(base)

    def test_mini_kb_fixture(self, fixtures_dir):
        base = kb.load_kb(kb.read_document(fixtures_dir / "mini_kb.json"))
        assert len(base.entities) == 5
        jr = base.entities[base.name_index["LeBron James Jr."][0]]
        assert jr.attributes[0].value == kb.TypedValue("number", 208, "centimetre")
        senior = base.entities[base.name_index["LeBron James"][0]]
        assert senior.attributes[0].qualifiers == (
            ("point in time", kb.TypedValue("year", 2003)),
        )


class TestConceptClosure:
    def test_includes_transitive_subclasses(self):
        base = kb.load_kb(make_doc(concepts=[
            {"id": "a", "name": "a"},
            {"id": "b", "name": "b", "subclass_of": ["a"]},
            {"id": "c", "name": "c", "subclass_of": ["b"]},
            {"id": "d", "name": "d"},
        ], entities=[]))
        assert kb.concept_closure(base, "a") == {"a", "b", "c"}
        assert kb.concept_closure(base, "c") == {"c"}

    def test_unknown_concept(self):
        base = kb.load_kb(make_doc())
        with pytest.raises(kb.UnknownConceptError):
            kb.concept_closure(base, "missing")


@given(st.one_of(
    st.text(max_size=30).map(lambda x: kb.TypedValue("string", x)),
    st.integers(1000, 2999).map(lambda x: kb.TypedValue("year", x)),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        lambda x: kb.TypedValue("number", float(x), "u")),
))
def test_typed_value_json_round_trip_property(value):
    assert kb.TypedValue.from_json(oracles.typed_value_json(value)) == value


# The payload type each kind's `value` holds
PAYLOAD_TYPES = {"string": str, "number": (int, float), "year": int, "date": date}

SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=12)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.dates().map(date.isoformat))
JSON_VALUES = (SCALARS | st.lists(SCALARS, max_size=2)
               | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))
KIND_NAMES = st.sampled_from([*sorted(PAYLOAD_TYPES), "teapot", "Number"])
# (kind, value) pairs: a value already in its kind's document form, or anything
DOCUMENTS = st.one_of(
    st.tuples(st.just("string"), st.text(max_size=12)),
    st.tuples(st.just("number"), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("year"), st.integers()),
    st.tuples(st.just("date"), st.dates().map(date.isoformat)),
    st.tuples(st.sampled_from([*sorted(PAYLOAD_TYPES), "teapot", None, 5, ["number"], {}]),
              JSON_VALUES),
)


def in_document_form(kind, value) -> bool:
    """Whether `value` is already what `oracles.typed_value_json` writes for `kind`."""
    if kind == "date" and isinstance(value, str):
        try:
            return date.fromisoformat(value).isoformat() == value
        except ValueError:
            return False
    return isinstance(kind, str) and type(value) is {"string": str, "number": float,
                                                     "year": int}.get(kind)


@settings(max_examples=500)
@given(document=DOCUMENTS, unit=st.none() | JSON_VALUES)
def test_from_json_reads_a_value_or_reports_the_document(document, unit):
    kind, value = document
    doc = {"kind": kind, "value": value, "unit": unit}
    try:
        read = kb.TypedValue.from_json(doc, "here")
    except kb.MalformedDocumentError as exc:
        assert exc.location == "here"
        unit_ok = kind != "number" or unit is None or isinstance(unit, str)
        assert not (in_document_form(kind, value) and unit_ok)
        return
    assert isinstance(read.value, PAYLOAD_TYPES[read.kind])
    assert kb.TypedValue.from_json(oracles.typed_value_json(read)) == read
    if in_document_form(kind, value):
        assert oracles.typed_value_json(read)["value"] == value


@settings(max_examples=500)
@given(kind=KIND_NAMES, value=JSON_VALUES | st.dates())
def test_constructor_accepts_only_its_kinds_payload_type(kind, value):
    fits = kind in PAYLOAD_TYPES and isinstance(value, PAYLOAD_TYPES[kind])
    try:
        kb.TypedValue(kind, value)
    except kb.KindMismatchError:
        assert not fits
    else:
        assert fits


LITERAL_SHAPES = st.one_of(
    st.text(alphabet="0123456789-.e +_:Tainfxyz", max_size=14),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]),
              st.dates().map(date.isoformat), st.sampled_from(["", " ", " km", "x", "T12"])),
)


@settings(max_examples=500)
@given(LITERAL_SHAPES)
def test_parse_value_text_reads_a_literal_exactly_when_extract_entity_did(text):
    parsed = kb.parse_value_text(text)
    assert (parsed.kind != "string") == oracles.looks_like_literal(text)
    assert kb.TypedValue.from_json(oracles.typed_value_json(parsed)) == parsed
