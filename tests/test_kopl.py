import pytest
from hypothesis import given
from hypothesis import strategies as st

from planhorizon import kb as kbmod
from planhorizon import kopl
from planhorizon.grounding import Grounder, build_index
from planhorizon.kopl import EntitySet
from planhorizon.outcome import ToolOutcome

import oracles
from oracles import KoplProgram, KoplStep


EXPECTED_TOOLS = (
    "FindAll", "Find", "FilterConcept", "FilterStr", "FilterNum", "FilterYear",
    "FilterDate", "QFilterStr", "QFilterNum", "QFilterYear", "QFilterDate",
    "Relate", "And", "Or", "Count", "SelectAmong", "SelectBetween",
    "VerifyStr", "VerifyNum", "VerifyYear", "VerifyDate", "QueryName",
    "QueryRelation", "QueryAttr", "QueryAttrUnderCondition",
    "QueryAttrQualifier", "QueryRelationQualifier",
)


@pytest.fixture(scope="module")
def kb(fixtures_dir):
    return kbmod.load_kb(kbmod.read_document(fixtures_dir / "mini_kb.json"))


@pytest.fixture()
def grounder(kb):
    return Grounder(build_index(kb), mode="high")


def run(kb, grounder, tool, **args):
    return kopl.run_tool(kb, grounder, tool, args)


class TestCatalog:
    def test_twenty_seven_canonical_tools(self):
        names = [entry["name"] for entry in kopl.KoplEngine.catalog]
        assert tuple(names) == EXPECTED_TOOLS
        assert len(names) == 27

    def test_unknown_tool_is_a_program_error(self, kb, grounder):
        # plans never reach it (parse_plan rejects the tool); direct callers can
        with pytest.raises(kopl.ProgramError, match="unknown KoPL tool 'Teleport'"):
            run(kb, grounder, "Teleport")

    def test_ref_params(self):
        assert oracles.ref_params(oracles.KOPL_CATALOG, "Find") == []
        assert oracles.ref_params(oracles.KOPL_CATALOG, "SelectBetween") == ["left", "right"]
        assert oracles.ref_params(oracles.KOPL_CATALOG, "VerifyNum") == ["input"]


class TestEntitySet:
    def test_rejects_duplicates(self):
        with pytest.raises(kopl.ContractViolationError):
            EntitySet(("a", "a"))

    def test_facts_must_pair(self):
        with pytest.raises(kopl.ContractViolationError):
            EntitySet(("a", "b"), facts=((),))


class TestBasicOps:
    def test_find_all_in_insertion_order(self, kb, grounder):
        out = run(kb, grounder, "FindAll")
        assert out.value.ids == tuple(kb.entities)

    def test_find(self, kb, grounder):
        out = run(kb, grounder, "Find", name="Google")
        assert out.ok and out.value.ids == ("q_google",)

    def test_find_near_miss(self, kb, grounder):
        # "Google Inc" shares 4 of 8 trigrams with "Google": above threshold
        out = run(kb, grounder, "Find", name="Google Inc")
        assert out.ok and out.value.ids == ("q_google",)
        low = Grounder(build_index(kb), mode="low")
        out = kopl.run_tool(kb, low, "Find", {"name": "Google Inc"})
        assert out == ToolOutcome.failure("No schema match for 'Google Inc' in namespace "
                                          "entity-name. Nearest candidates: Google")

    def test_filter_concept_uses_closure(self, kb, grounder):
        everyone = run(kb, grounder, "FindAll").value
        out = run(kb, grounder, "FilterConcept", entities=everyone, concept="business")
        assert out.value.ids == ("q_google", "q_instagram", "q_meta")

    def test_filter_num(self, kb, grounder):
        everyone = run(kb, grounder, "FindAll").value
        out = run(kb, grounder, "FilterNum", entities=everyone, key="height",
                  value="207 centimetre", op=">")
        assert out.value.ids == ("q_lebron_jr",)

    def test_empty_result_is_failure(self, kb, grounder):
        everyone = run(kb, grounder, "FindAll").value
        out = run(kb, grounder, "FilterNum", entities=everyone, key="height",
                  value="300 centimetre", op=">")
        assert not out.ok

    def test_relate_forward_and_backward(self, kb, grounder):
        jr = run(kb, grounder, "Find", name="LeBron James Jr.").value
        out = run(kb, grounder, "Relate", entities=jr, relation="father",
                  direction="forward")
        assert out.value.ids == ("q_lebron",)
        senior = run(kb, grounder, "Find", name="LeBron James").value
        out = run(kb, grounder, "Relate", entities=senior, relation="father",
                  direction="backward")
        assert out.value.ids == ("q_lebron_jr",)

    def test_relate_follows_a_self_loop_stored_either_way(self):
        # a self-loop is an edge into its own entity: Relate follows it in the
        # direction it means, as QueryRelation does, whichever way it is stored
        loops = kbmod.load_kb({"concepts": [], "entities": [
            {"id": "a", "name": "A",
             "relations": [{"predicate": "likes", "direction": "backward", "target": "a"}]},
            {"id": "b", "name": "B",
             "relations": [{"predicate": "likes", "direction": "forward", "target": "b"}]},
        ]})
        g = Grounder(build_index(loops), mode="high")
        for eid, direction in (("a", "forward"), ("b", "backward"), ("a", "backward"),
                               ("b", "forward")):
            me = EntitySet((eid,))
            assert kopl.run_tool(loops, g, "QueryRelation", {"left": me, "right": me}).value \
                == "likes"
            out = kopl.run_tool(loops, g, "Relate",
                                {"entities": me, "relation": "likes", "direction": direction})
            assert out.value.ids == (eid,)
            assert len(out.value.facts[0]) == 1

    def test_qualifier_filter(self, kb, grounder):
        everyone = run(kb, grounder, "FindAll").value
        with_height = run(kb, grounder, "FilterNum", entities=everyone,
                          key="height", value="0 centimetre", op=">").value
        out = run(kb, grounder, "QFilterYear", entities=with_height,
                  qkey="point in time", qvalue="2003", op="=")
        assert out.value.ids == ("q_lebron",)

    def test_qualifier_filter_without_facts_is_a_failed_step(self, kb, grounder):
        # through run_task: tests/test_tool_failures.py, "QFilterYear-no-facts"
        bare = run(kb, grounder, "Find", name="Google").value
        out = run(kb, grounder, "QFilterYear", entities=bare, qkey="point in time",
                  qvalue="2003", op="=")
        assert out == ToolOutcome.failure(
            "qualifier filters need the admitting facts of the previous filter")


class TestSetOps:
    def test_and_empty_is_failure(self, kb, grounder):
        a = EntitySet(("q_google",))
        b = EntitySet(("q_meta",))
        assert not run(kb, grounder, "And", left=a, right=b).ok

    def test_or_preserves_order(self, kb, grounder):
        a = EntitySet(("q_google", "q_meta"))
        b = EntitySet(("q_meta", "q_instagram"))
        out = run(kb, grounder, "Or", left=a, right=b)
        assert out.value.ids == ("q_google", "q_meta", "q_instagram")

    def test_count_of_empty_is_zero_not_failure(self, kb, grounder):
        out = run(kb, grounder, "Count", entities=EntitySet(()))
        assert out.ok and out.value == 0


@st.composite
def entity_subsets(draw):
    ids = ("q_lebron", "q_lebron_jr", "q_google", "q_instagram", "q_meta")
    chosen = draw(st.lists(st.sampled_from(ids), unique=True, max_size=5))
    return EntitySet(tuple(chosen))


@given(entity_subsets(), entity_subsets())
def test_set_op_laws(a, b):
    inter = oracles.outcome_of(kopl.set_op, a, b, "and")
    union = oracles.outcome_of(kopl.set_op, a, b, "or")
    if inter.ok:
        ids = set(inter.value.ids)
        assert ids == set(a.ids) & set(b.ids)
    else:
        assert not (set(a.ids) & set(b.ids))
    if union.ok:
        assert set(union.value.ids) == set(a.ids) | set(b.ids)
    else:
        assert not a.ids and not b.ids


class TestSelect:
    def test_select_between_greater(self, kb, grounder):
        a = EntitySet(("q_lebron_jr",))
        b = EntitySet(("q_lebron",))
        out = run(kb, grounder, "SelectBetween", left=a, right=b, key="height",
                  mode="greater")
        assert out.value == "LeBron James Jr."

    def test_select_between_tie_takes_first_operand(self, kb, grounder):
        a = EntitySet(("q_lebron",))
        out = run(kb, grounder, "SelectBetween", left=a, right=a, key="height",
                  mode="greater")
        assert out.value == "LeBron James"

    def test_select_between_unit_mismatch(self, grounder):
        doc = {
            "concepts": [],
            "entities": [
                {"id": "x", "name": "X",
                 "attributes": [{"key": "size", "value": {"kind": "number", "value": 1, "unit": "m"}}]},
                {"id": "y", "name": "Y",
                 "attributes": [{"key": "size", "value": {"kind": "number", "value": 2, "unit": "kg"}}]},
            ],
        }
        kb2 = kbmod.load_kb(doc)
        g2 = Grounder(build_index(kb2), mode="high")
        out = kopl.run_tool(kb2, g2, "SelectBetween", {
            "left": EntitySet(("x",)), "right": EntitySet(("y",)),
            "key": "size", "mode": "greater"})
        assert not out.ok and "unit" in out.feedback

    def test_select_among(self, kb, grounder):
        firms = EntitySet(("q_google", "q_meta"))
        out = run(kb, grounder, "SelectAmong", entities=firms,
                  key="employee_counts", mode="largest")
        assert out.value == "Google"
        out = run(kb, grounder, "SelectAmong", entities=firms,
                  key="employee_counts", mode="smallest")
        assert out.value == "Meta"


class TestQueries:
    def test_query_attr(self, kb, grounder):
        jr = EntitySet(("q_lebron_jr",))
        out = run(kb, grounder, "QueryAttr", entities=jr, key="height")
        assert out.value.render() == "208 centimetre"

    def test_query_name(self, kb, grounder):
        out = run(kb, grounder, "QueryName", entities=EntitySet(("q_meta",)))
        assert out.value == "Meta"

    def test_query_relation(self, kb, grounder):
        out = run(kb, grounder, "QueryRelation",
                  left=EntitySet(("q_instagram",)), right=EntitySet(("q_meta",)))
        assert out.value == "parent organization"

    def test_query_attr_qualifier(self, kb, grounder):
        out = run(kb, grounder, "QueryAttrQualifier",
                  entities=EntitySet(("q_lebron",)), key="height",
                  value="206 centimetre", qkey="point in time")
        assert out.value.render() == "2003"

    def test_verify(self, kb, grounder):
        jr = EntitySet(("q_lebron_jr",))
        height = run(kb, grounder, "QueryAttr", entities=jr, key="height").value
        out = run(kb, grounder, "VerifyNum", input=height, value="208 centimetre", op="=")
        assert out.value == "yes"
        out = run(kb, grounder, "VerifyNum", input=height, value="300 centimetre", op=">")
        assert out.value == "no"


class TestPrograms:
    def table_1a_program(self):
        return KoplProgram(steps=(
            KoplStep("Find", {"name": "LeBron James Jr."}),
            KoplStep("Relate", {"relation": "father", "direction": "forward"}, (0,)),
            KoplStep("Find", {"name": "LeBron James Jr."}),
            KoplStep("SelectBetween", {"key": "height", "mode": "greater"}, (2, 1)),
        ))

    def test_golden_height_program(self, kb, grounder):
        out = oracles.execute_program(kb, grounder, self.table_1a_program())
        assert out.ok and out.value == "LeBron James Jr."

    def test_failure_aborts_with_step_context(self, kb, grounder):
        program = KoplProgram(steps=(
            KoplStep("Find", {"name": "Google"}),
            KoplStep("Find", {"name": "Meta"}),
            KoplStep("And", {}, (0, 1)),
        ))
        out = oracles.execute_program(kb, grounder, program)
        assert not out.ok
        assert out.feedback.startswith("step 2 (And) failed:")

    def test_validate_rejects_forward_reference(self):
        program = KoplProgram(steps=(
            KoplStep("Count", {}, (1,)),
            KoplStep("FindAll", {}),
        ))
        with pytest.raises(kopl.ProgramError):
            oracles.validate_program(program)

    def test_validate_rejects_wrong_arity(self):
        program = KoplProgram(steps=(
            KoplStep("FindAll", {}),
            KoplStep("And", {}, (0,)),
        ))
        with pytest.raises(kopl.ProgramError):
            oracles.validate_program(program)


class TestRenderValue:
    def test_entity_set_renders_names(self, kb):
        assert kopl.render_value(kb, EntitySet(("q_google", "q_meta"))) == "Google; Meta"

    def test_typed_value(self, kb):
        assert kopl.render_value(kb, kbmod.TypedValue("number", 3, "m")) == "3 m"

    def test_scalar(self, kb):
        assert kopl.render_value(kb, 7) == "7"
