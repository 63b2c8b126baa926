import json

import pytest

from conftest import FIXTURE_DIR
from paritykit import cells, fixtures
from paritykit.generators import cube, globe, oriental
from paritykit.morphisms import GradedMorphism, MorphismError
from paritykit.multiset import GeneratorId, Multiset
from paritykit.parity_core import AdditiveParityStructure, ParityStructure

pytestmark = pytest.mark.frozen


class TestRoundTrip:
    def test_structures(self):
        for struct in (globe(2), oriental(3), cube(2)):
            text = fixtures.dumps(struct, name="x")
            again = fixtures.loads(text)
            assert again.value == struct
            assert fixtures.dumps(again.value, name="x") == text

    def test_additive_structure_with_counts(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1}, {"w": 2})]
        )
        text = fixtures.dumps(s, name="weighted")
        again = fixtures.loads(text)
        assert again.kind == fixtures.KIND_ADDITIVE
        assert again.value == s
        assert fixtures.dumps(again.value, name="weighted") == text

    def test_cells(self, oriental2):
        for t in cells.enumerate_cells(oriental2, 2):
            text = fixtures.dumps(t, name="c")
            assert fixtures.loads(text).value == t

    def test_morphisms(self):
        for name in ("morphism_globe1_to_oriental2", "morphism_collapse_globe1"):
            text = (FIXTURE_DIR / f"{name}.json").read_text()
            fixture = fixtures.loads(text)
            assert fixtures.dumps(fixture.value, name=fixture.name) == text

    def test_frozen_structures(self):
        for name in ("circle", "weak_not_strong"):
            text = (FIXTURE_DIR / f"{name}.json").read_text()
            fixture = fixtures.loads(text)
            assert fixtures.dumps(fixture.value, name=fixture.name) == text

    def test_deterministic_bytes(self, oriental3):
        assert fixtures.dumps(oriental3, name="o") == fixtures.dumps(oriental3, name="o")


class TestRejection:
    def test_wrong_schema_version(self):
        doc = json.loads(fixtures.dumps(globe(1), name="g"))
        doc["schema_version"] = 2
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads(json.dumps(doc))

    def test_unknown_kind(self):
        doc = json.loads(fixtures.dumps(globe(1), name="g"))
        doc["kind"] = "simplicial_set"
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads("not json {")

    def test_parity_kind_rejects_counts(self):
        doc = {
            "schema_version": 1,
            "name": "bad",
            "kind": "parity_structure",
            "payload": {
                "elements": [
                    {"id": "v", "dim": 0, "neg": [], "pos": []},
                    {"id": "w", "dim": 0, "neg": [], "pos": []},
                    {"id": "x", "dim": 1, "neg": [["v", 1]], "pos": [["w", 2]]},
                ]
            },
        }
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads(json.dumps(doc))

    def test_missing_face_generator(self):
        doc = {
            "schema_version": 1,
            "name": "bad",
            "kind": "parity_structure",
            "payload": {"elements": [{"id": "x", "dim": 1, "neg": ["v"], "pos": []}]},
        }
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads(json.dumps(doc))

    def test_cell_column_count(self):
        doc = {
            "schema_version": 1,
            "name": "bad",
            "kind": "cell",
            "payload": {"dim": 1, "neg": [["0"]], "pos": [["0"]]},
        }
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads(json.dumps(doc))

    def test_morphism_needs_all_keys(self):
        doc = {
            "schema_version": 1,
            "name": "bad",
            "kind": "morphism",
            "payload": {"source": {"elements": []}},
        }
        with pytest.raises(fixtures.FixtureError):
            fixtures.loads(json.dumps(doc))


class TestMixedFaceEncodings:
    def test_names_and_pairs_mix(self):
        doc = {
            "schema_version": 1,
            "name": "mix",
            "kind": "additive_parity_structure",
            "payload": {
                "elements": [
                    {"id": "v", "dim": 0, "neg": [], "pos": []},
                    {"id": "w", "dim": 0, "neg": [], "pos": []},
                    {"id": "x", "dim": 1, "neg": ["v"], "pos": [["w", 2]]},
                ]
            },
        }
        fixture = fixtures.loads(json.dumps(doc))
        x = fixture.value.gen("x")
        assert dict(fixture.value.pos(x).items()).get(fixture.value.gen("w"), 0) == 2

    def test_subset_emission_uses_plain_names(self, oriental2):
        payload = structure_payload(oriental2)
        triangle = [el for el in payload["elements"] if el["id"] == "012"][0]
        assert triangle["pos"] == ["01", "12"]


def _structure_doc(elements, kind="parity_structure"):
    return json.dumps(
        {"schema_version": 1, "name": "bad", "kind": kind, "payload": {"elements": elements}}
    )


def _edge_doc(count):
    return _structure_doc(
        [
            {"id": "v", "dim": 0},
            {"id": "w", "dim": 0},
            {"id": "x", "dim": 1, "neg": [["v", count]], "pos": ["w"]},
        ],
        kind="additive_parity_structure",
    )


def _cell_doc(dim, neg, pos):
    return json.dumps(
        {"schema_version": 1, "name": "bad", "kind": "cell",
         "payload": {"dim": dim, "neg": neg, "pos": pos}}
    )


class TestOnlyFixtureErrors:
    """Malformed documents raise FixtureError, never another exception type."""

    def test_empty_id(self):
        with pytest.raises(fixtures.FixtureError, match="non-empty printable"):
            fixtures.loads(_structure_doc([{"id": "", "dim": 0}]))

    def test_id_with_a_space(self):
        with pytest.raises(fixtures.FixtureError, match="'a b'"):
            fixtures.loads(_structure_doc([{"id": "a b", "dim": 0}]))

    def test_negative_dim(self):
        with pytest.raises(fixtures.FixtureError, match="bad/a: dim must be >= 0"):
            fixtures.loads(_structure_doc([{"id": "a", "dim": -1}]))

    def test_dim_above_max_dim(self):
        with pytest.raises(fixtures.FixtureError, match="^bad/a: dim must be at most 64, got 65$"):
            fixtures.loads(_structure_doc([{"id": "a", "dim": fixtures.MAX_DIM + 1}]))

    def test_dim_at_max_dim_loads(self):
        assert fixtures.loads(_structure_doc([{"id": "a", "dim": fixtures.MAX_DIM}])).value.max_dim == 64

    def test_dim_above_max_dim_in_a_morphism_source(self):
        from paritykit.generators import globe
        from paritykit.morphisms import identity_morphism

        doc = json.loads(fixtures.dumps(identity_morphism(globe(1)), name="m"))
        doc["payload"]["source"]["elements"][0]["dim"] = 100000
        with pytest.raises(fixtures.FixtureError, match="^m/source/.*: dim must be at most 64, got 100000$"):
            fixtures.loads(json.dumps(doc))

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_dim(self, flag):
        with pytest.raises(fixtures.FixtureError, match="dim an integer"):
            fixtures.loads(_structure_doc([{"id": "a", "dim": flag}]))

    def test_boolean_count(self):
        with pytest.raises(fixtures.FixtureError, match="bad/x"):
            fixtures.loads(_edge_doc(True))

    def test_zero_count(self):
        with pytest.raises(fixtures.FixtureError, match="bad/x: count of 'v'"):
            fixtures.loads(_edge_doc(0))

    def test_count_beyond_a_machine_word(self):
        with pytest.raises(fixtures.FixtureError, match="bad/x: count of 'v'"):
            fixtures.loads(_edge_doc(2**63))

    def test_repeated_faces_summing_beyond_a_machine_word(self):
        doc = _structure_doc(
            [
                {"id": "v", "dim": 0},
                {"id": "w", "dim": 0},
                {"id": "x", "dim": 1, "neg": [["v", 2**62], ["v", 2**62]], "pos": ["w"]},
            ],
            kind="additive_parity_structure",
        )
        with pytest.raises(fixtures.FixtureError, match="exceeds"):
            fixtures.loads(doc)

    @pytest.mark.parametrize("flag", [True, False])
    def test_cell_boolean_dim(self, flag):
        with pytest.raises(fixtures.FixtureError, match="integer 'dim'"):
            fixtures.loads(_cell_doc(flag, [["a"]], [["a"]]))

    def test_cell_negative_dim(self):
        with pytest.raises(fixtures.FixtureError, match="cell dimension must be >= 0"):
            fixtures.loads(_cell_doc(-1, [], []))

    def test_cell_bad_generator_name(self):
        with pytest.raises(fixtures.FixtureError, match=r"bad/neg\[0\]"):
            fixtures.loads(_cell_doc(0, [[" "]], [[" "]]))

    def test_cell_boolean_count(self):
        with pytest.raises(fixtures.FixtureError, match=r"bad/pos\[0\]"):
            fixtures.loads(_cell_doc(0, [["a"]], [[["a", True]]]))

    def test_unknown_generator_in_morphism_assignment(self):
        doc = json.loads((FIXTURE_DIR / "morphism_collapse_globe1.json").read_text())
        doc["payload"]["assignment"]["1"] = {"nowhere": []}
        with pytest.raises(fixtures.FixtureError, match="assignment/1/nowhere"):
            fixtures.loads(json.dumps(doc))

    def test_unknown_target_generator_in_morphism_assignment(self):
        doc = json.loads((FIXTURE_DIR / "morphism_collapse_globe1.json").read_text())
        doc["payload"]["assignment"]["0"]["e0+"] = ["nowhere"]
        with pytest.raises(fixtures.FixtureError, match=r"assignment/0/e0\+"):
            fixtures.loads(json.dumps(doc))


def _el(name, dim, neg=None, pos=None):
    el = {"id": name, "dim": dim}
    for key, faces in (("neg", neg), ("pos", pos)):
        if faces is not None:
            el[key] = faces
    return el


V, W = _el("v", 0), _el("w", 0)
P, A = "parity_structure", "additive_parity_structure"
BIG = 2**62

#: One malformed structure document per error branch of the loader, as
#: (kind, payload): the element parser, the face-entry parser, the
#: parity count check and the structure builder, and cases where two
#: branches meet in one document, so that the order of the checks shows.
FROZEN_ERROR_DOCS = {
    "no_elements": (P, {}),
    "elements_not_an_array": (P, {"elements": {"v": 0}}),
    "element_not_an_object": (P, {"elements": [V, ["w", 0]]}),
    "element_missing_id": (P, {"elements": [{"dim": 0}]}),
    "element_missing_dim": (P, {"elements": [{"id": "v"}]}),
    "id_not_a_string": (P, {"elements": [_el(7, 0)]}),
    "dim_a_string": (P, {"elements": [_el("v", "0")]}),
    "dim_a_boolean": (A, {"elements": [_el("v", True)]}),
    "dim_a_float": (P, {"elements": [_el("v", 1.0)]}),
    "dim_negative": (P, {"elements": [_el("v", -1)]}),
    "dim_above_max_dim": (A, {"elements": [_el("v", 65)]}),
    "faces_an_object": (A, {"elements": [V, W, _el("x", 1, {"v": 1}, ["w"])]}),
    "faces_a_string": (P, {"elements": [V, W, _el("x", 1, "v", ["w"])]}),
    "faces_null": (P, {"elements": [V, W, {"id": "x", "dim": 1, "neg": ["v"], "pos": None}]}),
    "face_entry_a_one_list": (A, {"elements": [V, W, _el("x", 1, [["v"]], ["w"])]}),
    "face_entry_a_number": (A, {"elements": [V, W, _el("x", 1, [3], ["w"])]}),
    "face_count_a_string": (A, {"elements": [V, W, _el("x", 1, [["v", "2"]], ["w"])]}),
    "face_count_zero": (A, {"elements": [V, W, _el("x", 1, [["v", 0]], ["w"])]}),
    "face_count_negative": (A, {"elements": [V, W, _el("x", 1, ["v"], [["w", -1]])]}),
    "face_count_a_boolean": (A, {"elements": [V, W, _el("x", 1, [["v", True]], ["w"])]}),
    "face_count_beyond_a_word": (A, {"elements": [V, W, _el("x", 1, [["v", 2**63]], ["w"])]}),
    "parity_count_2_neg": (P, {"elements": [V, W, _el("x", 1, [["v", 2]], ["w"])]}),
    "parity_count_3_pos": (P, {"elements": [V, W, _el("x", 1, [["v", 1]], ["w", ["w", 3]])]}),
    "name_empty": (P, {"elements": [_el("", 0)]}),
    "name_with_a_space": (A, {"elements": [_el("a b", 0)]}),
    "name_not_printable": (P, {"elements": [_el("a\n", 0)]}),
    "duplicate_row": (P, {"elements": [V, W, V]}),
    "dim0_faces_parity": (P, {"elements": [_el("v", 0, ["v"])]}),
    "dim0_faces_additive": (A, {"elements": [V, _el("w", 0, [], [["v", 2]])]}),
    "unknown_face_neg": (P, {"elements": [V, W, _el("x", 1, ["nope"], ["w"])]}),
    "unknown_face_pos": (A, {"elements": [V, W, _el("x", 1, ["v"], [["nope", 2]])]}),
    "face_of_the_same_dimension": (P, {"elements": [V, W, _el("x", 1, ["v"], ["x"])]}),
    "face_two_dimensions_down": (P, {"elements": [V, W, _el("x", 1, ["v"], ["w"]), _el("F", 2, ["v"], ["x"])]}),
    "repeated_pairs_beyond_max_count": (A, {"elements": [V, W, _el("x", 1, [["v", BIG], ["v", BIG]], ["w"])]}),
    "repeated_name_beyond_max_count": (A, {"elements": [V, W, _el("x", 1, ["v", ["v", 2**63 - 1]], ["w"])]}),
    "parity_repeated_name_is_one_face_then_unknown": (P, {"elements": [V, W, _el("x", 1, ["v", "v", ["v", 1]], ["nope"])]}),
    # precedence: parsing runs over every element before anything is resolved
    "format_error_later_bad_name_earlier": (P, {"elements": [_el("", 0), _el("v", 0, "x")]}),
    "format_error_later_unknown_face_earlier": (P, {"elements": [V, _el("x", 1, ["nope"], ["v"]), {"id": "y"}]}),
    "dim_above_max_later_count_2_earlier": (P, {"elements": [V, _el("x", 1, [["v", 2]], ["v"]), _el("y", 99)]}),
    "count_2_later_unknown_face_earlier": (P, {"elements": [V, _el("x", 1, ["nope"], ["v"]), _el("y", 1, [["v", 2]], ["v"])]}),
    "count_2_later_bad_name_earlier": (P, {"elements": [_el("a b", 0), _el("y", 1, ["v"], [["v", 2]])]}),
    # precedence: every name is checked, then duplicates, then faces row by row
    "bad_name_later_unknown_face_earlier": (P, {"elements": [V, _el("x", 1, ["nope"], ["v"]), _el("", 0)]}),
    "bad_name_later_duplicate_earlier": (P, {"elements": [V, V, _el("a b", 0)]}),
    "duplicate_later_unknown_face_earlier": (A, {"elements": [V, _el("x", 1, ["nope"], ["v"]), V]}),
    "unknown_face_earlier_dim0_faces_later": (P, {"elements": [V, _el("x", 1, ["nope"], ["v"]), _el("w", 0, ["v"])]}),
    "dim0_faces_earlier_unknown_face_later": (P, {"elements": [_el("w", 0, ["v"]), V, _el("x", 1, ["nope"], ["v"])]}),
    "sum_beyond_max_count_earlier_unknown_face_later": (A, {"elements": [V, _el("x", 1, [["v", BIG], ["v", BIG]], ["v"]), _el("y", 1, ["nope"], ["v"])]}),
    "sum_beyond_max_count_neg_unknown_face_pos": (A, {"elements": [V, _el("x", 1, [["v", BIG], ["v", BIG]], ["nope"])]}),
    "unknown_face_after_a_sum_beyond_max_count": (A, {"elements": [V, _el("x", 1, [["v", BIG], ["v", BIG], "nope"], ["v"])]}),
    "unknown_face_pos_then_unknown_face_neg_later": (P, {"elements": [V, _el("x", 1, ["v"], ["nope"]), _el("y", 1, ["gone"], ["v"])]}),
}


def _morphism_doc(**changes):
    """The frozen globe(1) -> oriental(2) map with payload keys replaced."""
    doc = json.loads((FIXTURE_DIR / "morphism_globe1_to_oriental2.json").read_text())
    doc["payload"].update(changes)
    return json.dumps(doc)


def _source(*elements, kind=P):
    return {"kind": kind, "elements": list(elements)}


#: Malformed documents outside the structure payload: the envelope and
#: the morphism payload.
FROZEN_DOCUMENT_ERRORS = {
    "not_json": "not json {",
    "an_array": "[]",
    "schema_version_2": json.dumps({"schema_version": 2, "kind": P, "payload": {"elements": []}}),
    "no_schema_version": json.dumps({"kind": P, "payload": {"elements": []}}),
    "unknown_kind": json.dumps({"schema_version": 1, "kind": "bogus", "payload": {"elements": []}}),
    "name_not_a_string": json.dumps({"schema_version": 1, "kind": P, "name": 3, "payload": {"elements": []}}),
    "payload_an_array": json.dumps({"schema_version": 1, "kind": P, "payload": []}),
    "morphism_without_source": json.dumps({"schema_version": 1, "kind": "morphism", "payload": {}}),
    "morphism_source_an_array": _morphism_doc(source=[]),
    "morphism_source_kind": _morphism_doc(source=_source(V, kind="cell")),
    "morphism_source_bad_name": _morphism_doc(source=_source(_el("", 0))),
    "morphism_target_unknown_face": _morphism_doc(target=_source(V, _el("x", 1, ["v"], ["nope"]))),
    "assignment_an_array": _morphism_doc(assignment=[]),
    "assignment_key_not_a_dimension": _morphism_doc(assignment={"x": {}}),
    "assignment_dimension_an_array": _morphism_doc(assignment={"0": []}),
    "assignment_unknown_source": _morphism_doc(assignment={"0": {"nope": ["0"]}}),
    "assignment_unknown_target": _morphism_doc(assignment={"0": {"e0-": ["nope"]}}),
    "assignment_image_not_an_array": _morphism_doc(assignment={"0": {"e0-": "0"}}),
    "assignment_image_count_zero": _morphism_doc(assignment={"0": {"e0-": [["0", 0]]}}),
    "assignment_image_sum_beyond_max_count": _morphism_doc(assignment={"0": {"e0-": [["0", BIG], ["0", BIG]]}}),
    "assignment_missing_generator": _morphism_doc(assignment={"0": {"e0-": ["0"], "e0+": ["2"]}}),
    "unknown_mode": _morphism_doc(mode="bogus"),
}

#: The FixtureError texts of the documents above, recorded from the
#: loader that built frozensets and Multisets before its face table.
FROZEN_ERROR_TEXTS = {
    'no_elements': "bad: payload needs an 'elements' array",
    'elements_not_an_array': "bad: payload needs an 'elements' array",
    'element_not_an_object': 'bad: elements must be objects',
    'element_missing_id': "bad: element missing 'id'",
    'element_missing_dim': "bad: element missing 'dim'",
    'id_not_a_string': 'bad: element id must be a string and dim an integer',
    'dim_a_string': 'bad: element id must be a string and dim an integer',
    'dim_a_boolean': 'bad: element id must be a string and dim an integer',
    'dim_a_float': 'bad: element id must be a string and dim an integer',
    'dim_negative': 'bad/v: dim must be >= 0, got -1',
    'dim_above_max_dim': 'bad/v: dim must be at most 64, got 65',
    'faces_an_object': 'bad/x: faces must be an array',
    'faces_a_string': 'bad/x: faces must be an array',
    'faces_null': 'bad/x: faces must be an array',
    'face_entry_a_one_list': 'bad/x: face entries must be names or [name, count] pairs',
    'face_entry_a_number': 'bad/x: face entries must be names or [name, count] pairs',
    'face_count_a_string': 'bad/x: face entries must be names or [name, count] pairs',
    'face_count_zero': "bad/x: count of 'v' must be between 1 and 9223372036854775807, got 0",
    'face_count_negative': "bad/x: count of 'w' must be between 1 and 9223372036854775807, got -1",
    'face_count_a_boolean': 'bad/x: face entries must be names or [name, count] pairs',
    'face_count_beyond_a_word': "bad/x: count of 'v' must be between 1 and 9223372036854775807, got 9223372036854775808",
    'parity_count_2_neg': "bad/x: parity structures have subset faces; 'v' has count 2",
    'parity_count_3_pos': "bad/x: parity structures have subset faces; 'w' has count 3",
    'name_empty': "bad: generator name must be a non-empty printable token, got ''",
    'name_with_a_space': "bad: generator name must be a non-empty printable token, got 'a b'",
    'name_not_printable': "bad: generator name must be a non-empty printable token, got 'a\\n'",
    'duplicate_row': 'bad: duplicate (name, dim) row',
    'dim0_faces_parity': "bad: dimension-0 generator 'v' cannot have faces",
    'dim0_faces_additive': "bad: dimension-0 generator 'w' cannot have faces",
    'unknown_face_neg': "bad: face 'nope' has no dimension-0 generator",
    'unknown_face_pos': "bad: face 'nope' has no dimension-0 generator",
    'face_of_the_same_dimension': "bad: face 'x' has no dimension-0 generator",
    'face_two_dimensions_down': "bad: face 'v' has no dimension-1 generator",
    'repeated_pairs_beyond_max_count': "bad: count for 'v' exceeds 9223372036854775807",
    'repeated_name_beyond_max_count': "bad: count for 'v' exceeds 9223372036854775807",
    'parity_repeated_name_is_one_face_then_unknown': "bad: face 'nope' has no dimension-0 generator",
    'format_error_later_bad_name_earlier': 'bad/v: faces must be an array',
    'format_error_later_unknown_face_earlier': "bad: element missing 'dim'",
    'dim_above_max_later_count_2_earlier': 'bad/y: dim must be at most 64, got 99',
    'count_2_later_unknown_face_earlier': "bad/y: parity structures have subset faces; 'v' has count 2",
    'count_2_later_bad_name_earlier': "bad/y: parity structures have subset faces; 'v' has count 2",
    'bad_name_later_unknown_face_earlier': "bad: generator name must be a non-empty printable token, got ''",
    'bad_name_later_duplicate_earlier': "bad: generator name must be a non-empty printable token, got 'a b'",
    'duplicate_later_unknown_face_earlier': 'bad: duplicate (name, dim) row',
    'unknown_face_earlier_dim0_faces_later': "bad: face 'nope' has no dimension-0 generator",
    'dim0_faces_earlier_unknown_face_later': "bad: dimension-0 generator 'w' cannot have faces",
    'sum_beyond_max_count_earlier_unknown_face_later': "bad: count for 'v' exceeds 9223372036854775807",
    'sum_beyond_max_count_neg_unknown_face_pos': "bad: count for 'v' exceeds 9223372036854775807",
    'unknown_face_after_a_sum_beyond_max_count': "bad: face 'nope' has no dimension-0 generator",
    'unknown_face_pos_then_unknown_face_neg_later': "bad: face 'nope' has no dimension-0 generator",
}
FROZEN_DOCUMENT_ERROR_TEXTS = {
    'not_json': 'not valid JSON: Expecting value: line 1 column 1 (char 0)',
    'an_array': 'fixture must be a JSON object',
    'schema_version_2': 'unsupported schema_version 2, expected 1',
    'no_schema_version': 'unsupported schema_version None, expected 1',
    'unknown_kind': "unknown fixture kind 'bogus'",
    'name_not_a_string': 'fixture name must be a string',
    'payload_an_array': "fixture needs a 'payload' object",
    'morphism_without_source': "morphism: morphism payload needs 'source'",
    'morphism_source_an_array': 'globe1-to-oriental2/source: must be an object',
    'morphism_source_kind': "globe1-to-oriental2/source: unknown structure kind 'cell'",
    'morphism_source_bad_name': "globe1-to-oriental2/source: generator name must be a non-empty printable token, got ''",
    'morphism_target_unknown_face': "globe1-to-oriental2/target: face 'nope' has no dimension-0 generator",
    'assignment_an_array': 'globe1-to-oriental2: assignment must map dimensions to objects',
    'assignment_key_not_a_dimension': "globe1-to-oriental2: assignment keys must be dimensions, got 'x'",
    'assignment_dimension_an_array': 'globe1-to-oriental2: assignment[0] must be an object',
    'assignment_unknown_source': "globe1-to-oriental2/assignment/0/nope: no generator 'nope' in dimension 0",
    'assignment_unknown_target': "globe1-to-oriental2/assignment/0/e0-: no generator 'nope' in dimension 0",
    'assignment_image_not_an_array': 'globe1-to-oriental2/assignment/0/e0-: faces must be an array',
    'assignment_image_count_zero': "globe1-to-oriental2/assignment/0/e0-: count of '0' must be between 1 and 9223372036854775807, got 0",
    'assignment_image_sum_beyond_max_count': "globe1-to-oriental2/assignment/0/e0-: count for '0' exceeds 9223372036854775807",
    'assignment_missing_generator': "globe1-to-oriental2: assignment is missing generator 'top' (dim 1)",
    'unknown_mode': "globe1-to-oriental2: unknown morphism mode 'bogus'",
}


class TestFrozenErrorTexts:
    """Every malformed document raises FixtureError with the text the
    loader has always given, so error order stays as it was: the whole
    document is parsed, then parity counts are checked, then names,
    duplicates and faces are resolved row by row."""

    @pytest.mark.parametrize("key", sorted(FROZEN_ERROR_DOCS))
    def test_structure_payload(self, key):
        kind, payload = FROZEN_ERROR_DOCS[key]
        text = json.dumps({"schema_version": 1, "name": "bad", "kind": kind, "payload": payload})
        with pytest.raises(fixtures.FixtureError) as info:
            fixtures.loads(text)
        assert type(info.value) is fixtures.FixtureError
        assert str(info.value) == FROZEN_ERROR_TEXTS[key]

    @pytest.mark.parametrize("key", sorted(FROZEN_DOCUMENT_ERRORS))
    def test_document(self, key):
        with pytest.raises(fixtures.FixtureError) as info:
            fixtures.loads(FROZEN_DOCUMENT_ERRORS[key])
        assert type(info.value) is fixtures.FixtureError
        assert str(info.value) == FROZEN_DOCUMENT_ERROR_TEXTS[key]

    def test_every_document_has_a_text(self):
        assert FROZEN_ERROR_TEXTS.keys() == FROZEN_ERROR_DOCS.keys()
        assert FROZEN_DOCUMENT_ERROR_TEXTS.keys() == FROZEN_DOCUMENT_ERRORS.keys()


class TestAssignmentKeys:
    """Assignment keys are dimensions written as ``str(dim)``; any other
    spelling would let a second key give the same generator another image."""

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "١", "None"])
    def test_a_non_canonical_key_is_refused(self, key):
        doc = json.loads(_morphism_doc())
        doc["payload"]["assignment"][key] = doc["payload"]["assignment"].pop("1")
        with pytest.raises(fixtures.FixtureError) as info:
            fixtures.loads(json.dumps(doc))
        assert str(info.value) == f"globe1-to-oriental2: assignment keys must be dimensions, got {key!r}"

    def test_a_generator_given_twice_is_refused(self):
        doc = json.loads(_morphism_doc())
        doc["payload"]["assignment"]["01"] = {"top": ["01"]}
        with pytest.raises(fixtures.FixtureError, match="got '01'"):
            fixtures.loads(json.dumps(doc))

    def test_canonical_keys_load(self):
        f = fixtures.loads(_morphism_doc()).value
        assert [m.sort_key() for m in map(f.image, f.source.all_generators())] == [
            m.sort_key() for m in (Multiset.of(f.target.gen("2")), Multiset.of(f.target.gen("0")),
                                   Multiset.of(f.target.gen("01"), f.target.gen("12")))
        ]


def _repeated(text, marker, extra):
    """The text with ``extra`` inserted before its one ``marker``."""
    assert text.count(marker) == 1
    return text.replace(marker, extra + marker)


class TestSharedRefusals:
    """The loader refuses an unknown mode, a missing generator and an
    image that is not a subset with the GradedMorphism constructor's text
    for the same data, after the fixture's name."""

    @staticmethod
    def refusals(text):
        """The loader's text for a morphism document, and the constructor's."""
        with pytest.raises(fixtures.FixtureError) as loaded:
            fixtures.loads(text)
        doc = json.loads(text)
        payload = doc["payload"]
        source, target = (
            fixtures.loads(json.dumps({"schema_version": 1, "kind": payload[key]["kind"], "payload": payload[key]})).value
            for key in ("source", "target")
        )
        assignment = {}
        for dim, per_dim in payload["assignment"].items():
            for name, faces in per_dim.items():
                pairs = [(face, 1) if type(face) is str else face for face in faces]
                counts = {target.gen(face, int(dim)): count for face, count in pairs}
                assignment[source.gen(name, int(dim))] = Multiset(int(dim), counts)
        with pytest.raises(MorphismError) as built:
            GradedMorphism(source, target, assignment, payload.get("mode", "weak_parity"))
        return str(loaded.value), f"{doc['name']}: {built.value}"

    def test_unknown_mode(self):
        loaded, built = self.refusals(_morphism_doc(mode="bogus"))
        assert loaded == built == "globe1-to-oriental2: unknown morphism mode 'bogus'"

    def test_missing_generator(self):
        loaded, built = self.refusals(_morphism_doc(assignment={"0": {"e0-": ["0"], "e0+": ["2"]}}))
        assert loaded == built == "globe1-to-oriental2: assignment is missing generator 'top' (dim 1)"

    def test_image_not_a_subset(self):
        assignment = {"0": {"e0-": ["0"], "e0+": ["2"]}, "1": {"top": [["01", 2], "12"]}}
        loaded, built = self.refusals(_morphism_doc(assignment=assignment))
        assert loaded == built == "globe1-to-oriental2: image of 'top' is not a subset: {01:2, 12}"


class TestRepeatedKeys:
    """A key written twice in one JSON object is refused; ``json.loads``
    alone keeps the last value and drops the first without a word."""

    @staticmethod
    def refused(text, key):
        with pytest.raises(fixtures.FixtureError) as info:
            fixtures.loads(text)
        assert str(info.value) == f"key {key!r} is repeated in one JSON object"

    def test_a_second_assignment_key(self):
        # before the real "1" entry, which maps top to {01, 12}
        text = (FIXTURE_DIR / "morphism_globe1_to_oriental2.json").read_text()
        self.refused(_repeated(text, '      "1": {\n', '      "1": {"top": ["02"]},\n'), "1")

    def test_a_repeated_neg(self):
        text = _structure_doc([_el("v", 0), _el("w", 0), _el("x", 1, ["v"], ["w"])])
        assert fixtures.loads(text).value.neg(GeneratorId(1, "x")) == {GeneratorId(0, "v")}
        self.refused(_repeated(text, '"neg": ["v"]', '"neg": ["w"], '), "neg")

    def test_a_repeated_id(self):
        text = _structure_doc([_el("v", 0)])
        self.refused(_repeated(text, '"id": "v"', '"id": "u", '), "id")

    def test_a_repeated_top_level_key(self):
        text = _structure_doc([_el("v", 0)])
        self.refused(_repeated(text, '"name": "bad"', '"name": "other", '), "name")


class TestMutationFuzz:
    """Seeded single-field mutations of the frozen fixtures through
    ``fixtures.loads``: a document either loads or raises FixtureError,
    never another exception."""

    NAMES = ("circle", "weak_not_strong", "morphism_globe1_to_oriental2", "morphism_collapse_globe1")
    VALUES = (
        None, True, False, 0, 1, 2, -1, 65, 2**63, 1.5, "", " ", "x", "a b", "1", "01", "é", "0",
        [], {}, ["0"], [["0", 2]], [["0", 0]], [["0"]], [0], {"0": 1}, [None], [[]],
    )

    @staticmethod
    def fields(node):
        """Every (container, key) pair below a JSON node, depth first."""
        items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
        for key, child in items:
            yield node, key
            yield from TestMutationFuzz.fields(child)

    def mutate(self, doc, rng):
        """Replace, delete or duplicate one field, or rename one key."""
        container, key = rng.choice(list(self.fields(doc)))
        action = rng.randrange(5)
        if action == 0:
            del container[key]
        elif action == 1 and type(container) is list:
            container.insert(key, json.loads(json.dumps(container[key])))
        elif action == 1:
            container[rng.choice(["0", "1", "01", "None", "id", "dim", "neg", "pos", "x"])] = container.pop(key)
        elif action == 2 and type(container[key]) is str:
            container[key] = rng.choice([container[key] * 2, container[key][:-1], "nope"])
        else:
            container[key] = rng.choice(self.VALUES)

    def test_only_fixture_errors_escape(self):
        import random

        texts = [(FIXTURE_DIR / f"{name}.json").read_text() for name in self.NAMES]
        outcomes = {"loaded": 0, "refused": 0}
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(1000):
                doc = json.loads(rng.choice(texts))
                self.mutate(doc, rng)
                try:
                    fixtures.loads(json.dumps(doc))
                except fixtures.FixtureError:
                    outcomes["refused"] += 1
                else:
                    outcomes["loaded"] += 1
        assert outcomes["loaded"] > 400 and outcomes["refused"] > 400, outcomes

    #: SHA-256 of the outcomes below, recorded before the loader read
    #: morphism images straight into target rows, and again when it began
    #: to refuse a ``schema_version`` that is not an int: one outcome
    #: changed, a ``schema_version: true`` that used to load.
    MORPHISM_OUTCOMES = "20faa27306a54cf888b8f0f8c14ac5b56a4bd2ba3d3ec961f699266f0d0c5c7b"

    def test_morphism_outcomes_are_frozen(self):
        """Each seeded mutation of a morphism fixture, of any field or of
        the mode and assignment only, is refused with the same text or
        loads to the same fixture text."""
        import hashlib
        import random

        texts = [(FIXTURE_DIR / f"{name}.json").read_text() for name in self.NAMES[2:]]
        outcomes = []
        for seed in range(4):
            rng = random.Random(seed)
            for k in range(500):
                doc = json.loads(rng.choice(texts))
                if k % 2:
                    part = {key: doc["payload"].pop(key) for key in ("mode", "assignment")}
                    self.mutate(part, rng)
                    doc["payload"].update(part)
                else:
                    self.mutate(doc, rng)
                try:
                    fixture = fixtures.loads(json.dumps(doc))
                except fixtures.FixtureError as exc:
                    outcomes.append(f"refused: {exc}")
                else:
                    outcomes.append(fixtures.dumps(fixture.value, name=fixture.name))
        digest = hashlib.sha256("\x00".join(outcomes).encode()).hexdigest()
        assert digest == self.MORPHISM_OUTCOMES

    def outcomes_digest(self, texts, runs):
        """SHA-256 of the refusal text or the fixture text of each of
        ``runs`` seeded mutations of a document from ``texts``."""
        import hashlib
        import random

        outcomes = []
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(runs):
                doc = json.loads(rng.choice(texts))
                self.mutate(doc, rng)
                try:
                    fixture = fixtures.loads(json.dumps(doc))
                except fixtures.FixtureError as exc:
                    outcomes.append(f"refused: {exc}")
                else:
                    outcomes.append(fixtures.dumps(fixture.value, name=fixture.name))
        return hashlib.sha256("\x00".join(outcomes).encode()).hexdigest()

    #: SHA-256 of the outcomes of the structure and cell mutations below,
    #: recorded before structure elements were written from face rows, and
    #: again when the loader began to refuse a ``schema_version`` that is
    #: not an int: one structure and three cell outcomes changed, each a
    #: ``schema_version: true`` that used to load.
    STRUCTURE_OUTCOMES = "d11382f9d6345582650ffdbf8c23fddd13bb348e946170cad521f9880d00561a"
    CELL_OUTCOMES = "7296b3407d01ce1aec9a9b4fb76c32b94a1dd4037d94dcc39762381b50165ea3"

    def test_structure_outcomes_are_frozen(self):
        """Each seeded mutation of a frozen structure fixture or of an
        additive oriental is refused with the same text or loads to the
        same fixture text."""
        names = ("circle", "weak_not_strong", "parting_atom", "self_loop")
        texts = [(FIXTURE_DIR / f"{name}.json").read_text() for name in names]
        texts.append(fixtures.dumps(oriental(3).to_additive(), name="oriental-3"))
        assert self.outcomes_digest(texts, 500) == self.STRUCTURE_OUTCOMES

    def test_cell_outcomes_are_frozen(self):
        """The same for an atom cell of oriental(3)."""
        o3 = oriental(3)
        texts = [fixtures.dumps(cells.atom(o3, o3.gen("0123")), name="atom-0123")]
        assert self.outcomes_digest(texts, 250) == self.CELL_OUTCOMES


def structure_payload(struct):
    """A structure's payload as a dict, read off its face table's rows."""
    t, elements, names = struct._table, [], []
    for d, gens in enumerate(t.gens):
        for g, neg, pos in zip(gens, t.neg[d], t.pos[d]):
            neg, pos = fixtures._faces_payload(names, neg), fixtures._faces_payload(names, pos)
            elements.append({"id": g.name, "dim": d, "neg": neg, "pos": pos})
        names = [g.name for g in gens]
    return {"elements": elements}


def reference_payload(value):
    """A value's fixture kind and its payload as a dict."""
    def kind(struct):
        return fixtures.KIND_PARITY if isinstance(struct, ParityStructure) else fixtures.KIND_ADDITIVE

    if isinstance(value, (ParityStructure, AdditiveParityStructure)):
        return kind(value), structure_payload(value)
    if isinstance(value, cells.CellTable):
        return fixtures.KIND_CELL, fixtures.cell_payload(value)
    sides = {key: {"kind": kind(s), **structure_payload(s)}
             for key, s in (("source", value.source), ("target", value.target))}
    return fixtures.KIND_MORPHISM, {"mode": value.mode, **sides, "assignment": fixtures._assignment(value)}


class TestCanonicalText:
    """``dumps`` writes the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` for every fixture kind, including names
    that JSON escapes and counts of 2 or more; the reference builds
    each payload as a dict first."""

    @staticmethod
    def reference(value, name):
        kind, payload = reference_payload(value)
        doc = {"schema_version": fixtures.SCHEMA_VERSION, "name": name, "kind": kind, "payload": payload}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def values():
        from paritykit.generators import oriental
        from paritykit.morphisms import identity_morphism

        odd = ["é", "Ω", "日本", "a\"b", "c\\d", "𝔸", "x/y"]  # JSON escapes: \uXXXX, \" and \\
        points = [(v, 0, [], []) for v in odd]
        edge = ("f\\1", 1, [odd[3]], [odd[4], odd[5]])
        weighted = AdditiveParityStructure.build(
            [*points, edge, ("e\"1", 1, {odd[0]: 2, odd[1]: 1}, {odd[2]: 3}), ("Σ", 2, {"e\"1": 1}, [("f\\1", 2)])]
        )
        subset = ParityStructure.build([*points, edge])
        empty = ParityStructure.build([])
        point = globe(0)
        double = GradedMorphism(point, weighted, {point.gen("top"): Multiset(0, {weighted.gen("é", 0): 2})}, "additive")
        out = [weighted, subset, empty, empty.to_additive(), globe(2), oriental(3).to_additive()]
        out += [cells.atom(subset, subset.gen("é")), cells.atom(subset, subset.gen("f\\1"))]
        out += list(cells.enumerate_cells(oriental(2), 2))
        out += [identity_morphism(subset), identity_morphism(weighted, "additive"), double, identity_morphism(empty)]
        return out

    def test_byte_identical_to_json_dumps(self):
        kinds = set()
        for value in self.values():
            for name in ("", "n", "ñ\"\\"):
                text = fixtures.dumps(value, name)
                assert text == self.reference(value, name)
                kinds.add(json.loads(text)["kind"])
                assert fixtures.loads(text).value == value
        assert kinds == set(fixtures.KINDS)

    def test_frozen_fixtures_and_families(self):
        from paritykit.generators import cube, oriental

        for value in [globe(n) for n in range(5)] + [oriental(n) for n in range(5)] + [cube(n) for n in range(4)]:
            assert fixtures.dumps(value, "f") == self.reference(value, "f")
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            fixture = fixtures.loads(path.read_text())
            assert fixtures.dumps(fixture.value, fixture.name) == self.reference(fixture.value, fixture.name)

    def test_non_ascii_names_are_escaped(self):
        text = fixtures.dumps(self.values()[0], "ñ")
        assert text.isascii()
        assert '"\\u00e9"' in text and '"\\ud835\\udd38"' in text and '"a\\"b"' in text and '"c\\\\d"' in text
        assert '[\n' in text and '"\\u00f1"' in text


class TestRowsStraightToText:
    """Loading a structure resolves names straight into one face table,
    and writing one reads its rows; ``_text`` writes only the cells, the
    reports and a morphism's assignment."""

    def test_loading_builds_one_table_and_no_multiset(self, monkeypatch):
        from paritykit import parity_core

        struct = cube(5)
        text = fixtures.dumps(struct, name="cube-5")
        built = {Multiset: 0, parity_core._FaceTable: 0}
        for cls in built:
            def counting(self, *args, _init=cls.__init__, _cls=cls):
                built[_cls] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        assert fixtures.loads(text).value == struct
        assert built == {Multiset: 0, parity_core._FaceTable: 1}

    def test_no_structure_element_goes_through_text(self, monkeypatch):
        from paritykit.morphisms import identity_morphism

        struct = cube(5)
        f = identity_morphism(struct)
        written, text = [], fixtures._text
        monkeypatch.setattr(fixtures, "_text", lambda value, *args: written.append(value) or text(value, *args))
        assert fixtures.dumps(struct, "c") == TestCanonicalText.reference(struct, "c")
        assert written == []
        assert fixtures.dumps(f, "f") == TestCanonicalText.reference(f, "f")
        assert written[0] == fixtures._assignment(f)
        assert not any(type(v) is dict and ("elements" in v or "id" in v) for v in written)
