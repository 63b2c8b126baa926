import json

import pytest

from conftest import FIXTURE_DIR
from paritykit import cells, fixtures
from paritykit.generators import cube, globe, oriental
from paritykit.morphisms import GradedMorphism
from paritykit.multiset import Multiset
from paritykit.parity_core import AdditiveParityStructure


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
        assert fixture.value.pos(x).count(fixture.value.gen("w")) == 2

    def test_subset_emission_uses_plain_names(self, oriental2):
        payload = fixtures.structure_payload(oriental2)
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
