"""The public error contracts: each documented refusal raises its error
type with its message, checked in one table.  Also the order of the
checks in morphism_from_chain_map (the mode is checked before the images),
the CLI's exit code for a fixture of the wrong kind or a bad cell cap, and
the complex's max_dim and membership."""

from __future__ import annotations

import os
from unittest import mock

import pytest

from conftest import FIXTURE_DIR, lift
from paritykit import cells, cli, fixtures
from paritykit.cells import CellTable
from paritykit.chain import AugmentationMissingError, from_structure
from paritykit.generators import cube, globe, oriental
from paritykit.morphisms import (
    ChainMap,
    GradedMorphism,
    MorphismError,
    apply_to_cell,
    identity_morphism,
    induced_chain_map,
    morphism_from_chain_map,
)
from paritykit.multiset import GeneratorId, Multiset, SignedVector
from paritykit.parity_core import (
    AdditiveParityStructure,
    DimensionMismatchError,
    ParityStructure,
    StructureError,
    UnknownGeneratorError,
    atom_faces,
    is_well_formed,
    moves,
    skeleton,
    subset_faces,
)

pytestmark = pytest.mark.frozen

G1, O2 = globe(1), oriental(2)
POINT, EDGE, TOP = O2.gen("0"), O2.gen("01"), G1.gen("top")
#: a: {u, v} -> {w}, whose basis is not normal
NOT_NORMAL = ParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("w", 0, [], []), ("a", 1, ["u", "v"], ["w"])])
#: a: u -> v; x: 2a => {}, whose faces are not subsets
MULTISET = AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("a", 1, ["u"], ["v"]),
                                          ("x", 2, ["a", "a"], [])])


def point(struct, name):
    return Multiset.of(struct.gen(name, 0))


def two_points():
    """Chain complexes of one point u and of two points a, b."""
    one = ParityStructure.build([("u", 0, [], [])])
    two = ParityStructure.build([("a", 0, [], []), ("b", 0, [], [])])
    return from_structure(one), from_structure(two)


def chain_map(scale):
    """The map of the complex of globe(1) to itself sending x to scale * x."""
    c = from_structure(G1)
    return ChainMap(c, c, {g: SignedVector(g.dim, {g: scale}) for g in G1.all_generators()})


#: The points 0 and 1 of oriental(2), as a 0-cell whose top columns differ.
MISMATCHED = lambda: CellTable([point(O2, "0")], [point(O2, "1")])


def additive_count(count):
    """u, v; f: count * u -> v, built from a face pair with this count."""
    return AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("f", 1, [("u", count)], ["v"])])


def with_version(version: str) -> str:
    """The fixture text of a 0-cell with this schema_version."""
    return fixtures.dumps(cells.atom(O2, POINT)).replace('"schema_version": 1', f'"schema_version": {version}')


def capped(raw):
    """enumerate_cells of oriental(2) with the cell cap set to raw."""
    with mock.patch.dict(os.environ, {cells.MAX_CELLS_ENV: raw}):
        return cells.enumerate_cells(O2, 1)


CASES = [
    # cells
    ("CellTable empty rows", lambda: CellTable([], []), ValueError, "cell table needs equal, nonempty rows"),
    ("CellTable ungraded column", lambda: CellTable([Multiset(1)], [Multiset(1)]),
     ValueError, "column 0 must be graded by dimension 0"),
    ("CellTable column not a Multiset", lambda: CellTable([SignedVector(0, {POINT: -1})], [SignedVector(0, {POINT: -1})]),
     ValueError, "column 0 must hold Multisets, got SignedVector"),
    ("CellTable upper column not a Multiset",
     lambda: CellTable([point(O2, "0"), Multiset.of(EDGE)], [point(O2, "1"), SignedVector(1, {EDGE: 1})]),
     ValueError, "column 1 must hold Multisets, got SignedVector"),
    ("validate_cell mode", lambda: cells.validate_cell(O2, cells.atom(O2, POINT), mode="bogus"),
     ValueError, "unknown cell mode 'bogus'"),
    ("validate_cell nu without augmentation",
     lambda: cells.validate_cell(NOT_NORMAL, CellTable([point(NOT_NORMAL, "u")], [point(NOT_NORMAL, "u")]), "nu"),
     AugmentationMissingError, r"complex has no augmentation \(basis is not normal\)"),
    ("face sign", lambda: cells.face(cells.atom(O2, EDGE), 0, "up"),
     ValueError, "sign must be 'source' or 'target', got 'up'"),
    ("generated_by_atoms invalid cell", lambda: cells.generated_by_atoms(O2, MISMATCHED()),
     ValueError, "not a valid cell: top columns differ"),
    ("face index not an integer", lambda: cells.face(cells.atom(O2, EDGE), 0.5, "source"),
     ValueError, r"face index must be an integer, got 0\.5"),
    ("composition index a boolean", lambda: cells.compose(cells.atom(O2, EDGE), cells.atom(O2, EDGE), False),
     ValueError, "composition index must be an integer, got False"),
    ("enumerate_cells max_dim a float", lambda: cells.enumerate_cells(G1, 1.0),
     ValueError, r"max_dim must be an integer, got 1\.0"),
    ("atom_closure max_dim a float", lambda: cells.atom_closure(G1, 1.5),
     ValueError, r"max_dim must be an integer, got 1\.5"),
    ("atom_closure max_dim a boolean", lambda: cells.atom_closure(G1, True),
     ValueError, "max_dim must be an integer, got True"),
    ("generated_by_atoms past MAX_DIM", lambda: cells.generated_by_atoms(G1, lift(cells.atom(G1, TOP), 70)),
     ValueError, "max_dim must be at most 64, got 70"),
    ("cell cap not an integer", lambda: capped("abc"),
     cells.EnumerationCapError, "PARITYKIT_MAX_CELLS must be an integer, got 'abc'"),
    ("cell cap zero", lambda: capped("0"), cells.EnumerationCapError, "PARITYKIT_MAX_CELLS must be positive, got 0"),
    # chain
    ("boundary_of a point", lambda: from_structure(O2).boundary_of(POINT),
     StructureError, "dimension-0 generator '0' has no boundary"),
    ("boundary in dimension 0", lambda: from_structure(O2).boundary(SignedVector(0)),
     StructureError, "boundary needs a chain of dimension >= 1"),
    ("augmentation above dimension 0", lambda: from_structure(O2).augmentation(Multiset.of(EDGE)),
     StructureError, "augmentation applies in dimension 0, got 1"),
    # morphisms
    ("apply_to_cell invalid cell", lambda: apply_to_cell(identity_morphism(O2), MISMATCHED()),
     ValueError, "not a valid cell over the source: top columns differ"),
    ("ChainMap.then", lambda: induced_chain_map(identity_morphism(G1)).then(induced_chain_map(identity_morphism(O2))),
     MorphismError, "chain maps are not composable"),
    ("GradedMorphism image not a Multiset", lambda: GradedMorphism(
        G1, G1, {**{g: Multiset.of(g) for g in G1.generators(0)}, TOP: SignedVector(1, {TOP: -1})}, "additive"),
     MorphismError, "image of 'top' must be a Multiset, got SignedVector"),
    ("morphism_from_chain_map negative image", lambda: morphism_from_chain_map(chain_map(-1)),
     MorphismError, r"image of e0\+ is not positive: -e0\+"),
    ("morphism_from_chain_map mode", lambda: morphism_from_chain_map(chain_map(1), mode="bogus"),
     MorphismError, "unknown morphism mode 'bogus'"),
    ("morphism_from_chain_map weak parity count", lambda: morphism_from_chain_map(chain_map(2), mode="weak_parity"),
     MorphismError, r"image of 'e0\+' is not a subset: \{e0\+:2\}"),
    # parity_core
    ("subset_faces in dimension 0", lambda: subset_faces(O2, 0, [POINT]),
     DimensionMismatchError, "subset faces need a subset of dimension >= 1"),
    ("subset_faces dimension", lambda: subset_faces(O2, 1, [POINT]),
     DimensionMismatchError, "'0' has dimension 0, expected 1"),
    ("gen without a dimension", lambda: O2.gen("zz"), UnknownGeneratorError, "no generator named 'zz'"),
    ("gen boolean dimension", lambda: G1.gen("top", True), ValueError, "dimension must be an integer, got True"),
    ("generators float dimension", lambda: G1.generators(1.5), ValueError, r"dimension must be an integer, got 1\.5"),
    ("is_well_formed dimension", lambda: is_well_formed(O2, 1, [POINT]),
     DimensionMismatchError, "'0' has dimension 0, expected 1"),
    ("is_well_formed repeat", lambda: is_well_formed(O2, 1, [EDGE, EDGE]), ValueError, "subset with repeated members"),
    ("moves mode", lambda: moves(O2, Multiset.of(EDGE), point(O2, "0"), point(O2, "1"), mode="bogus"),
     ValueError, "unknown movement mode 'bogus'"),
    ("build float count", lambda: additive_count(1.5), StructureError, r"count for 'u' must be an integer, got 1\.5"),
    ("build string count", lambda: additive_count("2"), StructureError, "count for 'u' must be an integer, got '2'"),
    ("build boolean count", lambda: additive_count(True), StructureError, "count for 'u' must be an integer, got True"),
    ("build boolean dimension", lambda: ParityStructure.build([("a", True, [], [])]),
     ValueError, "generator dimension must be an integer, got True"),
    ("skeleton dimension a float", lambda: skeleton(O2, 1.5), ValueError, r"skeleton dimension must be an integer, got 1\.5"),
    ("atom_faces on multiset faces", lambda: atom_faces(MULTISET, MULTISET.gen("x")),
     StructureError, "structure has multiset faces with counts >= 2"),
    # multiset
    ("Multiset.of nothing", lambda: Multiset.of(),
     ValueError, r"Multiset.of needs at least one generator; use Multiset\(dim\)"),
    ("GeneratorId boolean dimension", lambda: GeneratorId(True, "a"),
     ValueError, "generator dimension must be an integer, got True"),
    ("GeneratorId float dimension", lambda: GeneratorId(1.5, "a"),
     ValueError, r"generator dimension must be an integer, got 1\.5"),
    ("GeneratorId string dimension", lambda: GeneratorId("1", "a"),
     ValueError, "generator dimension must be an integer, got '1'"),
    ("GeneratorId integer name", lambda: GeneratorId(0, 5),
     ValueError, "generator name must be a non-empty printable token, got 5"),
    ("Multiset float dimension", lambda: Multiset(1.0), ValueError, r"dimension must be an integer, got 1\.0"),
    ("Multiset name key", lambda: Multiset(0, [("a", 1)]), ValueError, "generator must be a GeneratorId, got 'a'"),
    ("Multiset tuple key", lambda: Multiset(0, {(0, "a"): 1}),
     ValueError, r"generator must be a GeneratorId, got \(0, 'a'\)"),
    ("SignedVector tuple key", lambda: SignedVector(0, [((0, "a"), -1)]),
     ValueError, r"generator must be a GeneratorId, got \(0, 'a'\)"),
    ("SignedVector boolean dimension", lambda: SignedVector(False), ValueError, "dimension must be an integer, got False"),
    ("Multiset float count", lambda: Multiset(0, {POINT: 2.0}), ValueError, r"count for '0' must be an integer, got 2\.0"),
    ("Multiset boolean count", lambda: Multiset(0, {POINT: True}), ValueError, "count for '0' must be an integer, got True"),
    ("SignedVector float entry", lambda: SignedVector(0, {POINT: 1.5}),
     ValueError, r"entry for '0' must be an integer, got 1\.5"),
    ("SignedVector string entry", lambda: SignedVector(0, {POINT: "2"}),
     ValueError, "entry for '0' must be an integer, got '2'"),
    # generators
    ("globe size", lambda: globe(-1), ValueError, "globe size must be >= 0, got -1"),
    ("globe size a boolean", lambda: globe(True), ValueError, "globe size must be an integer, got True"),
    ("cube size a float", lambda: cube(2.0), ValueError, r"cube size must be an integer, got 2\.0"),
    ("oriental size a string", lambda: oriental("3"), ValueError, "oriental size must be an integer, got '3'"),
    # fixtures and cli
    ("loads float schema_version", lambda: fixtures.loads(with_version("1.0")),
     fixtures.FixtureError, r"unsupported schema_version 1\.0, expected 1"),
    ("loads boolean schema_version", lambda: fixtures.loads(with_version("true")),
     fixtures.FixtureError, "unsupported schema_version True, expected 1"),
    ("dumps of a non-value", lambda: fixtures.dumps(3), TypeError, "no fixture form for int"),
    ("cli fixture kind", lambda: cli._load(str(FIXTURE_DIR / "morphism_collapse_globe1.json"), fixtures.KIND_CELL),
     cli._UsageError, "fixture kind 'morphism' not usable here \\(expected cell\\)"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_error_contract(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_morphism_from_chain_map_checks_the_mode_before_the_images():
    one, two = two_points()
    a, b = two.generators(0)
    cm = ChainMap(one, two, {one.generators(0)[0]: SignedVector(0, {a: 2, b: -1})})
    with pytest.raises(MorphismError, match="unknown morphism mode 'bogus'"):
        morphism_from_chain_map(cm, mode="bogus")
    with pytest.raises(MorphismError, match=r"image of u is not positive: \+2a -b"):
        morphism_from_chain_map(cm)


def test_cli_refuses_a_fixture_of_the_wrong_kind(capsys):
    code = cli.main(["validate", str(FIXTURE_DIR / "morphism_collapse_globe1.json")])
    err = capsys.readouterr().err
    assert code == 2
    expected = "parity_structure or additive_parity_structure"
    assert err.endswith(f"fixture kind 'morphism' not usable here (expected {expected})\n")


@pytest.mark.parametrize("raw, message", [("abc", "must be an integer, got 'abc'"), ("0", "must be positive, got 0")])
def test_cli_refuses_a_bad_cell_cap(capsys, monkeypatch, raw, message):
    monkeypatch.setenv(cells.MAX_CELLS_ENV, raw)
    code = cli.main(["cells", str(FIXTURE_DIR / "weak_not_strong.json"), "--max-dim", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {cells.MAX_CELLS_ENV} {message}\n"


def test_complex_max_dim_and_membership():
    complex_ = from_structure(O2)
    assert complex_.max_dim == 2
    assert POINT in complex_ and EDGE in complex_
    assert GeneratorId(0, "zz") not in complex_ and GeneratorId(1, "0") not in complex_
