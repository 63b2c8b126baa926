import functools
import hashlib
import json
import random
from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import randstruct
from conftest import lift, load_fixture
from test_steiner_digraphs import _lex_topological_order
from paritykit import cells
from paritykit.cells import (
    AtomLeaf,
    CellTable,
    Composite,
    EnumerationCapError,
    IdentityLift,
    InternalCheckError,
    NotComposableError,
)
from paritykit import fixtures, parity_core
from paritykit.chain import AugmentationMissingError, FreeDirectedComplex, from_structure
from paritykit.generators import cube, family, globe, oriental
from paritykit.multiset import Multiset
from paritykit.parity_core import (
    CLASS_WEAK,
    MAX_DIM,
    ParityStructure,
    StructureError,
    is_well_formed,
    skeleton,
    validate,
)


def col(struct, dim, *names):
    return Multiset(dim, [(struct.gen(n, dim), 1) for n in names])


def table(struct, neg, pos):
    return CellTable(
        [col(struct, k, *row) for k, row in enumerate(neg)],
        [col(struct, k, *row) for k, row in enumerate(pos)],
    )


class TestValidateCell:
    def test_atom_012_is_a_nu_cell(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        assert cells.validate_cell(oriental2, t, "nu") == (True, None)

    def test_identity_one_cell(self, oriental2):
        t = table(oriental2, [["0"], []], [["0"], []])
        assert cells.validate_cell(oriental2, t, "nu") == (True, None)

    def test_boundary_mismatch_reported(self, oriental2):
        t = table(oriental2, [["0"], ["01"]], [["2"], ["01"]])
        ok, reason = cells.validate_cell(oriental2, t, "nu")
        assert not ok and "boundary" in reason

    def test_top_mismatch_reported(self, oriental2):
        t = table(oriental2, [["0"], ["01"]], [["1"], ["02"]])
        ok, reason = cells.validate_cell(oriental2, t)
        assert not ok and "top" in reason

    def test_nu_requires_augmentation_one(self, oriental2):
        t = CellTable(
            [Multiset(0, [(oriental2.gen("0"), 1), (oriental2.gen("1"), 1)])],
            [Multiset(0, [(oriental2.gen("0"), 1), (oriental2.gen("1"), 1)])],
        )
        ok, reason = cells.validate_cell(oriental2, t, "nu")
        assert not ok and "augmentation" in reason
        assert cells.validate_cell(oriental2, t, "rho") == (True, None)

    def test_the_default_mode_is_nu_exactly_when_the_complex_is_augmented(self):
        # oriental(1) is augmented; a: u -> 2v is not normal, so it has no augmentation
        from paritykit.parity_core import AdditiveParityStructure

        o1 = oriental(1)
        s = AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("a", 1, ["u"], [("v", 2)])])
        p, q = o1.generators(0)
        u, v, a = (s.gen(n) for n in "uva")
        pair = lambda x, y: CellTable([Multiset.of(x, y)], [Multiset.of(x, y)])
        edge = lambda target: CellTable([Multiset.of(u), Multiset.of(a)], [target, Multiset.of(a)])
        cases = [(o1, "nu", cells.enumerate_cells(o1, 1) + [pair(p, q)]),
                 (s, "rho", [pair(u, v), edge(Multiset.of(v, v)), edge(Multiset.of(v))])]
        for struct, mode, sample in cases:
            assert from_structure(struct).augmented is (mode == "nu")
            assert [cells.validate_cell(struct, t) for t in sample] == [
                cells.validate_cell(struct, t, mode) for t in sample]
        assert cells.validate_cell(o1, pair(p, q)) == (False, "negative column 0 has augmentation 2, expected 1")
        assert cells.validate_cell(s, pair(u, v)) == (True, None)
        with pytest.raises(AugmentationMissingError):
            cells.validate_cell(s, pair(u, v), "nu")

    def test_a_boundary_past_max_count_is_reported(self):
        # a: u -> 2v, so the boundary of MAX a counts v twice MAX_COUNT times
        from paritykit.multiset import MAX_COUNT
        from paritykit.parity_core import AdditiveParityStructure

        s = AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("a", 1, ["u"], [("v", 2)])])
        u, v, a = (s.gen(n) for n in "uva")
        top = Multiset(1, {a: MAX_COUNT})
        t = CellTable([Multiset(0, {u: MAX_COUNT}), top], [Multiset.of(v), top])
        assert cells.validate_cell(s, t, "rho") == (False, (
            f"negative column 1 has boundary -{MAX_COUNT}u +{2 * MAX_COUNT}v, expected -{MAX_COUNT}u +v"))

    def test_chains_read(self, monkeypatch):
        # a cell over masks is accepted by face unions; a refusal and a
        # table over Multisets are read as chains, once each
        calls = []
        chains = cells._chains
        monkeypatch.setattr(cells, "_chains", lambda *args: calls.append(1) or chains(*args))
        for struct, max_dim in [(oriental(4), 4), (cube(3), 3)]:
            sample = cells.enumerate_cells(struct, max_dim)
            calls.clear()
            assert all(cells.validate_cell(struct, t) == (True, None) for t in sample)
            assert calls == []
            top = sample[-1]
            neg, pos = top._rows
            flipped = CellTable._of(top._faces, (neg, (pos[0] ^ 1, *pos[1:])))
            assert cells.validate_cell(struct, flipped)[0] is False
            assert cells.validate_cell(struct, CellTable(top.neg, top.pos)) == (True, None)
            assert len(calls) == 2


class TestFace:
    def test_source_of_the_triangle_atom(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        assert cells.face(t, 1, "source") == table(
            oriental2, [["0"], ["02"]], [["2"], ["02"]]
        )
        assert cells.face(t, 1, "target") == table(
            oriental2, [["0"], ["01", "12"]], [["2"], ["01", "12"]]
        )

    def test_identity_face_laws(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        lifted = cells.identity(t)
        assert cells.face(lifted, t.dim, "source") == t
        assert cells.face(lifted, t.dim, "target") == t

    def test_out_of_range(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        with pytest.raises(ValueError):
            cells.face(t, 2, "source")

    def test_oriental5_footnote_snapshot(self):
        # regression anchor: the 1-target of the top atom of the 5-oriental
        # has the spine as its edge column
        o5 = oriental(5)
        t = cells.face(cells.atom(o5, o5.gen("012345")), 1, "target")
        assert t == table(
            o5,
            [["0"], ["01", "12", "23", "34", "45"]],
            [["5"], ["01", "12", "23", "34", "45"]],
        )
        assert cells.validate_cell(o5, t, "nu") == (True, None)


class TestCompose:
    def test_edges_compose_to_the_path(self, oriental2):
        a01 = cells.atom(oriental2, oriental2.gen("01"))
        a12 = cells.atom(oriental2, oriental2.gen("12"))
        assert cells.compose(a01, a12, 0) == table(
            oriental2, [["0"], ["01", "12"]], [["2"], ["01", "12"]]
        )

    def test_unit_laws_via_lifted_identities(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        for k in range(t.dim):
            left = lift(cells.face(t, k, "source"), t.dim)
            right = lift(cells.face(t, k, "target"), t.dim)
            assert cells.compose(left, t, k) == t
            assert cells.compose(t, right, k) == t

    def test_globe_unit(self, globe2):
        f = cells.atom(globe2, globe2.gen("top"))
        unit = lift(cells.face(f, 0, "target"), 2)
        assert cells.compose(f, unit, 0) == f

    def test_not_composable(self, oriental2):
        a01 = cells.atom(oriental2, oriental2.gen("01"))
        a02 = cells.atom(oriental2, oriental2.gen("02"))
        with pytest.raises(NotComposableError):
            cells.compose(a01, a02, 0)

    def test_dimension_mismatch(self, oriental2):
        a01 = cells.atom(oriental2, oriental2.gen("01"))
        t = cells.atom(oriental2, oriental2.gen("012"))
        with pytest.raises(NotComposableError):
            cells.compose(a01, t, 0)

    def test_subset_violation_hard_errors(self, circle):
        x = table(circle, [["p"], ["a"]], [["q"], ["a"]])
        y = table(circle, [["q"], ["b"]], [["p"], ["b"]])
        xy = cells.compose(x, y, 0)
        with pytest.raises(InternalCheckError):
            cells.compose(xy, x, 0)

    def test_lower_columns_must_match_in_both_rows(self, oriental2):
        # compose takes any tables; on valid cells one row below k would
        # follow from the other, so these tables are not cells
        x = table(oriental2, [["0"], ["01"], []], [["2"], ["12"], []])
        same = table(oriental2, [["0"], ["12"], []], [["2"], ["02"], []])
        other_neg = table(oriental2, [["1"], ["12"], []], [["2"], ["02"], []])
        other_pos = table(oriental2, [["0"], ["12"], []], [["1"], ["02"], []])
        assert cells.compose(x, same, 1) == table(
            oriental2, [["0"], ["01"], []], [["2"], ["02"], []]
        )
        for y in (other_neg, other_pos):
            assert cells.face(x, 1, "target") != cells.face(y, 1, "source")
            with pytest.raises(NotComposableError):
                cells.compose(x, y, 1)

    def test_composable_exactly_when_the_faces_match(self, oriental3):
        # the column-wise test in compose against the definition by faces
        enumerated = cells.enumerate_cells(oriental3, 3)
        for d in range(1, 4):
            same_dim = [t for t in enumerated if t.dim == d]
            for x, y in product(same_dim, repeat=2):
                for k in range(d):
                    matching = cells.face(x, k, "target") == cells.face(y, k, "source")
                    if matching:
                        assert cells.compose(x, y, k).dim == d
                    else:
                        with pytest.raises(NotComposableError):
                            cells.compose(x, y, k)


class TestIdentity:
    def test_identity_of_point(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("0"))
        assert cells.identity(t) == table(oriental2, [["0"], []], [["0"], []])

    def test_identity_preserves_columns(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        lifted = cells.identity(t)
        assert lifted.neg[:3] == t.neg and lifted.pos[:3] == t.pos
        assert lifted.is_identity()

    def test_injective_on_sample(self, oriental2):
        sample = cells.enumerate_cells(oriental2, 1)
        lifted = [cells.identity(t) for t in sample]
        assert len(set(lifted)) == len(sample)

    def test_an_empty_zero_cell_is_not_an_identity(self):
        # an identity lifts a lower cell, and a 0-column table has none below it
        assert not CellTable([Multiset(0)], [Multiset(0)]).is_identity()


class TestAtom:
    def test_globe_atom(self, globe2):
        t = cells.atom(globe2, globe2.gen("top"))
        assert t == table(
            globe2, [["e0-"], ["e1-"], ["top"]], [["e0+"], ["e1+"], ["top"]]
        )

    def test_triangle_atom(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        assert t == table(
            oriental2, [["0"], ["02"], ["012"]], [["2"], ["01", "12"], ["012"]]
        )

    def test_point_atom(self, oriental2):
        assert cells.atom(oriental2, oriental2.gen("1")) == CellTable(
            [Multiset.of(oriental2.gen("1"))], [Multiset.of(oriental2.gen("1"))]
        )

    def test_point_atom_is_cell_zero(self):
        structs = [globe(3), oriental(4), cube(3), *(load_fixture(n).value for n in ("circle", "weak_not_strong"))]
        points = 0
        for struct in structs:
            for s in (struct, struct.to_additive()):
                for g in s.generators(0):
                    made, zero = cells.atom(s, g), CellTable([Multiset.of(g)], [Multiset.of(g)])
                    assert made == zero and made.dim == 0 and made._faces is s._table
                    points += 1
        assert points == 40

    def test_additive_atom_matches_parity_atom(self, oriental3):
        additive = oriental3.to_additive()
        for g in oriental3.all_generators():
            if g.dim == 0:
                continue
            assert cells.atom(oriental3, g) == cells.atom(additive, g)


def brute_force_cells(struct: ParityStructure, max_dim: int) -> set[CellTable]:
    """Independent oracle: all tables over all subset columns, filtered by
    the cell conditions (no movement solving)."""
    found = set()
    complex_ = from_structure(struct)
    subsets_by_dim = {}
    for k in range(max_dim + 1):
        gens = list(struct.generators(k))
        subsets_by_dim[k] = [
            frozenset(c) for r in range(len(gens) + 1) for c in combinations(gens, r)
        ]
    for d in range(max_dim + 1):
        rows = [subsets_by_dim[k] for k in range(d + 1)]
        for neg_choice in product(*rows):
            for pos_choice in product(*rows[:-1]):
                pos_full = pos_choice + (neg_choice[-1],)
                t = CellTable(
                    [Multiset(k, [(h, 1) for h in s]) for k, s in enumerate(neg_choice)],
                    [Multiset(k, [(h, 1) for h in s]) for k, s in enumerate(pos_full)],
                )
                ok, _ = cells.validate_cell(complex_, t, "nu")
                if ok and all(
                    is_well_formed(struct, k, s)
                    for k, s in enumerate(neg_choice)
                ) and all(
                    is_well_formed(struct, k, s) for k, s in enumerate(pos_full)
                ):
                    found.add(t)
    return found


class TestEnumerate:
    def test_oriental2_against_brute_force(self, oriental2):
        enumerated = cells.enumerate_cells(oriental2, 2)
        assert set(enumerated) == brute_force_cells(oriental2, 2)
        counts = [sum(1 for t in enumerated if t.dim == d) for d in range(3)]
        assert counts == [3, 7, 8]

    def test_globe1_against_brute_force(self, globe1):
        enumerated = cells.enumerate_cells(globe1, 1)
        assert set(enumerated) == brute_force_cells(globe1, 1)
        counts = [sum(1 for t in enumerated if t.dim == d) for d in range(2)]
        assert counts == [2, 3]

    def test_empty_structure(self):
        empty = ParityStructure.build([])
        assert cells.enumerate_cells(empty, 3) == []
        # the search stops at its first empty level
        assert cells.enumerate_cells(empty, MAX_DIM) == [] and cells.atom_closure(empty, MAX_DIM) == {}

    def test_identities_above_the_top_dimension(self, globe1):
        # columns above dimension 1 are zero masks with no generators behind them
        enumerated = cells.enumerate_cells(globe1, 3)
        assert [sum(1 for t in enumerated if t.dim == d) for d in range(4)] == [2, 3, 3, 3]
        assert set(cells.atom_closure(globe1, 3)) == set(enumerated)

    def test_requires_weak_parity_complex(self, circle):
        with pytest.raises(StructureError):
            cells.enumerate_cells(circle, 1)

    def test_canonical_order_is_stable(self, oriental2):
        first = cells.enumerate_cells(oriental2, 2)
        second = cells.enumerate_cells(oriental2, 2)
        assert first == second
        assert first == sorted(first, key=CellTable.sort_key)

    def test_cap(self, oriental2, monkeypatch):
        monkeypatch.setenv(cells.MAX_CELLS_ENV, "5")
        with pytest.raises(EnumerationCapError):
            cells.enumerate_cells(oriental2, 2)

    def test_a_cap_equal_to_the_points_admits_them(self, monkeypatch):
        monkeypatch.setenv(cells.MAX_CELLS_ENV, "2")
        g3 = globe(3)
        assert cells.enumerate_cells(g3, 0) == [cells.atom(g3, g) for g in g3.generators(0)]

    def test_same_cells_over_the_additive_view(self, oriental3):
        additive = oriental3.to_additive()
        assert cells.enumerate_cells(additive, 3) == cells.enumerate_cells(oriental3, 3)

    def test_all_enumerated_cells_validate(self, oriental3):
        complex_ = from_structure(oriental3)
        for t in cells.enumerate_cells(oriental3, 3):
            assert cells.validate_cell(complex_, t, "nu") == (True, None)

    def test_negative_max_dim(self, oriental2):
        with pytest.raises(ValueError, match="max_dim"):
            cells.enumerate_cells(oriental2, -1)
        with pytest.raises(ValueError, match="max_dim"):
            cells.atom_closure(oriental2, -1)

    def test_max_dim_is_at_most_the_largest_dimension(self):
        # above a structure's top every level is identities one column
        # wider, so max_dim is bounded by the largest dimension a structure has
        point = globe(0)
        assert len(cells.enumerate_cells(point, MAX_DIM)) == MAX_DIM + 1
        assert len(cells._mask_cells(point, MAX_DIM)) == MAX_DIM + 1
        assert len(cells.atom_closure(point, MAX_DIM)) == MAX_DIM + 1
        for call in (cells.enumerate_cells, cells._mask_cells, cells.atom_closure):
            with pytest.raises(ValueError) as info:
                call(point, MAX_DIM + 1)
            assert str(info.value) == f"max_dim must be at most {MAX_DIM}, got {MAX_DIM + 1}"

    def test_tables_on_rows_and_count_only_builds_none(self, tmp_path, monkeypatch):
        # enumeration builds one table per cell on its mask rows and no
        # column; `cells --count-only` builds neither
        from paritykit import cli, fixtures

        built, loaded = [], []
        init, of, load = CellTable.__init__, CellTable._of.__func__, cli._load

        def counting_init(self, neg, pos):
            built.append(None)
            init(self, neg, pos)

        def counting_of(cls, faces, rows):
            built.append(None)
            return of(cls, faces, rows)

        monkeypatch.setattr(CellTable, "__init__", counting_init)
        monkeypatch.setattr(CellTable, "_of", classmethod(counting_of))
        monkeypatch.setattr(cli, "_load", lambda *args: loaded.append(load(*args)) or loaded[-1])
        struct = family("cube", 3)
        enumerated = cells.enumerate_cells(struct, 3)
        assert len(built) == len(enumerated) == 159
        assert not any(struct._table.columns.values())  # no dimension's cache holds a column
        last = enumerated[-1]
        assert str(last)  # builds the columns of both rows
        assert {c for cache in struct._table.columns.values() for c, _ in cache.values()} == {*last.neg, *last.pos}
        built.clear()
        path = tmp_path / "cube3.json"
        path.write_text(fixtures.dumps(struct, name="cube-3"))
        assert cli.main(["cells", str(path), "--max-dim", "3", "--count-only"]) == 0
        assert built == [] and not any(loaded[0].value._table.columns.values())

    # SHA-256 of the str() lines of the sorted enumeration, recorded from
    # the former top-down search before it was replaced.
    GOLDEN = [
        ("oriental", 4, 4, 291, "bd7d7d2bcff5119cabccfed6198d94a1195060c1a6992f4342befdf3a57f215b"),
        ("cube", 3, 3, 159, "f1065091805711b4d98b486fb354e69ecb8d47c31e0a4809af05f68b2eb8ed33"),
        ("oriental", 5, 5, 1721, "26de0236779c270ddf3e94a019fef9e5caa37df658cfa5b2bd4846d00f6c97a8"),
        # recorded from the table-sorting search before the mask sort replaced it
        ("cube", 4, 4, 1679, "6aef60bb4cfee0488d6d707478a221226f812eae2bf82632975bfd8d9699c73f"),
    ]

    @pytest.mark.frozen
    @pytest.mark.parametrize("name, n, max_dim, count, digest", GOLDEN)
    def test_golden_enumeration(self, name, n, max_dim, count, digest):
        enumerated = cells.enumerate_cells(family(name, n), max_dim)
        assert len(enumerated) == count
        text = "\n".join(str(t) for t in enumerated)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_gens=st.integers(3, 12))
    def test_random_weak_parity_complexes(self, seed, max_gens):
        struct = randstruct.random_structured_parity(random.Random(seed), max_gens)
        assume(validate(struct).meets(CLASS_WEAK))
        enumerated = cells.enumerate_cells(struct, struct.max_dim)
        keys = [t.sort_key() for t in enumerated]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # freeness: every cell is reached from atoms, and nothing else is
        assert set(enumerated) == set(cells.atom_closure(struct, struct.max_dim))
        # brute force up to the highest dimension with at most 2^10 tables
        sizes = [len(struct.generators(k)) for k in range(struct.max_dim + 1)]
        small = [d for d in range(len(sizes)) if 2 * sum(sizes[:d]) + sizes[d] <= 10]
        if small:
            d = max(small)
            assert set(t for t in enumerated if t.dim <= d) == brute_force_cells(struct, d)


def value_excision(source, table):
    """excision_decompose on values: the members are sorted by the
    test-side copy of the heap sort on their face masks, the column is a
    SignedVector that each top member moves by adding its boundary
    vector, and every slice is built from Multisets.  The reference of
    TestExcision."""
    complex_ = source if isinstance(source, FreeDirectedComplex) else from_structure(source)
    faces = complex_._table
    globular, weakly_loop_free = not faces.dd_defects(), validate(complex_.structure).weakly_loop_free
    if not (globular and weakly_loop_free):
        raise StructureError(
            "excision needs a globular, weakly loop-free structure, got "
            f"globular={globular}, weakly_loop_free={weakly_loop_free}"
        )
    if table.dim < 1:
        raise ValueError("excision applies to cells of dimension >= 1")
    ok, reason = cells.validate_cell(complex_, table, mode="nu" if faces.normal else "rho")
    if not ok:
        raise ValueError(f"not a valid cell: {reason}")
    neg_row, pos_row = table.neg, table.pos
    top = neg_row[-1]
    if not top:
        return []
    members = sorted(top)
    if len(members) == 1 and top.is_radical():
        return [table]
    rows = [faces.index[b] for b in members]
    neg = [faces.neg_mask[table.dim][i] for i in rows]
    successors = {
        i: [j for j, n in enumerate(neg) if j != i and faces.pos_mask[table.dim][r] & n]
        for i, r in enumerate(rows)
    }
    order, cycle = _lex_topological_order(len(members), successors)
    if order is None:
        raise InternalCheckError(
            f"cycle among top members of a weakly loop-free structure: {[members[i] for i in cycle]}"
        )
    slices = []
    current = neg_row[-2].to_vector()
    for b in [members[i] for i in order for _ in range(dict(top.items())[members[i]])]:
        nxt = current + complex_.boundary_of(b)
        if nxt.parts()[0]:
            raise InternalCheckError(f"intermediate column {nxt} is not positive; excision order failed")
        column = Multiset.of(b)
        slices.append(
            CellTable(neg_row[:-2] + (current.parts()[1], column), pos_row[:-2] + (nxt.parts()[1], column))
        )
        current = nxt
    if current.parts()[1] != pos_row[-2]:
        raise InternalCheckError("excision slices do not close up to the target column")
    return slices


@functools.cache
def weak_pool(seed=18, draws=30):
    """The weak parity complexes among seeded random_structured_parity draws."""
    rng = random.Random(seed)
    drawn = [randstruct.random_structured_parity(rng) for _ in range(draws)]
    return [s for s in drawn if validate(s).meets(CLASS_WEAK)]


def sort_all_cells(struct, max_dim):
    """The enumeration's mask cells as an unsorted search over all levels
    and then one sort of every cell by its length and the set bits of
    its columns, capped per state as enumerate_cells is."""
    cap = cells._max_cells()
    out = []

    def emit(cell):
        out.append(cell)
        if len(out) > cap:
            raise EnumerationCapError(f"enumeration exceeded {cap} cells (set {cells.MAX_CELLS_ENV} to raise)")

    for i in range(len(struct.generators(0))):
        emit(((1 << i,), (1 << i,)))
    faces = struct._table
    start = 0
    for d in range(1, max_dim + 1):
        moves = [(1 << i, faces.neg_mask[d][i], faces.pos_mask[d][i]) for i in range(len(struct.generators(d)))]
        level, start = out[start:], len(out)
        if not level:
            break
        for head_neg, source_pos in level:
            head_pos = source_pos[:-1]
            seen = {0}
            stack = [(0, source_pos[-1])]
            while stack:
                top, current = stack.pop()
                emit((head_neg + (top,), head_pos + (current, top)))
                for bit, neg, pos in moves:
                    if neg & ~current or pos & current or top & bit:
                        continue
                    if top | bit not in seen:
                        seen.add(top | bit)
                        stack.append((top | bit, current ^ neg ^ pos))
    key = lambda mask: tuple(parity_core._bits(mask))
    out.sort(key=lambda c: (len(c[0]), tuple(map(key, c[0])), tuple(map(key, c[1]))))
    return out


#: (id, structures, max_dim or None for each structure's own)
ORDER_CASES = [
    *((f"globe{n}", lambda n=n: [globe(n)], n) for n in range(1, 9)),
    *((f"oriental{n}", lambda n=n: [oriental(n)], n) for n in range(1, 6)),
    ("oriental6", lambda: [oriental(6)], 2),
    *((f"cube{n}", lambda n=n: [cube(n)], n) for n in range(1, 5)),
    ("weak_not_strong", lambda: [load_fixture("weak_not_strong").value], None),
    ("weak_pool", weak_pool, None),
]


@pytest.mark.frozen
class TestEnumerationOrder:
    """enumerate_cells against one sort of all its cells."""

    @pytest.mark.parametrize("make, max_dim", [c[1:] for c in ORDER_CASES], ids=[c[0] for c in ORDER_CASES])
    def test_same_cells_in_the_same_order(self, make, max_dim):
        for struct in make():
            d = struct.max_dim if max_dim is None else max_dim
            want = sort_all_cells(struct, d)
            enumerated = cells.enumerate_cells(struct, d)
            assert [t._rows for t in enumerated] == want
            assert [str(t) for t in enumerated] == [str(CellTable._of(struct._table, c)) for c in want]

    @pytest.mark.parametrize("make, max_dim", [c[1:] for c in ORDER_CASES], ids=[c[0] for c in ORDER_CASES])
    def test_same_cap_error(self, make, max_dim, monkeypatch):
        # caps just below the number of cells up to each dimension
        for struct in make():
            d = struct.max_dim if max_dim is None else max_dim
            dims = [len(neg) - 1 for neg, _ in sort_all_cells(struct, d)]
            totals = {sum(k <= j for k in dims) for j in range(d + 1)}
            for cap in sorted(total - 1 for total in totals if total > 1):
                monkeypatch.setenv(cells.MAX_CELLS_ENV, str(cap))
                with pytest.raises(EnumerationCapError) as want:
                    sort_all_cells(struct, d)
                with pytest.raises(EnumerationCapError) as got:
                    cells.enumerate_cells(struct, d)
                assert str(got.value) == str(want.value)
            monkeypatch.setenv(cells.MAX_CELLS_ENV, str(len(dims)))
            assert len(cells.enumerate_cells(struct, d)) == len(dims)
            monkeypatch.delenv(cells.MAX_CELLS_ENV)


@functools.cache
def excision_inputs():
    """(structure, table) pairs: the enumerated cells of the A4 corpus,
    oriental(4), cube(3), weak_not_strong and the weak parity complexes
    among seeded random draws, each also rebuilt from its fixture text,
    whose table is on Multisets; and a few tables excision refuses."""
    pool = [(oriental(2), 2), (oriental(3), 3), (cube(2), 2), (globe(3), 3), (oriental(4), 4), (cube(3), 3)]
    pool.append((load_fixture("weak_not_strong").value, 2))
    pool += [(s, s.max_dim) for s in weak_pool()]
    out = []
    for struct, max_dim in pool:
        for t in cells.enumerate_cells(struct, max_dim):
            out += [(struct, t), (struct, fixtures.loads(fixtures.dumps(t, name="cell")).value)]
    o2, circle = oriental(2), load_fixture("circle").value
    out.append((o2, table(o2, [["0"], ["01"]], [["2"], ["01"]])))
    out.append((o2, table(o2, [["0"], ["01", "12"], ["012"]], [["2"], ["02"], ["012"]])))
    out.append((circle, table(circle, [["p"], ["a"]], [["q"], ["a"]])))
    return out


def outcome(call, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.frozen
class TestExcision:
    def test_matches_the_value_algorithm(self):
        checked = set()
        for struct, t in excision_inputs():
            got, want = outcome(cells.excision_decompose, struct, t), outcome(value_excision, struct, t)
            assert got == want and str(got) == str(want), (struct, t)
            checked.add(type(want) is list and len(want) > 1)
        assert checked == {True, False}

    @pytest.mark.parametrize(
        "order", [lambda n: (list(range(n))[::-1], None), lambda n: (None, list(range(n)))], ids=["reversed", "cycle"]
    )
    def test_hard_errors_match(self, monkeypatch, order):
        # with the members out of excision order, both algorithms fail alike
        monkeypatch.setattr(cells, "_lex_sort", lambda rows: order(len(rows)))
        monkeypatch.setitem(globals(), "_lex_topological_order", lambda n, successors: order(n))
        raised = set()
        for struct, t in excision_inputs():
            got, want = outcome(cells.excision_decompose, struct, t), outcome(value_excision, struct, t)
            assert got == want and str(got) == str(want), (struct, t)
            raised.add(want[0] if type(want) is tuple else None)
        assert InternalCheckError in raised

    def test_path_splits_into_edges(self, oriental2):
        t = table(oriental2, [["0"], ["01", "12"]], [["2"], ["01", "12"]])
        slices = cells.excision_decompose(oriental2, t)
        assert slices == [
            table(oriental2, [["0"], ["01"]], [["1"], ["01"]]),
            table(oriental2, [["1"], ["12"]], [["2"], ["12"]]),
        ]

    def test_singleton_top_is_fixed(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        assert cells.excision_decompose(oriental2, t) == [t]

    def test_identity_decomposes_to_nothing(self, oriental2):
        t = cells.identity(cells.atom(oriental2, oriental2.gen("0")))
        assert cells.excision_decompose(oriental2, t) == []

    def test_oriental3_two_source_recomposes(self, oriental3):
        t = cells.face(cells.atom(oriental3, oriental3.gen("0123")), 2, "source")
        slices = cells.excision_decompose(oriental3, t)
        assert len(slices) == len(list(t.top)) and len(slices) > 1
        back = slices[0]
        for s in slices[1:]:
            back = cells.compose(back, s, t.dim - 1)
        assert back == t

    def test_ordering_respects_face_disjointness(self, oriental3):
        t = cells.face(cells.atom(oriental3, oriental3.gen("0123")), 2, "target")
        slices = cells.excision_decompose(oriental3, t)
        tops = [next(iter(s.top)) for s in slices]
        for i, b_i in enumerate(tops):
            for j, b_j in enumerate(tops):
                if i >= j:
                    assert oriental3.to_additive().pos(b_i).disjoint(
                        oriental3.to_additive().neg(b_j)
                    )

    def test_an_empty_column_below_the_top_stays_empty(self):
        # x and y have no faces, so every intermediate column is the empty one
        s = ParityStructure.build([("u", 0, [], []), ("x", 2, [], []), ("y", 2, [], [])])
        t = table(s, [["u"], [], ["x", "y"]], [["u"], [], ["x", "y"]])
        slices = cells.excision_decompose(s, t)
        assert slices == [table(s, [["u"], [], [g]], [["u"], [], [g]]) for g in "xy"]
        assert cells.compose(*slices, 1) == t

    def test_rejects_invalid_cell(self, oriental2):
        bad = table(oriental2, [["0"], ["01"]], [["2"], ["01"]])
        with pytest.raises(ValueError):
            cells.excision_decompose(oriental2, bad)

    def test_rejects_non_loop_free_structure(self, circle):
        t = table(circle, [["p"], ["a"]], [["q"], ["a"]])
        with pytest.raises(StructureError):
            cells.excision_decompose(circle, t)


def unpruned_closure(struct, max_dim, goal=None):
    """cells._closure before it skipped identity operands: a dequeued
    cell is composed at every level k below its dimension.  The
    reference of TestAtomClosure::test_matches_the_unpruned_search."""
    cap = cells._max_cells()
    known = {}
    queue = deque()
    by_source, by_target = {}, {}

    def add(cell, expr):
        known[cell] = expr
        queue.append(cell)
        if len(known) > cap:
            raise EnumerationCapError(
                f"atom closure reached {len(known)} cells, more than {cap} "
                f"(set {cells.MAX_CELLS_ENV} to raise)"
            )
        return cell == goal

    def search():
        for g in sorted(struct.all_generators()):
            if g.dim <= max_dim:
                leaf = AtomLeaf(g)
                cell = cells._mask_rows(struct._table, leaf.evaluate(struct))
                if cell not in known and add(cell, leaf):
                    return
        while queue:
            cell = queue.popleft()
            neg, pos = cell
            dim = len(neg) - 1
            expr = known[cell]
            if dim < max_dim:
                lifted = (neg + (0,), pos + (0,))
                if lifted not in known and add(lifted, IdentityLift(expr)):
                    return
            for k in range(dim):
                src = (dim, k, neg[:k], pos[:k], neg[k])
                tgt = src[:4] + (pos[k],)
                by_source.setdefault(src, []).append(cell)
                by_target.setdefault(tgt, []).append(cell)
                for y in by_source.get(tgt, ()):
                    composite = cells._composite(cell, y, k)
                    if composite not in known and add(composite, Composite(k, expr, known[y])):
                        return
                for x in by_target.get(src, ()):
                    if x is not cell:
                        composite = cells._composite(x, cell, k)
                        if composite not in known and add(composite, Composite(k, known[x], expr)):
                            return

    search()
    return known


def closure_cases():
    """(structure, max_dim): families, weak_not_strong and seeded weak pools."""
    yield from ((globe(n), n) for n in range(1, 9))
    yield from ((oriental(n), n) for n in range(1, 6))
    yield oriental(6), 2
    yield from ((cube(n), n) for n in range(1, 4))
    yield load_fixture("weak_not_strong").value, 2
    yield from ((s, s.max_dim) for s in weak_pool() + weak_pool(19, 200))


def payloads(closure):
    return [(cell, expr.to_payload()) for cell, expr in closure.items()]


class TestGeneratedByAtoms:
    def test_atom_is_its_own_witness(self, oriental2):
        t = cells.atom(oriental2, oriental2.gen("012"))
        expr = cells.generated_by_atoms(oriental2, t)
        assert isinstance(expr, AtomLeaf)
        assert expr.evaluate(oriental2) == t

    def test_identity_witness(self, oriental2):
        t = cells.identity(cells.atom(oriental2, oriental2.gen("0")))
        expr = cells.generated_by_atoms(oriental2, t)
        assert expr is not None and expr.evaluate(oriental2) == t

    def test_every_oriental2_cell_reached(self, oriental2):
        for t in cells.enumerate_cells(oriental2, 2):
            expr = cells.generated_by_atoms(oriental2, t)
            assert expr is not None
            assert expr.evaluate(oriental2) == t

    def test_closure_cap(self, oriental2, monkeypatch):
        monkeypatch.setenv(cells.MAX_CELLS_ENV, "5")
        with pytest.raises(EnumerationCapError, match="atom closure reached 6 cells, more than 5"):
            cells.atom_closure(oriental2, 2)
        t = table(oriental2, [["0"], ["01", "12"]], [["2"], ["01", "12"]])
        with pytest.raises(EnumerationCapError, match="atom closure reached 6 cells"):
            cells.generated_by_atoms(oriental2, t)

    def test_witness_is_the_closure_witness(self, oriental3):
        for t in cells.enumerate_cells(oriental3, 3):
            expr = cells.generated_by_atoms(oriental3, t)
            assert expr.to_payload() == cells.atom_closure(oriental3, t.dim)[t].to_payload()

    def test_stops_at_the_cell(self, oriental2, monkeypatch):
        # the six atoms up to dimension 1 pass the cap; 01 is the fourth
        monkeypatch.setenv(cells.MAX_CELLS_ENV, "5")
        edge = cells.atom(oriental2, oriental2.gen("01"))
        with pytest.raises(EnumerationCapError):
            cells.atom_closure(oriental2, 1)
        assert cells.generated_by_atoms(oriental2, edge).to_payload() == ["atom", "01"]

    def test_requires_weak_parity_complex(self, circle):
        t = table(circle, [["p"], ["a"]], [["q"], ["a"]])
        with pytest.raises(StructureError, match="additive parity complex"):
            cells.generated_by_atoms(circle, t)
        with pytest.raises(StructureError, match="additive parity complex"):
            cells.atom_closure(circle, 1)

    def test_expression_payloads(self, oriental2):
        t = table(oriental2, [["0"], ["01", "12"]], [["2"], ["01", "12"]])
        expr = cells.generated_by_atoms(oriental2, t)
        payload = expr.to_payload()
        assert payload[0] == "compose" and payload[1] == 0
        lifted = cells.atom_closure(oriental2, 2)[cells.identity(t)]
        assert repr(lifted) == "Composite(0, IdentityLift(AtomLeaf(01)), IdentityLift(AtomLeaf(12)))"


class TestAtomClosure:
    # SHA-256 of one line per closure entry, in dict order: str(cell), a
    # tab, and the compact JSON of its witness payload; recorded from the
    # closure over Multiset tables before it moved to bitmask columns.
    GOLDEN = [
        ("globe", 3, 3, 19, "f72f13f5e8828fd33badbc40c0003f3e9b1d7a0934d2317a7cad064ff6a4bd6c"),
        ("oriental", 4, 4, 291, "ae757215e8cf26b68fc7b521f75d484765d19388b33f540a60b25e0ba16671ac"),
        ("cube", 3, 3, 159, "230031140b2f71141a3450acdaee10846b65b1e6651f2e2ab665d016d1f151f2"),
        ("weak_not_strong", None, 2, 26, "59e8216a21c4fb6582e866017a3976fbf68e4c34fdf0f0008a9d808e22d498c0"),
        # the two largest closures of the benchmark corpus, recorded from
        # the search that keyed its partner lists by sliced row prefixes
        ("oriental", 5, 5, 1721, "a15af24c697feabfe2b8f8752dc6d773e72a25e88851594bb0ea6a193b8edc92"),
        ("oriental", 6, 2, 1127, "400e52df4622dbc01777c526a7db8b525005ff5c0e72fbfb4ee5e8f30604106d"),
    ]

    @pytest.mark.frozen
    @pytest.mark.parametrize("name, n, max_dim, count, digest", GOLDEN)
    def test_golden_witnesses(self, name, n, max_dim, count, digest):
        struct = load_fixture(name).value if n is None else family(name, n)
        closure = cells.atom_closure(struct, max_dim)
        assert len(closure) == count
        text = "\n".join(
            f"{cell}\t{json.dumps(expr.to_payload(), separators=(',', ':'))}"
            for cell, expr in closure.items()
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.frozen
    def test_matches_the_unpruned_search(self, monkeypatch):
        # an identity is a unit for every k-composite, so skipping identity
        # operands leaves the cells, their order and their witnesses alone
        rng = random.Random(19)
        for struct, max_dim in closure_cases():
            want = unpruned_closure(struct, max_dim)
            assert payloads(cells._closure(struct, max_dim)) == payloads(want)
            for goal in rng.sample(list(want), min(3, len(want))):
                got = cells._closure(struct, max_dim, goal)
                assert payloads(got) == payloads(unpruned_closure(struct, max_dim, goal))
                t = CellTable._of(struct._table, goal)
                assert cells.generated_by_atoms(struct, t).to_payload() == want[goal].to_payload()
        monkeypatch.setenv(cells.MAX_CELLS_ENV, "100")
        o4 = oriental(4)
        capped = outcome(cells._closure, o4, 4)
        assert capped == outcome(unpruned_closure, o4, 4) and capped[0] is EnumerationCapError

    @pytest.mark.frozen
    def test_composites_tried(self, monkeypatch):
        calls = []
        composite = cells._composite
        monkeypatch.setattr(cells, "_composite", lambda *args: calls.append(1) or composite(*args))
        for struct, max_dim, count in [(oriental(5), 5, 2882), (oriental(6), 2, 2853)]:
            calls.clear()
            cells.atom_closure(struct, max_dim)
            assert len(calls) == count  # 12,829 and 6,938 with identity operands

    def test_tables_are_marked_subset_columned(self, oriental2):
        assert all(t.is_subset_columned() for t in cells.atom_closure(oriental2, 2))

    def test_a_non_subset_column_hard_errors(self, oriental2, monkeypatch):
        # a table made from Multisets is read as mask rows; a column that is
        # not a subset cannot be, which over a weak parity complex means
        # the inputs are suspect
        zero = oriental2.gen("0")
        point = CellTable([Multiset.of(zero)], [Multiset.of(zero)])
        assert cells.generated_by_atoms(oriental2, point).to_payload() == ["atom", "0"]
        doubled = CellTable([Multiset.of(zero, zero)], [Multiset.of(zero, zero)])
        monkeypatch.setattr(cells, "validate_cell", lambda *args, **kwargs: (True, None))
        with pytest.raises(InternalCheckError, match="not a subset"):
            cells.generated_by_atoms(oriental2, doubled)

    def test_overlapping_composite_hard_errors(self):
        edge = ((1, 0), (2, 0))
        assert cells._composite(edge, ((2, 0), (4, 0)), 0) == ((1, 0), (4, 0))
        loop = ((1, 1), (1, 1))
        with pytest.raises(InternalCheckError, match="column 1"):
            cells._composite(loop, loop, 0)


class TestComputedOncePerStructure:
    def test_same_complex_on_every_call(self):
        # every call is a fresh view; the views of a structure and of its
        # additive counterpart share one table
        parity = oriental(3)
        additive = parity.to_additive()
        structures = (parity, parity, additive, additive)
        views = [from_structure(s) for s in structures]
        g = parity.gen("0123")
        for view, s in zip(views, structures):
            assert view._table is parity._table and view.structure is s
            assert view.boundary_of(g) == views[0].boundary_of(g)

    def test_cell_calls_validate_each_structure_once(self, monkeypatch):
        calls = []
        fresh_validate = parity_core._validate

        def counting(struct):
            calls.append(struct)
            return fresh_validate(struct)

        monkeypatch.setattr(parity_core, "_validate", counting)
        struct = oriental(3)
        enumerated = cells.enumerate_cells(struct, 2)
        for t in enumerated[-3:]:
            cells.excision_decompose(struct, t)
            assert cells.validate_cell(struct, t) == (True, None)
            assert cells.generated_by_atoms(struct, t) is not None
        cells.atom_closure(struct, 2)
        # the parity structure, once: the weak gate and excision share its
        # report, and excision reads additive globularity as dd = 0
        assert calls == [struct]

    def test_excision_checks_the_additive_view(self):
        # subset-globular, not additively globular (the faces are not
        # well-formed): excision works on the complex, so it refuses
        s = ParityStructure.build(
            [
                ("p", 0, [], []), ("q", 0, [], []),
                ("a", 1, ["p"], ["q"]),
                ("b", 1, ["p"], ["q"]),
                ("c", 1, ["p"], ["q"]),
                ("F", 2, ["a", "b"], ["c"]),
            ]
        )
        assert validate(s).globular
        with pytest.raises(StructureError, match="globular=False"):
            cells.excision_decompose(s, cells.atom(s, s.gen("a")))

    @settings(deadline=None)
    @given(kind=st.sampled_from(["parity", "additive"]), seed=st.integers(0, 2**32 - 1))
    def test_cached_complex_equals_a_fresh_one(self, kind, seed):
        struct = randstruct.random_structure(kind, random.Random(seed))
        complex_, again = from_structure(struct), from_structure(struct)
        assert complex_._table is again._table is struct._table and again.structure is struct
        copy = skeleton(struct, struct.max_dim)
        assert copy == struct and copy is not struct
        fresh = FreeDirectedComplex(copy)
        assert complex_.structure is struct and fresh.structure is copy
        assert complex_.augmented == fresh.augmented
        gens = [g for g in struct.all_generators() if g.dim >= 1]
        assert [complex_.boundary_of(g) for g in gens] == [fresh.boundary_of(g) for g in gens]
        assert all(complex_.boundary_of(g) == again.boundary_of(g) for g in gens)
        assert validate(complex_.structure).to_payload() == validate(fresh.structure).to_payload()
