"""The public contract of CellTable, whichever way a table was made.

A table comes from enumeration, atom closure, atom (a point's atom is
its 0-cell), the cell operations, a fixture, the public constructor, pickling or copying.
Tables with the same columns are equal, hash equal and stand for each
other as dict keys, over a parity structure and over its additive view
alike, and they have the same text, sort key and subset flag.
"""

import copy
import pickle
import random

import pytest

from conftest import lift, load_fixture
from paritykit import cells, fixtures
from paritykit.cells import CellTable
from paritykit.generators import cube, globe, oriental
from paritykit.multiset import GeneratorId, Multiset

pytestmark = pytest.mark.frozen


def rebuilt(t):
    return CellTable(t.neg, t.pos)


def loaded(t):
    return fixtures.loads(fixtures.dumps(t, name="c")).value


def clones(t):
    out = [pickle.loads(pickle.dumps(t, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return out + [copy.copy(t), copy.deepcopy(t), copy.deepcopy([t])[0]]


def every_way(t):
    """The same cell made by the constructor, a fixture, pickling and copying."""
    return [rebuilt(t), loaded(t), *clones(t)]


def same_table(u, t):
    assert type(u) is CellTable
    assert u == t and t == u and not u != t and hash(u) == hash(t)
    assert (u.dim, u.neg, u.pos, u.top, u.is_identity()) == (t.dim, t.neg, t.pos, t.top, t.is_identity())
    assert str(u) == str(t) and repr(u) == repr(t) and u.sort_key() == t.sort_key()
    assert u.is_subset_columned() == t.is_subset_columned()


def weak_not_strong():
    return load_fixture("weak_not_strong").value


#: (name, structure factory, max_dim)
CASES = [
    ("globe2", lambda: globe(2), 3),
    ("oriental3", lambda: oriental(3), 3),
    ("cube2", lambda: cube(2), 2),
    ("weak_not_strong", weak_not_strong, 2),
]


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def case(request):
    _, make, max_dim = request.param
    struct = make()
    return struct, max_dim, cells.enumerate_cells(struct, max_dim)


def sample(tables, count=12):
    rng = random.Random(len(tables))
    return rng.sample(tables, min(count, len(tables)))


class TestEqualityAndHash:
    def test_every_way_of_making_a_cell_gives_the_same_table(self, case):
        _, _, enumerated = case
        for t in enumerated:
            for u in every_way(t):
                same_table(u, t)

    def test_closure_keys_are_the_enumerated_cells(self, case):
        struct, max_dim, enumerated = case
        closure = cells.atom_closure(struct, max_dim)
        assert sorted(closure, key=CellTable.sort_key) == enumerated
        for t in enumerated:
            key = next(k for k in closure if k == t)
            same_table(key, t)
            for u in (t, rebuilt(t), loaded(t)):
                assert u in closure and closure[u] is closure[t]

    def test_mixed_tables_as_dict_keys_and_set_members(self, case):
        _, _, enumerated = case
        by_table = {rebuilt(t): i for i, t in enumerate(enumerated)}
        assert [by_table[t] for t in enumerated] == list(range(len(enumerated)))
        assert [by_table[loaded(t)] for t in enumerated] == list(range(len(enumerated)))
        mixed = set(enumerated) | {rebuilt(t) for t in enumerated} | {loaded(t) for t in enumerated}
        assert len(mixed) == len(enumerated)

    def test_the_hash_reads_the_negative_row_only(self):
        # a cell's negative row fixes its positive row, so only tables that
        # are not both cells share a negative row, and == tells them apart
        o1 = oriental(1)
        zero, one, edge = (Multiset.of(o1.gen(n)) for n in ("0", "1", "01"))
        cell, other = CellTable([zero, edge], [one, edge]), CellTable([zero, edge], [zero, edge])
        assert cells.validate_cell(o1, cell)[0] and not cells.validate_cell(o1, other)[0]
        assert cell != other and hash(cell) == hash(other) == hash(cells.atom(o1, o1.gen("01")))
        keyed = {cell: "cell", other: "other"}
        assert len(keyed) == 2 and (keyed[cell], keyed[other], keyed[rebuilt(other)]) == ("cell", "other", "other")
        assert len({cell, other, rebuilt(cell), rebuilt(other)}) == 2

    def test_over_the_additive_view(self, case):
        struct, max_dim, enumerated = case
        additive = struct.to_additive()
        over_additive = cells.enumerate_cells(additive, max_dim)
        assert over_additive == enumerated
        assert [hash(t) for t in over_additive] == [hash(t) for t in enumerated]
        closure = cells.atom_closure(additive, max_dim)
        assert all(t in closure for t in enumerated)
        for g in struct.all_generators():
            same_table(cells.atom(additive, g), cells.atom(struct, g))

    def test_over_an_equal_structure_built_again(self):
        first, second = oriental(3), oriental(3)
        assert first is not second and first._table is not second._table
        a, b = cells.enumerate_cells(first, 3), cells.enumerate_cells(second, 3)
        for s, t in zip(a, b):
            same_table(s, t)
        assert all(t in cells.atom_closure(first, 3) for t in b)

    def test_distinct_cells_are_unequal(self, case):
        _, _, enumerated = case
        assert len(set(enumerated)) == len(enumerated)
        keys = [t.sort_key() for t in enumerated]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for s, t in zip(enumerated, enumerated[1:]):
            assert s != t and s != rebuilt(t) and rebuilt(s) != t

    def test_cells_of_structures_with_other_names(self):
        point = cells.atom(globe(0), globe(0).gen("top"))
        other = Multiset.of(GeneratorId(0, "elsewhere"))
        assert point != CellTable([other], [other])
        assert point == CellTable([Multiset.of(GeneratorId(0, "top"))], [Multiset.of(GeneratorId(0, "top"))])

    def test_other_types_are_not_equal(self, case):
        _, _, enumerated = case
        t = enumerated[-1]
        assert t != t.neg and t != (t.neg, t.pos) and t != str(t)
        assert t.__eq__(0) is NotImplemented

    def test_operations_agree_across_kinds(self, case):
        _, _, enumerated = case
        for t in sample(enumerated):
            u = loaded(t)
            same_table(cells.identity(u), cells.identity(t))
            for k in range(t.dim):
                for sign in ("source", "target"):
                    same_table(cells.face(u, k, sign), cells.face(t, k, sign))
                for x, y in ((t, lift(cells.face(t, k, "target"), t.dim)),
                             (lift(cells.face(t, k, "source"), t.dim), t)):
                    whole = cells.compose(x, y, k)
                    assert whole == t
                    for left, right in ((loaded(x), y), (x, loaded(y)), (loaded(x), loaded(y))):
                        same_table(cells.compose(left, right, k), whole)


class TestPickleAndCopy:
    def test_tables_of_every_origin(self, case):
        struct, max_dim, enumerated = case
        closure = list(cells.atom_closure(struct, max_dim))
        made = [cells.atom(struct, g) for g in struct.all_generators()]
        for t in sample(enumerated):
            made.append(cells.identity(t))
            made += [cells.face(t, k, "target") for k in range(t.dim)]
        for t in sample(enumerated) + sample(closure) + made:
            for u in clones(t):
                same_table(u, t)
                with pytest.raises(AttributeError, match="is immutable"):
                    u._rows = ((), ())
            with pytest.raises(AttributeError, match="is immutable"):
                t.dim = 0

    def test_unpickled_tables_compose_with_enumerated_ones(self):
        o2 = oriental(2)
        a01, a12 = (cells.atom(o2, o2.gen(n)) for n in ("01", "12"))
        path = cells.compose(a01, a12, 0)
        for x in clones(a01):
            same_table(cells.compose(x, a12, 0), path)


class TestTextAndKeys:
    def test_str_and_repr_of_a_triangle_atom(self):
        o2 = oriental(2)
        t = cells.atom(o2, o2.gen("012"))
        text = "({0}, {02}, {012}; {2}, {01, 12}, {012})"
        for u in (t, *every_way(t)):
            assert str(u) == text and repr(u) == f"CellTable({text})"
        lifted = cells.identity(cells.atom(o2, o2.gen("1")))
        assert str(lifted) == "({1}, {}; {1}, {})"

    def test_str_of_a_multiset_column(self):
        p = GeneratorId(0, "p")
        t = CellTable([Multiset(0, {p: 2})], [Multiset(0, {p: 2})])
        assert str(t) == "({p:2}; {p:2})" and repr(t) == "CellTable(({p:2}; {p:2}))"

    def test_sort_key(self):
        o2 = oriental(2)
        t = cells.atom(o2, o2.gen("012"))
        want = (2, ((("0", 1),), (("02", 1),), (("012", 1),)), ((("2", 1),), (("01", 1), ("12", 1)), (("012", 1),)))
        assert t.sort_key() == want
        assert all(u.sort_key() == want for u in every_way(t))
        enumerated = cells.enumerate_cells(o2, 2)
        assert sorted(map(rebuilt, enumerated), key=CellTable.sort_key) == enumerated

    @pytest.mark.parametrize("make, max_dim", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_sort_key_of_mask_rows_builds_no_column(self, make, max_dim):
        # a table on mask rows keys its columns as the same table on
        # Multisets does, straight from the set bits of its masks
        struct = make()
        made = cells.enumerate_cells(struct, max_dim) + [cells.atom(struct, g) for g in struct.all_generators()]
        made += [cells.identity(t) for t in made[::7]] + [cells.face(t, 0, "target") for t in made if t.dim]
        keys = [t.sort_key() for t in made]
        assert not any(struct._table.columns.values())  # no dimension's cache holds a column
        assert keys == [(t.dim, tuple(m.sort_key() for m in t.neg), tuple(p.sort_key() for p in t.pos)) for t in made]
        assert keys == [rebuilt(t).sort_key() for t in made]
        enumerated = cells.enumerate_cells(struct, max_dim)
        assert sorted(reversed(enumerated), key=CellTable.sort_key) == enumerated

    def test_is_subset_columned(self, case):
        struct, max_dim, enumerated = case
        closure = cells.atom_closure(struct, max_dim)
        for t in (*enumerated, *closure):
            assert t.is_subset_columned() and rebuilt(t).is_subset_columned()
        for t in sample(enumerated):
            assert cells.identity(t).is_subset_columned() and loaded(t).is_subset_columned()
        p = GeneratorId(0, "p")
        assert not CellTable([Multiset(0, {p: 2})], [Multiset(0, {p: 2})]).is_subset_columned()

    def test_columns_are_multisets(self, case):
        _, _, enumerated = case
        for t in sample(enumerated):
            assert isinstance(t.neg, tuple) and isinstance(t.pos, tuple)
            assert all(type(c) is Multiset and c.dim == k for row in (t.neg, t.pos) for k, c in enumerate(row))
            assert t.top is t.neg[-1] or t.top == t.neg[-1] == t.pos[-1]
