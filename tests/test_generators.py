import random
from functools import partial
from math import comb

import pytest

import randstruct
from paritykit.cells import atom_closure, enumerate_cells
from paritykit.chain import check_complex, from_structure
from paritykit.generators import GLOBE_MAX, ORIENTAL_MAX, _join, _tensor, cube, family, globe, oriental
from paritykit.multiset import GeneratorId, Multiset, SignedVector
from paritykit.parity_core import CLASS_PARITY_COMPLEX, ParityStructure, StructureError, validate


def names(gens):
    return sorted(g.name for g in gens)


class TestGlobe:
    def test_sizes(self):
        for n in range(7):
            assert len(globe(n)) == 2 * n + 1

    def test_globe0_single_generator(self):
        s = globe(0)
        assert names(s.generators(0)) == ["top"]

    def test_faces_are_singleton_chains(self):
        s = globe(3)
        top = s.gen("top")
        assert names(s.neg(top)) == ["e2-"]
        assert names(s.pos(top)) == ["e2+"]
        e2m = s.gen("e2-")
        assert names(s.neg(e2m)) == ["e1-"]
        assert names(s.pos(e2m)) == ["e1+"]

    def test_bound(self):
        with pytest.raises(ValueError, match=r"^globe\(17\) exceeds the bound 16$"):
            globe(17)
        assert globe(GLOBE_MAX).max_dim == 16
        for build in (globe, oriental, cube, partial(family, "globe")):
            with pytest.raises(TypeError):
                build(1, bound=20)  # the bounds are fixed


class TestOriental:
    def test_generator_counts_match_binomials(self):
        for n in range(6):
            s = oriental(n)
            for k in range(n + 1):
                assert len(s.generators(k)) == comb(n + 1, k + 1)

    def test_one_simplex_orientation_forced(self):
        s = oriental(1)
        g = s.gen("01")
        assert names(s.neg(g)) == ["0"]
        assert names(s.pos(g)) == ["1"]

    def test_triangle_faces(self):
        s = oriental(2)
        g = s.gen("012")
        assert names(s.neg(g)) == ["02"]
        assert names(s.pos(g)) == ["01", "12"]

    def test_faces_are_parts_of_the_simplicial_boundary(self):
        # independent oracle: alternating-sign boundary, then positive/negative parts
        for n in (2, 3, 4):
            s = oriental(n)
            for g in s.all_generators():
                if g.dim == 0:
                    continue
                entries = {}
                for i in range(len(g.name)):
                    face = GeneratorId(g.dim - 1, g.name[:i] + g.name[i + 1:])
                    entries[face] = entries.get(face, 0) + (1 if i % 2 == 0 else -1)
                neg, pos = SignedVector(g.dim - 1, entries).parts()
                assert neg == Multiset(g.dim - 1, [(h, 1) for h in s.neg(g)])
                assert pos == Multiset(g.dim - 1, [(h, 1) for h in s.pos(g)])

    def test_bound(self):
        with pytest.raises(ValueError):
            oriental(8)

    def test_vertex_names_are_single_digits(self):
        assert names(oriental(ORIENTAL_MAX).generators(0)) == list("01234567")
        for n in (9, 10):
            with pytest.raises(ValueError, match=rf"^oriental\({n}\) exceeds the bound 7$"):
                oriental(n)


class TestCube:
    def test_generator_counts(self):
        for n in range(5):
            s = cube(n)
            for k in range(n + 1):
                assert len(s.generators(k)) == comb(n, k) * 2 ** (n - k)

    def test_interval_orientation_forced(self):
        s = cube(1)
        g = s.gen("*")
        assert names(s.neg(g)) == ["0"]
        assert names(s.pos(g)) == ["1"]

    def test_square_faces(self):
        s = cube(2)
        g = s.gen("**")
        assert names(s.neg(g)) == ["*1", "0*"]
        assert names(s.pos(g)) == ["*0", "1*"]

    def test_faces_are_parts_of_the_tensor_boundary(self):
        # independent oracle: Koszul signs over star positions
        for n in (2, 3):
            s = cube(n)
            for g in s.all_generators():
                if g.dim == 0:
                    continue
                word = g.name
                entries = {}
                star = 0
                for i, ch in enumerate(word):
                    if ch != "*":
                        continue
                    star += 1
                    sign = 1 if star % 2 == 1 else -1
                    for bit, bit_sign in (("1", 1), ("0", -1)):
                        face = GeneratorId(g.dim - 1, word[:i] + bit + word[i + 1:])
                        coeff = sign * bit_sign
                        entries[face] = entries.get(face, 0) + coeff
                neg, pos = SignedVector(g.dim - 1, entries).parts()
                assert neg == Multiset(g.dim - 1, [(h, 1) for h in s.neg(g)])
                assert pos == Multiset(g.dim - 1, [(h, 1) for h in s.pos(g)])

    def test_cube0_named_e(self):
        assert names(cube(0).generators(0)) == ["e"]

    def test_bound(self):
        with pytest.raises(ValueError):
            cube(7)


class TestFamilies:
    def test_dispatch(self):
        assert family("globe", 2) == globe(2)
        assert family("oriental", 2) == oriental(2)
        assert family("cube", 2) == cube(2)
        with pytest.raises(ValueError):
            family("torus", 2)

    def test_small_families_are_parity_complexes(self):
        for build, n_max in ((globe, 3), (oriental, 3), (cube, 3)):
            for n in range(n_max + 1):
                struct = build(n)
                assert validate(struct).classification == "parity complex"
                report = check_complex(from_structure(struct))
                assert report.dd_zero and report.normal and report.unital

    def test_oriental_skeleta_validate_identically(self):
        s = oriental(4)
        from paritykit.parity_core import skeleton

        for k in range(5):
            assert validate(skeleton(s, k)).classification == "parity complex"


def rows(struct, prefix):
    """A structure's build rows, with every name prefixed."""
    out = []
    for g in struct.all_generators():
        neg, pos = (struct.neg(g), struct.pos(g)) if g.dim else ((), ())
        out.append((prefix + g.name, g.dim, [prefix + f.name for f in neg], [prefix + f.name for f in pos]))
    return out


def parity_complex_pairs(count):
    """The pairs among `count` seeded random factor pairs whose factors are
    both parity complexes, as build rows prefixed "a" and "b"."""
    rng = random.Random(5)
    pairs = [[randstruct.random_structured_parity(rng, max_gens=6) for _ in range(2)] for _ in range(count)]
    return [
        (rows(a, "a"), rows(b, "b"))
        for a, b in pairs
        if validate(a).classification == validate(b).classification == CLASS_PARITY_COMPLEX
    ]


class TestProducts:
    """Tensor products and joins of random parity complexes are parity
    complexes, on which enumeration and atom closure agree."""

    def test_products_of_parity_complexes_are_parity_complexes(self):
        pairs = parity_complex_pairs(60)
        assert len(pairs) >= 50
        dims = set()
        for a, b in pairs:
            for product in (_tensor, _join):
                struct = ParityStructure.build(product(a, b))
                dims.add(struct.max_dim)
                assert validate(struct).classification == CLASS_PARITY_COMPLEX
                report = check_complex(from_structure(struct))
                assert report.dd_zero and report.normal and report.unital
        assert max(dims) >= 4

    def test_enumeration_equals_closure_on_products(self):
        for a, b in parity_complex_pairs(20):
            for product in (_tensor, _join):
                struct = ParityStructure.build(product(a, b))
                assert set(enumerate_cells(struct, struct.max_dim)) == set(atom_closure(struct, struct.max_dim))

    def test_rows_of_small_products(self):
        # a point's boundary is its augmentation: p * q is an edge p -> q
        edge = _join([("p", 0, [], [])], [("q", 0, [], [])])
        assert edge == [("p", 0, [], []), ("q", 0, [], []), ("pq", 1, ["p"], ["q"])]
        assert ("pqr", 2, ["pr"], ["qr", "pq"]) in _join(edge, [("r", 0, [], [])])
        # Koszul sign: the faces of the right factor swap after an odd left factor
        square = _tensor(edge, [("0", 0, [], []), ("1", 0, [], []), ("*", 1, ["0"], ["1"])])
        assert ("pq*", 2, ["p*", "pq1"], ["q*", "pq0"]) in square

    def test_join_of_factors_sharing_a_name_raises(self):
        a, _ = parity_complex_pairs(1)[0]
        with pytest.raises(StructureError, match="duplicate"):
            ParityStructure.build(_join(a, a))
