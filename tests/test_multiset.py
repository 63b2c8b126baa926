import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritykit.multiset import (
    MAX_COUNT,
    DimensionMismatchError,
    GeneratorId,
    Multiset,
    SignedVector,
)

A = GeneratorId(1, "a")
B = GeneratorId(1, "b")
C = GeneratorId(1, "c")


def ms(**counts):
    return Multiset(1, {GeneratorId(1, name): c for name, c in counts.items()})


names = st.sampled_from(["a", "b", "c", "d", "e"])
multisets = st.dictionaries(names, st.integers(min_value=1, max_value=5), max_size=5).map(
    lambda d: Multiset(1, {GeneratorId(1, n): c for n, c in d.items()})
)


class TestGeneratorId:
    def test_ordering_is_dim_then_name(self):
        assert GeneratorId(0, "z") < GeneratorId(1, "a") < GeneratorId(1, "b")

    def test_name_check_matches_the_per_character_predicate(self):
        # every code point, against the whitespace-or-unprintable test
        # the constructor used to run character by character
        def old_valid(c):
            return not (c.isspace() or not c.isprintable())

        differ = []
        for cp in range(0x110000):
            try:
                GeneratorId(0, chr(cp))
                valid = True
            except ValueError:
                valid = False
            if valid != old_valid(chr(cp)):
                differ.append(hex(cp))
        assert differ == []
        assert GeneratorId(0, "é→x").name == "é→x"

    def test_both_messages_are_kept(self):
        with pytest.raises(ValueError, match="generator name must be a non-empty printable token"):
            GeneratorId(0, "a\u2028b")
        with pytest.raises(ValueError, match="generator dimension must be >= 0"):
            GeneratorId(-1, "a")

    def test_rejects_bad_names(self):
        for bad in ("", "a b", "a\tb", "x\n", " ", "a\x00b"):
            with pytest.raises(ValueError):
                GeneratorId(0, bad)
        for dim in (-1, -7):
            with pytest.raises(ValueError):
                GeneratorId(dim, "a")

    @given(st.lists(st.tuples(st.integers(0, 4), st.text("ab01+-", min_size=1, max_size=3))))
    def test_sorting_matches_dim_then_name(self, pairs):
        ids = [GeneratorId(dim, name) for dim, name in pairs]
        assert [(g.dim, g.name) for g in sorted(ids)] == sorted(pairs)

    def test_equal_ids_hash_equal(self):
        g, h = GeneratorId(1, "a"), GeneratorId(dim=1, name="a")
        assert g == h and hash(g) == hash(h)
        assert g == (1, "a") and hash(g) == hash((1, "a"))
        assert g != GeneratorId(2, "a") and g != GeneratorId(1, "b")

    def test_immutable(self):
        g = GeneratorId(1, "a")
        with pytest.raises(AttributeError):
            g.dim = 2
        with pytest.raises(AttributeError):
            g.name = "b"
        with pytest.raises(AttributeError):
            g.extra = 0
        assert (g.dim, g.name) == (1, "a")

    def test_repr_and_str(self):
        assert repr(GeneratorId(1, "a")) == "GeneratorId(dim=1, name='a')"
        assert repr(GeneratorId(0, "e0+")) == "GeneratorId(dim=0, name='e0+')"
        assert str(GeneratorId(2, "012")) == "012"

    def test_pickle_and_copy(self):
        g = GeneratorId(3, "0123")
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        clones = [pickle.loads(pickle.dumps(g, protocol)) for protocol in protocols]
        clones += [copy.copy(g), copy.deepcopy(g), copy.deepcopy([g])[0]]
        for clone in clones:
            assert clone == g and type(clone) is GeneratorId
            assert (clone.dim, clone.name) == (3, "0123")


class TestDisjointUnion:
    def test_pointwise_addition(self):
        assert ms(a=1) + ms(a=1, b=1) == ms(a=2, b=1)

    def test_empty_is_unit(self):
        s = ms(a=2, c=1)
        assert Multiset.empty(1) + s == s

    def test_disjoint_supports(self):
        assert ms(a=1) + ms(b=1) == ms(a=1, b=1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ms(a=1) + Multiset.empty(2)

    def test_overflow_detected(self):
        big = Multiset(1, {A: MAX_COUNT})
        with pytest.raises(OverflowError):
            big + Multiset(1, {A: 1})


class TestDifference:
    def test_truncated_subtraction(self):
        assert ms(a=2, b=1) - ms(a=1, c=3) == ms(a=1, b=1)

    def test_self_difference_is_empty(self):
        s = ms(a=3, b=1)
        assert not s - s

    def test_partial_overlap(self):
        assert ms(a=1, b=1).difference(ms(b=1, c=1)) == ms(a=1)


class TestMeetJoin:
    def test_meet_and_join(self):
        meet, join = ms(a=2, b=1).meet(ms(a=1, c=1)), ms(a=2, b=1).join(ms(a=1, c=1))
        assert meet == ms(a=1)
        assert join == ms(a=2, b=1, c=1)

    def test_with_empty(self):
        s = ms(a=1, b=2)
        meet, join = s.meet(Multiset.empty(1)), s.join(Multiset.empty(1))
        assert not meet and join == s

    def test_disjointness_via_meet(self):
        assert ms(a=1).disjoint(ms(c=1))
        assert not ms(a=1).disjoint(ms(a=2))


class TestParts:
    def test_two_simplex_boundary(self):
        # boundary of the 2-simplex generator: +01 -02 +12
        g01, g02, g12 = (GeneratorId(1, n) for n in ("01", "02", "12"))
        v = SignedVector(1, {g01: 1, g02: -1, g12: 1})
        neg, pos = v.parts()
        assert neg == Multiset(1, {g02: 1})
        assert pos == Multiset(1, {g01: 1, g12: 1})

    def test_zero_vector(self):
        neg, pos = SignedVector(3).parts()
        assert not neg and not pos

    def test_coefficients(self):
        v = SignedVector(1, {B: -2, A: 1})
        neg, pos = v.parts()
        assert neg == ms(b=2) and pos == ms(a=1)

    @given(multisets, multisets)
    def test_parts_inverts_from_parts_on_disjoint_pairs(self, m, p):
        m, p = m - p, p - m  # force disjoint supports
        neg, pos = (p.to_vector() - m.to_vector()).parts()
        assert (neg, pos) == (m, p)


class TestRadical:
    def test_examples(self):
        assert ms(a=1, b=1).is_radical()
        assert not ms(a=2).is_radical()
        assert Multiset.empty(1).is_radical()

    def test_radical_union_iff_pairwise_disjoint(self):
        family = [ms(a=1), ms(b=1, c=1), ms(a=1, c=1)]
        total = Multiset.empty(1)
        for s in family:
            total = total + s
        pairwise_disjoint = all(
            family[i].disjoint(family[j]) for i in range(3) for j in range(i + 1, 3)
        )
        assert not pairwise_disjoint and not total.is_radical()
        assert (ms(a=1) + ms(b=1, c=1)).is_radical()


class TestMonoidLaws:
    @given(multisets, multisets)
    def test_commutative(self, s, t):
        assert s + t == t + s

    @given(multisets, multisets, multisets)
    def test_associative(self, s, t, u):
        assert (s + t) + u == s + (t + u)

    @given(multisets, multisets)
    def test_difference_meet_partition(self, s, t):
        assert (s - t) + s.meet(t) == s

    @given(multisets, multisets)
    def test_le_agrees_with_difference(self, s, t):
        assert (s <= t) == (not s - t)


class TestConstruction:
    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            Multiset(1, {A: 0})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Multiset(1, {A: -1})

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Multiset(1, {GeneratorId(2, "x"): 1})

    def test_signed_vector_drops_zeros(self):
        v = SignedVector(1, {A: 0, B: 2})
        assert v.items() == ((B, 2),)

    def test_tally_counts(self):
        assert Multiset.of(A, B, A) == ms(a=2, b=1)

    def test_subset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Multiset.subset(1, [A, A])

    def test_str_forms(self):
        assert str(Multiset.empty(0)) == "{}"
        assert str(ms(a=1, b=2)) == "{a, b:2}"
        assert str(SignedVector(1, {A: 1, B: -1})) == "+a -b"


X2 = GeneratorId(2, "x")
TOO_BIG = MAX_COUNT + 1


def raised(cls, dim, entries):
    """The (type, text) of the error a constructor raises."""
    with pytest.raises(Exception) as info:
        cls(dim, entries)
    return info.type, str(info.value)


class TestConstructorContract:
    """Both constructors' errors: type, exact text, and which fault wins."""

    def test_multiset_faults(self):
        assert raised(Multiset, 1, {A: 0}) == (ValueError, "count for 'a' must be positive, got 0")
        assert raised(Multiset, 1, {A: -1}) == (ValueError, "count for 'a' must be positive, got -1")
        assert raised(Multiset, 1, {A: TOO_BIG}) == (OverflowError, f"count for 'a' exceeds {MAX_COUNT}")
        assert raised(Multiset, 1, [(A, 1), (A, 1)]) == (ValueError, "duplicate generator 'a'")
        assert raised(Multiset, 1, {X2: 1}) == (
            DimensionMismatchError, "generator 'x' has dimension 2, expected 1"
        )
        assert raised(Multiset, -1, {}) == (ValueError, "dimension must be >= 0, got -1")
        assert Multiset(1, {A: MAX_COUNT}).count(A) == MAX_COUNT

    def test_signed_vector_faults(self):
        assert SignedVector(1, {A: 0}) == SignedVector(1)
        assert SignedVector(1, {A: -1}).items() == ((A, -1),)
        for value in (TOO_BIG, -TOO_BIG):
            assert raised(SignedVector, 1, {A: value}) == (OverflowError, f"entry for 'a' exceeds {MAX_COUNT}")
        assert SignedVector(1, {A: -MAX_COUNT}).items() == ((A, -MAX_COUNT),)
        assert raised(SignedVector, 1, [(A, 1), (A, -1)]) == (ValueError, "duplicate generator 'a'")
        assert raised(SignedVector, 1, {X2: 1}) == (
            DimensionMismatchError, "generator 'x' has dimension 2, expected 1"
        )
        assert raised(SignedVector, -1, {}) == (ValueError, "dimension must be >= 0, got -1")

    def test_which_fault_wins(self):
        # the dimension first, then entries in the given order; within
        # one entry its grading, then a repeat, then its value
        for cls in (Multiset, SignedVector):
            assert raised(cls, -1, {X2: 0}) == (ValueError, "dimension must be >= 0, got -1")
            assert raised(cls, 1, [(X2, 0)])[0] is DimensionMismatchError
            assert raised(cls, 1, [(A, 1), (A, TOO_BIG)]) == (ValueError, "duplicate generator 'a'")
            assert raised(cls, 1, [(A, 1), (A, 0)]) == (ValueError, "duplicate generator 'a'")
        assert raised(Multiset, 1, [(A, 0), (X2, 1)]) == (ValueError, "count for 'a' must be positive, got 0")
        assert raised(Multiset, 1, [(A, TOO_BIG), (B, 0)])[0] is OverflowError
        assert raised(Multiset, 1, [(A, -TOO_BIG)]) == (
            ValueError, f"count for 'a' must be positive, got {-TOO_BIG}"
        )
        # a zero entry is dropped, so the next entry's fault is the first
        assert raised(SignedVector, 1, [(A, 0), (X2, 1)])[0] is DimensionMismatchError
        assert raised(SignedVector, 1, [(A, TOO_BIG), (X2, 1)])[0] is OverflowError

    def test_a_repeated_zero_entry_is_a_repeat(self):
        # in either order, as [(a, 1), (a, 0)] is
        for entries in ([(A, 0), (A, 1)], [(A, 0), (A, 0)], [(A, 0), (B, 1), (A, -1)]):
            assert raised(SignedVector, 1, entries) == (ValueError, "duplicate generator 'a'")
        assert SignedVector(1, [(A, 0), (B, 1)]) == SignedVector(1, {B: 1})

    def test_iterables_and_mappings_agree(self):
        for cls in (Multiset, SignedVector):
            assert cls(1, [(B, 2), (A, 1)]) == cls(1, {A: 1, B: 2})
            assert cls(1, iter([(A, 3)])) == cls(1, {A: 3})


class TestValueClasses:
    def test_no_equality_across_classes(self):
        m, v = Multiset(1, {A: 1}), SignedVector(1, {A: 1})
        assert m != v and v != m
        assert not (m == v) and not (v == m)
        assert m.to_vector() == v and v.parts()[1] == m

    def test_equality_needs_the_same_dimension(self):
        assert Multiset.empty(1) != Multiset.empty(2)
        assert SignedVector(1) != SignedVector(2)

    def test_immutable(self):
        for value, text in ((ms(a=1), "Multiset is immutable"), (SignedVector(1, {A: 1}), "SignedVector is immutable")):
            for name in ("_dim", "_items", "_hash", "dim", "extra"):
                with pytest.raises(AttributeError, match=f"^{text}$"):
                    setattr(value, name, 0)

    def test_equal_values_hash_equal(self):
        for cls in (Multiset, SignedVector):
            x, y = cls(1, {A: 1, B: 2}), cls(1, [(B, 2), (A, 1)])
            assert x == y and hash(x) == hash(y)
            assert len({x, y, cls(1, {B: 2, A: 1})}) == 1
        assert hash(SignedVector(1, {A: 0, B: 1})) == hash(SignedVector(1, {B: 1}))

    def test_repr_and_sort_key(self):
        assert repr(ms(b=2, a=1)) == "Multiset(1, {'a': 1, 'b': 2})"
        assert repr(SignedVector(1, {B: -2, A: 1})) == "SignedVector(1, {'a': 1, 'b': -2})"
        assert ms(b=2, a=1).sort_key() == (("a", 1), ("b", 2))
        assert SignedVector(1, {B: -2, A: 1}).sort_key() == (("a", 1), ("b", -2))
        assert ms(a=1).items() == ((A, 1),) and ms(a=1).dim == 1

    def test_signed_vector_arithmetic(self):
        v, w = SignedVector(1, {A: 2, B: -1}), SignedVector(1, {A: 2, C: 3})
        assert v - w == SignedVector(1, {B: -1, C: -3})
        assert (v - v).is_zero() and v - SignedVector(1) == v
        assert -v == SignedVector(1, {A: -2, B: 1}) and -(-v) == v
        assert v + w == SignedVector(1, {A: 4, B: -1, C: 3})
        with pytest.raises(DimensionMismatchError):
            v - SignedVector(2)
        with pytest.raises(OverflowError):
            SignedVector(1, {A: -MAX_COUNT}) - SignedVector(1, {A: 1})

    def test_signed_vector_from_parts_and_parts(self):
        # overlapping parts cancel
        v = ms(a=1, c=1).to_vector() - ms(a=2, b=1).to_vector()
        assert v == SignedVector(1, {A: -1, B: -1, C: 1})
        assert v.parts() == (ms(a=1, b=1), ms(c=1))
        assert (ms(a=1).to_vector() - ms(a=1).to_vector()).is_zero()
        with pytest.raises(DimensionMismatchError):
            Multiset.empty(2).to_vector() - ms(a=1).to_vector()


def _pickle_and_copy_clones(value):
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
    return clones + [copy.copy(value), copy.deepcopy(value), copy.deepcopy([value])[0]]


class TestValuesPickleAndCopy:
    def test_multiset_signed_vector_and_cell_table(self):
        from paritykit.cells import CellTable

        p, q = GeneratorId(0, "p"), GeneratorId(0, "q")
        column = Multiset(0, {p: 1})
        values = [
            ms(a=2, b=1),
            Multiset.empty(3),
            SignedVector(1, {A: -2, C: 1}),
            SignedVector(0),
            CellTable([column, Multiset(1, {A: 1})], [Multiset(0, {q: 1}), Multiset(1, {A: 1})]),
        ]
        for value in values:
            for clone in _pickle_and_copy_clones(value):
                assert type(clone) is type(value)
                assert clone == value and hash(clone) == hash(value)
                assert str(clone) == str(value) and repr(clone) == repr(value)
                with pytest.raises(AttributeError, match="is immutable"):
                    clone._hash = 0
