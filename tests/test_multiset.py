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
        assert ms(a=1).disjoint_union(ms(b=1)) == ms(a=1, b=1)

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
        assert (s - s).is_empty()

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
        assert meet.is_empty() and join == s

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
        neg, pos = SignedVector.zero(3).parts()
        assert neg.is_empty() and pos.is_empty()

    def test_coefficients(self):
        v = SignedVector(1, {B: -2, A: 1})
        neg, pos = v.parts()
        assert neg == ms(b=2) and pos == ms(a=1)

    @given(multisets, multisets)
    def test_parts_inverts_from_parts_on_disjoint_pairs(self, m, p):
        m, p = m - p, p - m  # force disjoint supports
        neg, pos = SignedVector.from_parts(m, p).parts()
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
        assert (s <= t) == (s - t).is_empty()


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
        assert Multiset.tally(1, [A, B, A]) == ms(a=2, b=1)

    def test_subset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Multiset.subset(1, [A, A])

    def test_str_forms(self):
        assert str(Multiset.empty(0)) == "{}"
        assert str(ms(a=1, b=2)) == "{a, b:2}"
        assert str(SignedVector(1, {A: 1, B: -1})) == "+a -b"
