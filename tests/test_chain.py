import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import randstruct
from paritykit.chain import (
    AugmentationMissingError,
    check_complex,
    extract_structure,
    from_structure,
)
from paritykit.generators import oriental
from paritykit.morphisms import ChainMap
from paritykit.multiset import MAX_COUNT, Multiset, SignedVector
from paritykit.parity_core import AdditiveParityStructure, ParityStructure, is_well_formed, iterated_boundaries


def vec(struct, dim, **entries):
    return SignedVector(dim, {struct.gen(n, dim): v for n, v in entries.items()})


class TestFromStructure:
    def test_oriental2_boundary_and_augmentation(self, oriental2):
        K = from_structure(oriental2)
        g = oriental2.gen("012")
        assert K.boundary_of(g) == vec(oriental2, 1, **{"01": 1, "02": -1, "12": 1})
        assert K.augmented
        for v in oriental2.generators(0):
            assert K.augmentation(Multiset.of(v)) == 1

    def test_globe1_boundary(self, globe1):
        K = from_structure(globe1)
        assert K.boundary_of(globe1.gen("top")) == vec(
            globe1, 0, **{"e0+": 1, "e0-": -1}
        )

    def test_non_normal_has_no_augmentation(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1, "w": 1}, {})]
        )
        K = from_structure(s)
        assert not K.augmented
        with pytest.raises(AugmentationMissingError):
            K.augmentation(Multiset.of(s.gen("v")))


class TestViewsHoldNoCycle:
    """A complex is a view whose data lives on the face table, so a
    structure that reached the chain layer is freed by reference
    counting alone, with the cyclic collector off."""

    @pytest.mark.parametrize("additive", [False, True])
    def test_dropped_structure_is_freed(self, additive):
        struct = oriental(3).to_additive() if additive else oriental(3)
        g = struct.gen("0123")
        enabled = gc.isenabled()
        gc.disable()
        try:
            from_structure(struct).boundary_of(g)
            check_complex(from_structure(struct))
            ref = weakref.ref(struct)
            del struct
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestBoundary:
    def test_linear_in_the_chain(self, oriental2):
        K = from_structure(oriental2)
        v = vec(oriental2, 2, **{"012": 1})
        assert K.boundary(v) == vec(oriental2, 1, **{"01": 1, "02": -1, "12": 1})
        assert K.boundary(v + v + v) == K.boundary(v) + K.boundary(v) + K.boundary(v)

    def test_zero_chain(self, oriental2):
        K = from_structure(oriental2)
        assert K.boundary(SignedVector(2)).is_zero()

    def test_globe2_top(self, globe2):
        K = from_structure(globe2)
        assert K.boundary(vec(globe2, 2, top=1)) == vec(globe2, 1, **{"e1+": 1, "e1-": -1})


def doubled(struct):
    """Two disjoint copies of a structure, generator names suffixed a and b."""
    additive = struct.to_additive() if isinstance(struct, ParityStructure) else struct
    rows = []
    for suffix in "ab":
        for g in additive.all_generators():
            if g.dim == 0:
                rows.append((g.name + suffix, 0, {}, {}))
                continue
            neg, pos = (
                {f.name + suffix: c for f, c in faces.items()}
                for faces in (additive.neg(g), additive.pos(g))
            )
            rows.append((g.name + suffix, g.dim, neg, pos))
    return AdditiveParityStructure.build(rows)


def fold(struct):
    """The chain map sending both copies of each generator to the original."""
    original = from_structure(struct)
    two = from_structure(doubled(struct))
    images = {
        h: Multiset.of(struct.gen(h.name[:-1], h.dim)).to_vector()
        for h in two.structure.all_generators()
    }
    return ChainMap(two, original, images)


def random_chain(rng, gens, dim):
    return SignedVector(dim, {g: rng.randint(-3, 3) for g in gens if rng.random() < 0.7})


def scaled(v, c):
    """The vector c * v."""
    return SignedVector(v.dim, {g: c * x for g, x in v.items()})


class TestLinearExtension:
    """boundary and ChainMap.apply equal the termwise sums of scaled images."""

    @settings(deadline=None)
    @given(kind=st.sampled_from(["parity", "additive"]), seed=st.integers(0, 2**32 - 1))
    def test_termwise_sums(self, kind, seed):
        rng = random.Random(seed)
        struct = randstruct.random_structure(kind, rng)
        K = from_structure(struct)
        cm = fold(struct)
        for n in struct.dims():
            v = random_chain(rng, K.generators(n), n)
            if n >= 1:
                expected = SignedVector(n - 1)
                for g, c in v.items():
                    expected = expected + scaled(K.boundary_of(g), c)
                assert K.boundary(v) == expected
            w = random_chain(rng, cm.source.generators(n), n)
            expected = SignedVector(n)
            for h, c in w.items():
                expected = expected + scaled(cm.image(h), c)
            assert cm.apply(w) == expected

    def test_boundary_entry_past_max_count(self):
        K = from_structure(oriental(2))
        at_max = K.boundary(vec(oriental(2), 1, **{"01": MAX_COUNT}))
        assert at_max == vec(oriental(2), 0, **{"0": -MAX_COUNT, "1": MAX_COUNT})
        with pytest.raises(OverflowError):
            K.boundary(vec(oriental(2), 1, **{"01": MAX_COUNT, "02": MAX_COUNT}))

    def test_apply_entry_past_max_count(self):
        cm = fold(oriental(1))
        a, b = cm.source.structure.gen("01a"), cm.source.structure.gen("01b")
        assert cm.apply(SignedVector(1, {a: MAX_COUNT, b: -MAX_COUNT})).is_zero()
        with pytest.raises(OverflowError):
            cm.apply(SignedVector(1, {a: MAX_COUNT, b: 1}))


class TestCheckComplex:
    def test_families_pass(self, oriental3, globe2, cube2):
        for struct in (oriental3, globe2, cube2):
            report = check_complex(from_structure(struct))
            assert report.dd_zero and report.normal and report.unital

    def test_circle_is_a_fine_chain_complex(self, circle):
        report = check_complex(from_structure(circle))
        assert report.dd_zero and report.normal and report.unital

    def test_globularity_violation_named(self):
        s = AdditiveParityStructure.build(
            [
                ("p", 0, {}, {}), ("q", 0, {}, {}), ("r", 0, {}, {}),
                ("a", 1, {"p": 1}, {"q": 1}),
                ("b", 1, {"q": 1}, {"r": 1}),
                ("F", 2, {"a": 1}, {"b": 1}),
            ]
        )
        report = check_complex(from_structure(s))
        assert not report.dd_zero
        assert any(check == "dd_zero" and gen == "F" for check, gen, _ in report.failures)


class TestWellFormedElement:
    """A positive chain is well-formed when it is radical and, in dimension
    0, has augmentation 1; above, when distinct members have disjoint
    negative faces and disjoint positive faces (`is_well_formed`)."""

    def test_oriental2_pair(self, oriental2):
        s = Multiset(1, [(oriental2.gen("01"), 1), (oriental2.gen("12"), 1)])
        assert s.is_radical() and is_well_formed(oriental2, 1, s)

    def test_non_radical(self, oriental2):
        assert not Multiset(1, {oriental2.gen("01"): 2}).is_radical()

    def test_dimension_zero(self, oriental2):
        K = from_structure(oriental2)
        assert K.augmentation(Multiset.of(oriental2.gen("0"))) == 1
        assert K.augmentation(Multiset(0, [(oriental2.gen("0"), 1), (oriental2.gen("1"), 1)])) == 2

    def test_dimension_zero_needs_augmentation(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1, "w": 1}, {})]
        )
        K = from_structure(s)
        with pytest.raises(AugmentationMissingError):
            K.augmentation(Multiset.of(s.gen("v")))

    def test_agrees_with_subset_well_formedness(self, oriental2):
        # on disjoint faces a generator's boundary parts are its faces, so
        # the chain reading decides well-formedness from boundary_of alone
        from itertools import combinations

        verdicts = []
        for struct, dim in ((oriental2, 1), (oriental(3), 1), (oriental(3), 2)):
            K = from_structure(struct)
            gens = list(struct.generators(dim))
            for r in range(len(gens) + 1):
                for combo in combinations(gens, r):
                    parts = [K.boundary_of(g).parts() for g in combo]
                    chain_verdict = all(
                        not (frozenset(a) & frozenset(b)) for x, y in combinations(parts, 2) for a, b in zip(x, y)
                    )
                    assert is_well_formed(struct, dim, combo) == chain_verdict
                    verdicts.append(chain_verdict)
        assert True in verdicts and False in verdicts


class TestExtraction:
    def test_roundtrip_is_identity(self, oriental3, globe2, cube2, circle, weak_not_strong):
        for struct in (oriental3, globe2, cube2, circle, weak_not_strong):
            additive = struct.to_additive()
            assert extract_structure(from_structure(struct)) == additive

    def test_iterated_boundaries_agree_with_face_iteration(self, oriental3):
        # level k of a row is the negative (positive) part of the boundary
        # of level k + 1, walked down from the generator on the complex
        K = from_structure(oriental3)
        additive = oriental3.to_additive()
        for g in oriental3.all_generators():
            walked = []
            for side in (0, 1):
                levels = [Multiset.of(g)]
                for _ in range(g.dim):
                    levels.insert(0, K.boundary(levels[0].to_vector()).parts()[side])
                walked.append(tuple(levels))
            assert iterated_boundaries(additive, g) == tuple(walked)
            assert iterated_boundaries(oriental3, g) == tuple(walked)
