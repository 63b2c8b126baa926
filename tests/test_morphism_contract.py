"""The public contract of GradedMorphism and ChainMap, whatever they store.

Pinned here: the exception types and texts of both constructors and the
order in which they check, the errors of ``image`` and ``apply_multiset``,
the failure texts of both validation modes, the
errors of ``compose_morphisms``, restriction below dimension 0, and
equality across a parity structure and its additive view.
"""

import re

import pytest

from conftest import load_fixture
from paritykit.chain import from_structure
from paritykit.generators import globe, oriental
from paritykit.morphisms import (
    ChainMap,
    GradedMorphism,
    MorphismError,
    compose_morphisms,
    identity_morphism,
    induced_chain_map,
    restrict_morphism,
    validate_morphism,
)
from paritykit.multiset import MAX_COUNT, GeneratorId, Multiset, SignedVector
from paritykit.parity_core import AdditiveParityStructure, UnknownGeneratorError


def raises(exc, text):
    return pytest.raises(exc, match=f"^{re.escape(text)}$")


G1, O2 = globe(1), oriental(2)
JUNK = GeneratorId(3, "junk")
NOPE = GeneratorId(1, "nope")


def gen(struct, name):
    return struct.gen(name)


def edge():
    """globe(1) -> oriental(2) onto the edge 01: a valid weak-parity map."""
    return {
        gen(G1, "e0-"): Multiset.of(gen(O2, "0")),
        gen(G1, "e0+"): Multiset.of(gen(O2, "1")),
        gen(G1, "top"): Multiset.of(gen(O2, "01")),
    }


def with_top(image):
    return {**edge(), gen(G1, "top"): image}


def vectors(assignment):
    return {g: image.to_vector() for g, image in assignment.items()}


def additive_loop():
    """u, v; a, c: u -> v; b: v -> u; x: a a b => c, an additive parity complex."""
    return AdditiveParityStructure.build([
        ("u", 0, [], []), ("v", 0, [], []),
        ("a", 1, ["u"], ["v"]), ("c", 1, ["u"], ["v"]), ("b", 1, ["v"], ["u"]),
        ("x", 2, ["a", "a", "b"], ["c"]),
    ])


class TestGradedMorphismConstructor:
    def test_unknown_mode(self):
        with raises(MorphismError, "unknown morphism mode 'bogus'"):
            GradedMorphism(G1, O2, edge(), "bogus")

    def test_missing_generator(self):
        assignment = edge()
        del assignment[gen(G1, "top")]
        with raises(MorphismError, "assignment is missing generator 'top' (dim 1)"):
            GradedMorphism(G1, O2, assignment)

    def test_key_outside_the_source(self):
        with raises(UnknownGeneratorError, "generator 'junk' (dim 3) not in structure"):
            GradedMorphism(G1, O2, {**edge(), JUNK: Multiset.empty(3)})
        # a source name in the wrong dimension is outside the source too
        with raises(UnknownGeneratorError, "generator 'top' (dim 0) not in structure"):
            GradedMorphism(G1, O2, {**edge(), GeneratorId(0, "top"): Multiset.of(gen(O2, "0"))})

    def test_wrong_dimension(self):
        with raises(MorphismError, "image of 'top' has dimension 0, expected 1"):
            GradedMorphism(G1, O2, with_top(Multiset.of(gen(O2, "0"))))

    def test_image_outside_the_target(self):
        with raises(UnknownGeneratorError, "generator 'nope' (dim 1) not in structure"):
            GradedMorphism(G1, O2, with_top(Multiset.of(NOPE)))

    def test_non_subset_image(self):
        image = Multiset(1, {gen(O2, "01"): 2})
        with raises(MorphismError, "image of 'top' is not a subset: {01:2}"):
            GradedMorphism(G1, O2, with_top(image))
        assert GradedMorphism(G1, O2, with_top(image), "additive").image(gen(G1, "top")) == image

    def test_the_mode_is_checked_first(self):
        with raises(MorphismError, "unknown morphism mode 'bogus'"):
            GradedMorphism(G1, O2, {JUNK: Multiset.empty(3)}, "bogus")

    def test_totality_is_checked_before_any_image(self):
        assignment = {JUNK: Multiset.empty(3), gen(G1, "e0-"): Multiset.of(NOPE)}
        with raises(MorphismError, "assignment is missing generator 'e0+' (dim 0)"):
            GradedMorphism(G1, O2, assignment)

    def test_images_are_checked_in_assignment_order(self):
        wrong_dim = (gen(G1, "top"), Multiset.of(gen(O2, "0")))
        with raises(UnknownGeneratorError, "generator 'junk' (dim 3) not in structure"):
            GradedMorphism(G1, O2, dict([(JUNK, Multiset.empty(3)), *edge().items(), wrong_dim]))
        with raises(MorphismError, "image of 'top' has dimension 0, expected 1"):
            GradedMorphism(G1, O2, dict([*edge().items(), wrong_dim, (JUNK, Multiset.empty(3))]))

    def test_one_image_is_checked_dimension_target_then_subset(self):
        with raises(MorphismError, "image of 'top' has dimension 0, expected 1"):
            GradedMorphism(G1, O2, with_top(Multiset(0, {GeneratorId(0, "nope"): 2})))
        with raises(UnknownGeneratorError, "generator 'nope' (dim 1) not in structure"):
            GradedMorphism(G1, O2, with_top(Multiset(1, {gen(O2, "01"): 2, NOPE: 1})))


class TestChainMapConstructor:
    K, L = from_structure(G1), from_structure(O2)

    def test_missing_generator(self):
        images = vectors(edge())
        del images[gen(G1, "top")]
        with raises(MorphismError, "chain map is missing generator 'top'"):
            ChainMap(self.K, self.L, images)

    def test_key_outside_the_source(self):
        with raises(UnknownGeneratorError, "generator 'junk' (dim 3) not in structure"):
            ChainMap(self.K, self.L, {**vectors(edge()), JUNK: SignedVector(3)})

    def test_wrong_dimension(self):
        images = {**vectors(edge()), gen(G1, "top"): SignedVector(0, {gen(O2, "0"): 1})}
        with raises(MorphismError, "image of 'top' has dimension 0, expected 1"):
            ChainMap(self.K, self.L, images)

    def test_image_outside_the_target(self):
        images = {**vectors(edge()), gen(G1, "top"): SignedVector(1, {NOPE: 1})}
        with raises(UnknownGeneratorError, "generator 'nope' (dim 1) not in structure"):
            ChainMap(self.K, self.L, images)

    def test_boundary_failure(self):
        images = {**vectors(edge()), gen(G1, "top"): SignedVector(1, {gen(O2, "02"): 1, gen(O2, "12"): -2})}
        with raises(MorphismError, "chain map does not commute with the boundary at top: -0 +21 -2 vs -0 +1"):
            ChainMap(self.K, self.L, images)

    def test_signed_images_are_accepted(self):
        images = {**vectors(edge()), gen(G1, "top"): SignedVector(1, {gen(O2, "02"): 1, gen(O2, "12"): -1})}
        cm = ChainMap(self.K, self.L, images)
        assert cm.image(gen(G1, "top")) == images[gen(G1, "top")]
        assert str(cm.apply(SignedVector(1, {gen(G1, "top"): -2}))) == "-202 +212"

    def test_keys_are_checked_before_any_image(self):
        images = {gen(G1, "e0-"): SignedVector(1, {NOPE: 1}), JUNK: SignedVector(3)}
        with raises(UnknownGeneratorError, "generator 'junk' (dim 3) not in structure"):
            ChainMap(self.K, self.L, images)

    def test_generators_are_checked_in_dimension_order(self):
        # a failing 0-image is reported before a missing 1-image, and a
        # failing 1-image before a 2-image outside the target
        images = {gen(G1, "e0-"): SignedVector(1, {gen(O2, "01"): 1}), gen(G1, "e0+"): SignedVector(0)}
        with raises(MorphismError, "image of 'e0-' has dimension 1, expected 0"):
            ChainMap(self.K, self.L, images)
        K2, L2 = from_structure(globe(2)), from_structure(oriental(3))
        vertex = SignedVector(0, {L2.structure.gen("0"): 1})
        images = {
            GeneratorId(0, "e0-"): vertex,
            GeneratorId(0, "e0+"): vertex,
            GeneratorId(1, "e1-"): SignedVector(1, {L2.structure.gen("01"): 1}),
            GeneratorId(1, "e1+"): SignedVector(1),
            GeneratorId(2, "top"): SignedVector(2, {GeneratorId(2, "nope"): 1}),
        }
        with raises(MorphismError, "chain map does not commute with the boundary at e1-: -0 +1 vs 0"):
            ChainMap(K2, L2, images)

    def test_image_and_apply_outside_the_source(self):
        cm = ChainMap(self.K, self.L, vectors(edge()))
        with raises(UnknownGeneratorError, "generator 'x' (dim 0) not in structure"):
            cm.image(GeneratorId(0, "x"))
        with raises(UnknownGeneratorError, "generator 'e0-' (dim 1) not in structure"):
            cm.image(GeneratorId(1, "e0-"))
        with raises(UnknownGeneratorError, "generator 'x' (dim 1) not in structure"):
            cm.apply(SignedVector(1, {GeneratorId(1, "x"): 1}))


class TestApplication:
    f = GradedMorphism(G1, O2, edge())

    def test_image_of_an_unknown_or_wrong_dimension_generator(self):
        with raises(UnknownGeneratorError, "generator 'x' (dim 0) not in structure"):
            self.f.image(GeneratorId(0, "x"))
        with raises(UnknownGeneratorError, "generator 'e0-' (dim 1) not in structure"):
            self.f.image(GeneratorId(1, "e0-"))
        assert self.f.image(gen(G1, "top")) == Multiset.of(gen(O2, "01"))

    def test_apply_multiset(self):
        with raises(UnknownGeneratorError, "generator 'x' (dim 0) not in structure"):
            self.f.apply_multiset(Multiset.of(gen(G1, "e0-"), GeneratorId(0, "x")))
        with raises(UnknownGeneratorError, "generator 'top' (dim 0) not in structure"):
            self.f.apply_multiset(Multiset.of(GeneratorId(0, "top")))
        out = self.f.apply_multiset(Multiset(0, {gen(G1, "e0-"): 2, gen(G1, "e0+"): 1}))
        assert out == Multiset(0, {gen(O2, "0"): 2, gen(O2, "1"): 1})
        assert self.f.apply_multiset(Multiset.empty(1)) == Multiset.empty(1)

    def test_repr_and_normality(self):
        assert repr(self.f) == "<GradedMorphism weak_parity on 3 generators>"
        assert self.f.is_normal()
        two = {**edge(), gen(G1, "e0-"): Multiset.subset(0, [gen(O2, "0"), gen(O2, "2")])}
        assert not GradedMorphism(G1, O2, two, "additive").is_normal()


class TestValidationTexts:
    def test_additive_failure(self):
        f = GradedMorphism(G1, O2, with_top(Multiset(1, {gen(O2, "01"): 2, gen(O2, "12"): 1})), "additive")
        report = validate_morphism(f)
        assert report == (False, True, ("image of top does not move the image of its faces: {01:2, 12} vs {0} -> {1}",))

    def test_weak_parity_failures(self):
        not_subset = GradedMorphism(G1, O2, with_top(Multiset(1, {gen(O2, "01"): 2})), "additive")
        assert validate_morphism(not_subset, "weak_parity").failures == ("image of top is not a subset: {01:2}",)
        # 01 and 02 share their negative face 0
        fork = with_top(Multiset.subset(1, [gen(O2, "01"), gen(O2, "02")]))
        assert validate_morphism(GradedMorphism(G1, O2, fork)).failures == (
            "image of top is not well-formed: {01, 02}",
        )
        stray = {**edge(), gen(G1, "e0+"): Multiset.of(gen(O2, "2"))}
        assert validate_morphism(GradedMorphism(G1, O2, stray)).failures == (
            "image of top does not move the union image of its faces: {01} vs ['0'] -> ['2']",
        )
        point = {**edge(), gen(G1, "e0-"): Multiset.subset(0, [gen(O2, "0"), gen(O2, "2")])}
        assert validate_morphism(GradedMorphism(G1, O2, point)) == (
            False, False,
            (
                "image of e0- is not well-formed: {0, 2}",
                "image of top does not move the union image of its faces: {01} vs ['0', '2'] -> ['1']",
            ),
        )

    def test_level_requirements_and_mode(self, circle):
        f = identity_morphism(circle)
        with raises(MorphismError, "weak_parity morphisms need the source to be at least a weak parity complex, "
                                   "got additive parity complex"):
            validate_morphism(f)
        assert validate_morphism(f, "additive").valid
        with raises(MorphismError, "unknown morphism mode 'bogus'"):
            validate_morphism(f, "bogus")


class TestCompose:
    def test_non_disjoint_weak_parity_composite(self):
        top = gen(G1, "top")
        fold = {
            **{gen(O2, v): Multiset.of(gen(G1, "e0-" if v != "2" else "e0+")) for v in "012"},
            **{gen(O2, e): Multiset.of(top) for e in ("01", "02", "12")},
            gen(O2, "012"): Multiset.empty(2),
        }
        path = with_top(Multiset.subset(1, [gen(O2, "01"), gen(O2, "12")]))
        with raises(MorphismError, "union image of top under the composite is not disjoint: {top:2}"):
            compose_morphisms(GradedMorphism(G1, O2, path), GradedMorphism(O2, G1, fold))
        composite = compose_morphisms(GradedMorphism(G1, O2, path, "additive"), GradedMorphism(O2, G1, fold, "additive"))
        assert composite.image(top) == Multiset(1, {top: 2})

    def test_overflowing_composite(self):
        s = additive_loop()
        images = {g: Multiset.of(g) for g in s.all_generators()}
        images[s.gen("a")] = Multiset(1, {s.gen("a"): MAX_COUNT})
        f = GradedMorphism(s, s, images, "additive")
        with raises(OverflowError, f"count for 'a' exceeds {MAX_COUNT}"):
            compose_morphisms(f, f)

    def test_mismatches(self):
        with raises(MorphismError, "cannot compose weak_parity with additive morphisms"):
            compose_morphisms(identity_morphism(O2), identity_morphism(O2, "additive"))
        with raises(MorphismError, "target of the first morphism is not the source of the second"):
            compose_morphisms(identity_morphism(O2), identity_morphism(G1))
        with raises(MorphismError, "target of the first morphism is not the source of the second"):
            compose_morphisms(identity_morphism(O2), identity_morphism(O2.to_additive()))


class TestRestriction:
    @pytest.mark.parametrize("n", [-1, -2, -5])
    def test_below_dimension_0_is_empty(self, n):
        f = load_fixture("morphism_globe1_to_oriental2").value
        restricted = restrict_morphism(f, n)
        assert restricted.source.max_dim == restricted.target.max_dim == -1
        assert repr(restricted) == "<GradedMorphism weak_parity on 0 generators>"
        assert validate_morphism(restricted) == (True, True, ())

    def test_to_dimension_0(self):
        f = GradedMorphism(G1, O2, edge())
        restricted = restrict_morphism(f, 0)
        assert restricted.target.max_dim == 0
        assert restricted.image(gen(G1, "e0+")) == Multiset.of(gen(O2, "1"))
        with raises(UnknownGeneratorError, "generator 'top' (dim 1) not in structure"):
            restricted.image(gen(G1, "top"))


class TestEqualityAcrossViews:
    def test_graded_morphisms_compare_their_structures(self):
        f = GradedMorphism(G1, O2, edge())
        additive = GradedMorphism(G1.to_additive(), O2.to_additive(), edge())
        assert f != additive and not f == additive
        assert f == GradedMorphism(G1, O2, edge(), "additive")  # the mode is not compared
        assert additive == GradedMorphism(G1.to_additive(), O2.to_additive(), edge(), "additive")

    def test_chain_maps_compare_their_face_tables(self):
        f = GradedMorphism(G1, O2, edge())
        additive = GradedMorphism(G1.to_additive(), O2.to_additive(), edge(), "additive")
        assert induced_chain_map(f) == induced_chain_map(additive)
        cm = ChainMap(from_structure(G1.to_additive()), from_structure(O2), vectors(edge()))
        assert cm == induced_chain_map(f)
        other = with_top(Multiset.subset(1, [gen(O2, "02")]))
        other[gen(G1, "e0+")] = Multiset.of(gen(O2, "2"))
        assert cm != induced_chain_map(GradedMorphism(G1, O2, other))


class TestImagesAboveTheTarget:
    """globe(2) -> globe(1), sending the 2-cell to the empty 2-chain of a
    target without 2-generators."""

    @staticmethod
    def collapse():
        g2 = globe(2)
        images = {g: Multiset.of(G1.gen(g.name)) for g in g2.generators(0)}
        images.update({g: Multiset.of(G1.gen("top")) for g in g2.generators(1)})
        images[g2.gen("top")] = Multiset.empty(2)
        return GradedMorphism(g2, G1, images)

    def test_checks_compose_and_chain_map(self):
        from paritykit import fixtures

        f = self.collapse()
        assert validate_morphism(f) == validate_morphism(f, "additive") == (True, True, ())
        assert f.image(f.source.gen("top")) == Multiset.empty(2)
        assert compose_morphisms(f, identity_morphism(G1)) == f
        assert fixtures.loads(fixtures.dumps(f, name="f")).value == f
        assert '"2": {\n        "top": []\n      }' in fixtures.dumps(f, name="f")
        cm = induced_chain_map(f)
        assert cm.image(f.source.gen("top")) == SignedVector(2)
        assert restrict_morphism(f, 1).source.max_dim == 1
