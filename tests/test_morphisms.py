import random
from itertools import product

import pytest

from conftest import load_fixture, overflow_map, overflow_path
from paritykit import cells, fixtures
from paritykit.chain import from_structure
from paritykit.generators import cube, globe, oriental
from paritykit.morphisms import (
    ChainMap,
    GradedMorphism,
    MorphismError,
    apply_to_cell,
    check_strict_movement,
    compose_morphisms,
    identity_morphism,
    induced_chain_map,
    morphism_from_chain_map,
    restrict_morphism,
    validate_morphism,
)
from paritykit.multiset import MAX_COUNT, GeneratorId, Multiset, SignedVector
from paritykit.parity_core import ParityStructure, UnknownGeneratorError, is_well_formed, validate

pytestmark = pytest.mark.frozen


@pytest.fixture(scope="module")
def globe_to_triangle():
    return load_fixture("morphism_globe1_to_oriental2").value


@pytest.fixture(scope="module")
def collapse():
    return load_fixture("morphism_collapse_globe1").value


def inclusion(small, large, mode="weak_parity"):
    assignment = {
        g: Multiset.of(large.gen(g.name, g.dim)) for g in small.all_generators()
    }
    return GradedMorphism(small, large, assignment, mode)


class TestValidate:
    def test_globe_to_triangle_is_valid(self, globe_to_triangle):
        report = validate_morphism(globe_to_triangle)
        assert report.valid and report.normal and not report.failures

    def test_identity_is_valid(self, oriental2):
        assert validate_morphism(identity_morphism(oriental2)).valid

    def test_collapse_is_valid(self, collapse):
        report = validate_morphism(collapse)
        assert report.valid and report.normal

    def test_additive_mode(self, globe_to_triangle):
        report = validate_morphism(globe_to_triangle, "additive")
        assert report.valid

    def test_broken_movement_is_reported(self, globe1, oriental2):
        f = GradedMorphism(
            globe1,
            oriental2,
            {
                globe1.gen("e0-"): Multiset.of(oriental2.gen("0")),
                globe1.gen("e0+"): Multiset.of(oriental2.gen("1")),
                globe1.gen("top"): Multiset(1, [(oriental2.gen("01"), 1), (oriental2.gen("12"), 1)]),
            },
        )
        report = validate_morphism(f)
        assert not report.valid and report.failures

    def test_totality_enforced(self, globe1, oriental2):
        with pytest.raises(MorphismError):
            GradedMorphism(globe1, oriental2, {}, "weak_parity")

    def test_weak_mode_needs_weak_complexes(self, circle, oriental2):
        f = GradedMorphism(
            oriental2, oriental2,
            {g: Multiset.of(g) for g in oriental2.all_generators()},
        )
        assert validate_morphism(f).valid
        g = identity_morphism(circle)
        with pytest.raises(MorphismError):
            validate_morphism(g, "weak_parity")

    def test_weak_validity_matches_additive_normal_wf(self, globe1, oriental2):
        # candidate assignments for the 1-globe into the triangle: weak
        # validity must coincide with additive validity + normality +
        # well-formed subset images
        vertices = list(oriental2.generators(0))
        one_subsets = [
            Multiset(1, [(h, 1) for h in combo])
            for r in range(3)
            for combo in __import__("itertools").combinations(oriental2.generators(1), r)
        ]
        rng = random.Random(4)
        candidates = []
        for _ in range(60):
            candidates.append(
                {
                    globe1.gen("e0-"): Multiset.of(rng.choice(vertices)),
                    globe1.gen("e0+"): Multiset.of(rng.choice(vertices)),
                    globe1.gen("top"): rng.choice(one_subsets),
                }
            )
        for assignment in candidates:
            f = GradedMorphism(globe1, oriental2, assignment, "additive")
            additive_report = validate_morphism(f, "additive")
            images_wf = all(
                f.image(g).is_radical()
                and is_well_formed(oriental2, g.dim, frozenset(f.image(g)))
                for g in globe1.all_generators()
            )
            weak_verdict = (
                additive_report.valid and additive_report.normal and images_wf
            )
            g = GradedMorphism(globe1, oriental2, assignment, "additive")
            assert validate_morphism(g, "weak_parity").valid == weak_verdict


class TestStrictMovement:
    def test_on_fixture_morphisms(self, globe_to_triangle, collapse, oriental2):
        assert check_strict_movement(globe_to_triangle)
        assert check_strict_movement(collapse)
        assert check_strict_movement(identity_morphism(oriental2))

    def test_rejects_invalid_morphism(self, globe1, oriental2):
        f = GradedMorphism(
            globe1,
            oriental2,
            {
                globe1.gen("e0-"): Multiset.of(oriental2.gen("0")),
                globe1.gen("e0+"): Multiset.of(oriental2.gen("1")),
                globe1.gen("top"): Multiset.of(oriental2.gen("02")),
            },
        )
        with pytest.raises(MorphismError):
            check_strict_movement(f)

    def test_same_verdicts_over_additive_views(self, globe_to_triangle):
        f = globe_to_triangle
        source, target = f.source.to_additive(), f.target.to_additive()
        g = GradedMorphism(source, target, {x: f.image(x) for x in f.source.all_generators()}, f.mode)
        assert validate_morphism(g, "weak_parity") == validate_morphism(f, "weak_parity")
        assert check_strict_movement(g) == check_strict_movement(f) is True


class TestCompose:
    def test_identity_is_a_unit(self, globe_to_triangle, globe1, oriental2):
        left = compose_morphisms(identity_morphism(globe1), globe_to_triangle)
        right = compose_morphisms(globe_to_triangle, identity_morphism(oriental2))
        assert left == globe_to_triangle == right

    def test_then_inclusion_revalidates(self, globe_to_triangle, oriental2, oriental3):
        inc = inclusion(oriental2, oriental3)
        assert validate_morphism(inc).valid
        composite = compose_morphisms(globe_to_triangle, inc)
        assert validate_morphism(composite).valid
        top = globe_to_triangle.source.gen("top")
        assert sorted(g.name for g in composite.image(top)) == ["01", "12"]

    def test_associativity(self, globe_to_triangle, oriental2, oriental3):
        inc23 = inclusion(oriental2, oriental3)
        inc34 = inclusion(oriental3, oriental(4))
        lhs = compose_morphisms(compose_morphisms(globe_to_triangle, inc23), inc34)
        rhs = compose_morphisms(globe_to_triangle, compose_morphisms(inc23, inc34))
        assert lhs == rhs

    def test_mode_mismatch(self, oriental2):
        f = identity_morphism(oriental2, "weak_parity")
        g = identity_morphism(oriental2, "additive")
        with pytest.raises(MorphismError):
            compose_morphisms(f, g)

    def test_composability_mismatch(self, oriental2, oriental3):
        f = identity_morphism(oriental2)
        g = identity_morphism(oriental3)
        with pytest.raises(MorphismError):
            compose_morphisms(f, g)


class TestApplyToCell:
    def test_image_of_the_globe_atom(self, globe_to_triangle, globe1, oriental2):
        t = cells.atom(globe1, globe1.gen("top"))
        image = apply_to_cell(globe_to_triangle, t)
        assert image == CellHelper.path_cell(oriental2)

    def test_identity_acts_trivially(self, oriental2):
        f = identity_morphism(oriental2)
        for t in cells.enumerate_cells(oriental2, 2):
            assert apply_to_cell(f, t) == t

    def test_commutes_with_structure_maps(self, globe_to_triangle, globe1):
        f = globe_to_triangle
        universe = cells.enumerate_cells(globe1, 1)
        for t in universe:
            image = apply_to_cell(f, t)
            for k in range(t.dim):
                for sign in ("source", "target"):
                    assert apply_to_cell(f, cells.face(t, k, sign)) == cells.face(
                        image, k, sign
                    )
            assert apply_to_cell(f, cells.identity(t)) == cells.identity(image)
        for x, y in product(universe, repeat=2):
            for k in range(min(x.dim, y.dim)):
                if x.dim == y.dim and cells.face(x, k, "target") == cells.face(y, k, "source"):
                    assert apply_to_cell(f, cells.compose(x, y, k)) == cells.compose(
                        apply_to_cell(f, x), apply_to_cell(f, y), k
                    )


class CellHelper:
    @staticmethod
    def path_cell(oriental2):
        return cells.CellTable(
            [
                Multiset.of(oriental2.gen("0")),
                Multiset(1, [(oriental2.gen("01"), 1), (oriental2.gen("12"), 1)]),
            ],
            [
                Multiset.of(oriental2.gen("2")),
                Multiset(1, [(oriental2.gen("01"), 1), (oriental2.gen("12"), 1)]),
            ],
        )


class TestInducedChainMap:
    def test_identity_morphism_induces_identity(self, oriental2):
        cm = induced_chain_map(identity_morphism(oriental2))
        K = from_structure(oriental2)
        for g in oriental2.all_generators():
            assert cm.image(g) == Multiset.of(g).to_vector()
        assert cm.source.structure == K.structure

    def test_boundary_commutation_example(self, globe_to_triangle, globe1, oriental2):
        cm = induced_chain_map(globe_to_triangle)
        e = globe1.gen("top")
        image_boundary = cm.target.boundary(cm.image(e))
        expected = Multiset.of(oriental2.gen("2")).to_vector() - Multiset.of(
            oriental2.gen("0")
        ).to_vector()
        assert image_boundary == expected

    def test_functoriality(self, globe_to_triangle, oriental2, oriental3):
        inc = inclusion(oriental2, oriental3)
        lhs = induced_chain_map(compose_morphisms(globe_to_triangle, inc))
        rhs = induced_chain_map(globe_to_triangle).then(induced_chain_map(inc))
        assert lhs == rhs

    def test_roundtrip_preserves_assignment(self, globe_to_triangle):
        cm = induced_chain_map(globe_to_triangle)
        back = morphism_from_chain_map(cm)
        for g in globe_to_triangle.source.all_generators():
            assert back.image(g) == globe_to_triangle.image(g)


class TestChainMapChecksItsImages:
    """Commutation never looks at a dimension-0 image, so the images'
    grading and membership in the target are checked on their own."""

    def test_points_sent_outside_the_target(self):
        source, target = globe(1), oriental(2)
        nope = SignedVector(0, {GeneratorId(0, "nope"): 1})
        images = {g: nope if g.dim == 0 else SignedVector(1) for g in source.all_generators()}
        with pytest.raises(UnknownGeneratorError, match=r"^generator 'nope' \(dim 0\) not in structure$"):
            ChainMap(from_structure(source), from_structure(target), images)

    def test_a_point_sent_to_a_1_chain(self):
        source, target = ParityStructure.build([("p", 0, [], [])]), oriental(2)
        images = {source.gen("p"): SignedVector(1, {target.gen("01"): 1})}
        with pytest.raises(MorphismError, match=r"^image of 'p' has dimension 1, expected 0$"):
            ChainMap(from_structure(source), from_structure(target), images)
        p, point = source.gen("p"), SignedVector(0, {target.gen("0"): 1})
        assert ChainMap(from_structure(source), from_structure(target), {p: point}).image(p) == point


    def test_an_image_of_a_generator_the_source_lacks(self):
        # the identity images plus one for a generator outside the source
        complex_ = from_structure(oriental(2))
        images = {g: SignedVector(g.dim, {g: 1}) for g in oriental(2).all_generators()}
        junk = GeneratorId(5, "junk")
        with pytest.raises(UnknownGeneratorError, match=r"^generator 'junk' \(dim 5\) not in structure$"):
            ChainMap(complex_, complex_, {**images, junk: SignedVector(5)})
        with pytest.raises(UnknownGeneratorError, match="'junk'"):
            ChainMap(complex_, complex_, {**images, GeneratorId(0, "junk"): SignedVector(0)})
        assert ChainMap(complex_, complex_, images) == induced_chain_map(identity_morphism(oriental(2)))


class TestNoAdditiveViewIsBuilt:
    @staticmethod
    def coface(source, target, skip):
        """The coface map of orientals skipping vertex `skip` of the target."""

        def shift(name):
            return "".join(str(int(v) + (int(v) >= skip)) for v in name)

        assignment = {
            g: Multiset.of(target.gen(shift(g.name), g.dim)) for g in source.all_generators()
        }
        return GradedMorphism(source, target, assignment)

    @pytest.mark.parametrize("skip", [0, 2, 4])
    def test_no_to_additive_call(self, monkeypatch, skip):
        built = []
        to_additive = ParityStructure.to_additive
        monkeypatch.setattr(
            ParityStructure, "to_additive", lambda self: built.append(id(self)) or to_additive(self)
        )
        source, target = oriental(3), oriental(4)
        f = self.coface(source, target, skip)
        assert validate(source).meets("weak parity complex")
        from_structure(source)
        assert validate_morphism(f, "additive").valid
        assert validate_morphism(f).valid
        cm = induced_chain_map(f)
        for view, s in ((cm.source, source), (cm.target, target)):
            assert view._table is s._table and view.structure is s
            g = s.generators(s.max_dim)[0]
            assert view.boundary_of(g) == from_structure(s).boundary_of(g)
        assert cm.then(induced_chain_map(identity_morphism(target))) == cm
        assert built == []


class TestRestriction:
    def test_skeletal_restriction_validates(self, globe_to_triangle):
        restricted = restrict_morphism(globe_to_triangle, 0)
        assert validate_morphism(restricted).valid
        assert restricted.source.max_dim == 0


class TestChecksComputeOnRows:
    """The checks, composition and the induced chain map read the image
    rows; on the second of two identical calls they build no Multiset
    and no SignedVector, and the chain map at most one per generator."""

    @staticmethod
    def maps():
        yield identity_morphism(cube(5))
        yield TestNoAdditiveViewIsBuilt.coface(oriental(4), oriental(5), 2)

    def test_values_built(self, monkeypatch):
        built = {Multiset: 0, SignedVector: 0}
        for cls in built:
            def counting(self, *args, _init=cls.__init__, _cls=cls):
                built[_cls] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)

        def second_call(call):
            call()
            built.update(dict.fromkeys(built, 0))
            return call()

        for f in self.maps():
            after = identity_morphism(f.target)
            for call in (
                lambda: validate_morphism(f, "additive"),
                lambda: validate_morphism(f, "weak_parity"),
                lambda: check_strict_movement(f),
                lambda: compose_morphisms(f, after),
            ):
                assert second_call(call)
                assert built == {Multiset: 0, SignedVector: 0}
            cm = second_call(lambda: induced_chain_map(f))
            assert built[Multiset] == 0 and built[SignedVector] <= len(f.source)
            assert all(cm.image(g) == f.image(g).to_vector() for g in f.source.all_generators())

    def test_loading_and_the_identity_build_no_multiset(self, monkeypatch):
        """The loader resolves image names straight into target rows, and
        identity_morphism writes its rows itself."""
        maps, struct = list(self.maps()), cube(5)
        texts = [fixtures.dumps(f, name="m") for f in maps]
        built = []
        init = Multiset.__init__
        monkeypatch.setattr(Multiset, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        assert [fixtures.loads(text).value for text in texts] == maps
        assert identity_morphism(struct) == maps[0]
        assert built == []


class TestCellsComputeOnRows:
    """Excision, the recomposition of its slices and apply_to_cell read a
    cell's columns as chains over the face table and step or map them on
    its rows: on the second of two identical passes over subset cells they
    build no Multiset and no SignedVector."""

    def test_values_built(self, monkeypatch):
        struct = oriental(5)
        wide = [t for t in cells.enumerate_cells(struct, 5) if len(t.top) >= 2]
        assert len(wide) == 261
        f = TestNoAdditiveViewIsBuilt.coface(oriental(4), struct, 2)
        sources = cells.enumerate_cells(f.source, 4)

        def one_pass():
            for t in wide:
                slices = cells.excision_decompose(struct, t)
                back = slices[0]
                for s in slices[1:]:
                    back = cells.compose(back, s, t.dim - 1)
                assert len(slices) == len(t.top) and back == t
            for t in sources:
                assert apply_to_cell(f, t).is_subset_columned()

        one_pass()
        built = {Multiset: 0, SignedVector: 0}
        for cls in built:
            def counting(self, *args, _init=cls.__init__, _cls=cls):
                built[_cls] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting)
        one_pass()
        assert built == {Multiset: 0, SignedVector: 0}


class TestOverflowingCounts:
    def test_additive_validation_reports_the_count(self):
        assert validate_morphism(overflow_map()) == (
            False,
            True,
            (
                f"image of a does not move the image of its faces: {{a:{MAX_COUNT}}} vs {{u}} -> {{v}}",
                f"image of x does not move the image of its faces: {{x}} vs {{a:{2 * MAX_COUNT}, b}} -> {{c}}",
            ),
        )
        with pytest.raises(MorphismError, match="^not a valid morphism"):
            induced_chain_map(overflow_map())

    def test_cell_images_past_the_subset_rows(self):
        # an image with a count above 1 is a table on Multisets; one whose
        # count outgrows a machine word raises when its column is built
        f = overflow_map()
        s = f.source
        u, v, a = s.gen("u"), s.gen("v"), s.gen("a")
        path = cells.CellTable([Multiset.of(u), Multiset.of(a)], [Multiset.of(v), Multiset.of(a)])
        image = apply_to_cell(f, path)
        big = Multiset(1, {a: MAX_COUNT})
        assert image == cells.CellTable([Multiset.of(u), big], [Multiset.of(v), big])
        assert str(image) == f"({{u}}, {{a:{MAX_COUNT}}}; {{v}}, {{a:{MAX_COUNT}}})"
        assert not image.is_subset_columned()
        f, through = overflow_path()
        assert cells.validate_cell(f.source, through, "nu") == (True, None)
        with pytest.raises(OverflowError, match=f"^count for 'a' exceeds {MAX_COUNT}$"):
            apply_to_cell(f, through)
