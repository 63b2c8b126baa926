import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import randstruct
import test_report_digests
from conftest import load_fixture
from paritykit import parity_core
from paritykit.chain import from_structure
from paritykit.generators import cube, globe, oriental
from paritykit.multiset import DimensionMismatchError, GeneratorId, Multiset
from paritykit.parity_core import (
    AdditiveParityStructure,
    CycleWitness,
    OrderWitness,
    ParityStructure,
    StructureError,
    UnknownGeneratorError,
    atom_faces,
    is_well_formed,
    iterated_boundaries,
    moves,
    skeleton,
    subset_faces,
    validate,
)


def names(gens):
    return sorted(g.name for g in gens)


def sub(struct, dim, *names_):
    return frozenset(struct.gen(n, dim) for n in names_)


def mset(struct, dim, *names_):
    return Multiset(dim, [(struct.gen(n, dim), 1) for n in names_])


X, Y, E = GeneratorId(0, "x"), GeneratorId(0, "y"), GeneratorId(1, "e")


class TestConstruction:
    def test_missing_face_generator_is_an_error(self):
        with pytest.raises(UnknownGeneratorError):
            ParityStructure.build([("x", 1, ["nope"], [])])

    def test_duplicate_rows_rejected(self):
        with pytest.raises(StructureError):
            ParityStructure.build([("x", 0, [], []), ("x", 0, [], [])])

    def test_max_dim_is_the_fixture_bound(self):
        from paritykit import fixtures

        assert fixtures.MAX_DIM is parity_core.MAX_DIM == 64

    @pytest.mark.parametrize("cls", [ParityStructure, AdditiveParityStructure])
    def test_a_dimension_above_max_dim_is_refused_before_any_level_is_built(self, cls):
        # one list entry per dimension up to 10**9 would need gigabytes
        big, text = 10**9, "^dimension 1000000000 is above the largest supported dimension 64$"
        with pytest.raises(StructureError, match=text):
            cls.build([("x", big, [], [])])
        assert cls.build([("x", 64, [], [])]).max_dim == 64

    @pytest.mark.parametrize("cls", [ParityStructure, AdditiveParityStructure])
    def test_build_is_the_only_constructor(self, cls):
        with pytest.raises(TypeError):
            cls({X: ((), ())})
        with pytest.raises(TypeError):
            cls({})
        assert cls.build([("x", 0, [], [])]).generators(0) == (X,)

    def test_dim0_faces_rejected(self):
        with pytest.raises(StructureError):
            AdditiveParityStructure.build([("v", 0, {"v": 1}, {})])

    def test_parity_embeds_into_additive(self, oriental2):
        additive = oriental2.to_additive()
        g = additive.gen("012")
        assert additive.neg(g).is_radical()
        assert additive.as_parity() == oriental2

    def test_name_lookup_ambiguity(self):
        s = ParityStructure.build([("x", 0, [], []), ("x", 1, ["x"], ["x"])])
        with pytest.raises(StructureError):
            s.gen("x")
        assert s.gen("x", 1).dim == 1

    # The construction contract: the same errors and messages for both classes.
    @pytest.mark.parametrize("cls", [ParityStructure, AdditiveParityStructure])
    @pytest.mark.parametrize(
        "attempt, error, message",
        [
            pytest.param(
                lambda cls: cls.build([("x", 0, [], []), ("x", 0, [], [])]),
                StructureError, "duplicate (name, dim) row", id="duplicate_row",
            ),
            pytest.param(
                lambda cls: cls.build([("v", 0, ["v"], [])]),
                StructureError, "dimension-0 generator 'v' cannot have faces", id="dim0_faces_build",
            ),
            pytest.param(
                lambda cls: cls.build([("x", 1, ["nope"], [])]),
                UnknownGeneratorError, "face 'nope' has no dimension-0 generator", id="unknown_face_build",
            ),
            pytest.param(
                lambda cls: cls.build([("x", 0, [], [])]).neg(X),
                StructureError, "dimension-0 generator 'x' has no faces", id="neg_of_point",
            ),
            pytest.param(
                lambda cls: cls.build([("x", 0, [], [])]).pos(Y),
                UnknownGeneratorError, "generator 'y' (dim 0) not in structure", id="pos_of_missing",
            ),
        ],
    )
    def test_construction_errors(self, cls, attempt, error, message):
        with pytest.raises(error) as info:
            attempt(cls)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.frozen
    def test_the_least_bad_face_is_named(self):
        # a row's faces are resolved in row order, negative before
        # positive, so the unknown face named is the first one in the row,
        # whatever order a set of the names would iterate in under the
        # string hash; a name of another dimension is unknown too
        for cls in (ParityStructure, AdditiveParityStructure):
            for neg, pos, first in (
                (["v", "zz", "q", "p"], ["v"], "zz"),
                (["v"], ["r", "v", "q", "p"], "r"),
                (["u", "q"], ["p"], "q"),
                (["e"], ["v"], "e"),
            ):
                rows = [("u", 0, [], []), ("v", 0, [], []), ("e", 1, ["u"], ["v"]), ("a", 1, neg, pos)]
                with pytest.raises(UnknownGeneratorError) as info:
                    cls.build(rows)
                assert str(info.value) == f"face {first!r} has no dimension-0 generator"

    def test_parity_build_collapses_a_repeated_name(self):
        s = ParityStructure.build([("x", 0, [], []), ("y", 0, [], []), ("e", 1, ["x", "x"], ["y"])])
        assert s.neg(E) == frozenset([X])
        assert type(s.neg(E)) is frozenset

    def test_parity_build_rejects_a_count_pair(self):
        with pytest.raises(UnknownGeneratorError, match=r"face \('x', 1\) has no dimension-0 generator"):
            ParityStructure.build([("x", 0, [], []), ("y", 0, [], []), ("e", 1, [("x", 1)], ["y"])])

    @pytest.mark.parametrize("neg", [["x", "x"], [("x", 1), "x"], [("x", 2)], {"x": 2}])
    def test_additive_build_sums_repeats(self, neg):
        s = AdditiveParityStructure.build([("x", 0, [], []), ("y", 0, [], []), ("e", 1, neg, ["y"])])
        assert s.neg(E) == Multiset(0, {X: 2})
        assert s.pos(E) == Multiset.of(Y)

    def test_repr(self, oriental2):
        assert repr(oriental2) == "<ParityStructure {0: 3, 1: 3, 2: 1}>"
        assert repr(oriental2.to_additive()) == "<AdditiveParityStructure {0: 3, 1: 3, 2: 1}>"

    def test_a_structure_never_equals_its_other_view(self, oriental2):
        additive = oriental2.to_additive()
        assert oriental2 != additive and additive != oriental2
        assert not oriental2 == additive and not additive == oriental2
        for s in (oriental2, additive):
            with pytest.raises(TypeError):
                hash(s)

    def test_as_parity_rejects_a_count_2_face(self):
        s = AdditiveParityStructure.build([("x", 0, [], []), ("y", 0, [], []), ("e", 1, {"x": 2}, ["y"])])
        assert not s.is_subset_valued()
        with pytest.raises(StructureError) as info:
            s.as_parity()
        assert type(info.value) is StructureError
        assert str(info.value) == "structure has multiset faces with counts >= 2"

    def test_skeleton_keeps_the_class(self, oriental2):
        for s in (oriental2, oriental2.to_additive()):
            for n in (0, 1, 2):
                assert type(skeleton(s, n)) is type(s)

    def test_face_values_keep_their_form(self, oriental2):
        g = oriental2.gen("012")
        assert type(oriental2.neg(g)) is frozenset and type(oriental2.pos(g)) is frozenset
        additive = oriental2.to_additive()
        assert type(additive.neg(g)) is Multiset and type(additive.pos(g)) is Multiset
        assert frozenset(additive.neg(g)) == oriental2.neg(g)


def boundary_parts(struct, s):
    """The (negative, positive) parts of the boundary of a multiset: the
    differences of its count-weighted negative and positive face images."""
    return from_structure(struct).boundary(s.to_vector()).parts()


class TestFaceImages:
    def test_oriental2_pair(self, oriental2):
        s = mset(oriental2, 1, "01", "12")
        assert boundary_parts(oriental2.to_additive(), s) == (mset(oriental2, 0, "0"), mset(oriental2, 0, "2"))

    def test_empty_multiset(self, oriental2):
        assert not any(boundary_parts(oriental2.to_additive(), Multiset(1)))

    def test_singleton_gives_faces(self, oriental2):
        additive = oriental2.to_additive()
        g = additive.gen("012")
        assert boundary_parts(additive, Multiset.of(g)) == (additive.neg(g), additive.pos(g))

    def test_counts_weight_the_images(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1}, {"w": 2})]
        )
        neg, pos = boundary_parts(s, Multiset(1, {s.gen("x"): 3}))
        assert neg == Multiset(0, {s.gen("v"): 3}) and pos == Multiset(0, {s.gen("w"): 6})

    def test_dimension_zero_rejected(self, oriental2):
        with pytest.raises(StructureError, match="boundary needs a chain of dimension >= 1"):
            boundary_parts(oriental2.to_additive(), Multiset(0))


class TestSubsetFaces:
    def test_oriental2_pair(self, oriental2):
        f = subset_faces(oriental2, 1, sub(oriental2, 1, "01", "12"))
        assert names(f.neg) == ["0", "1"]
        assert names(f.pos) == ["1", "2"]
        assert names(f.neg_only) == ["0"]
        assert names(f.pos_only) == ["2"]

    def test_singleton(self, oriental2):
        g = oriental2.gen("012")
        f = subset_faces(oriental2, 2, {g})
        assert f.neg_only == oriental2.neg(g)
        assert f.pos_only == oriental2.pos(g)

    def test_empty(self, oriental2):
        f = subset_faces(oriental2, 1, frozenset())
        assert all(not part for part in f)


class TestWellFormed:
    def test_composable_pair(self, oriental2):
        assert is_well_formed(oriental2, 1, sub(oriental2, 1, "01", "12"))

    def test_shared_source_fails(self, oriental2):
        assert not is_well_formed(oriental2, 1, sub(oriental2, 1, "01", "02"))

    def test_dimension_zero(self, oriental2):
        assert is_well_formed(oriental2, 0, sub(oriental2, 0, "0"))
        assert not is_well_formed(oriental2, 0, sub(oriental2, 0, "0", "1"))
        assert not is_well_formed(oriental2, 0, frozenset())

    def test_empty_is_well_formed_above_zero(self, oriental2):
        assert is_well_formed(oriental2, 1, frozenset())


class TestAtomFaces:
    def test_globe_top(self, globe2):
        neg, pos = atom_faces(globe2, globe2.gen("top"))
        assert [names(level) for level in neg] == [["e0-"], ["e1-"], ["top"]]
        assert [names(level) for level in pos] == [["e0+"], ["e1+"], ["top"]]

    def test_oriental2_triangle(self, oriental2):
        neg, pos = atom_faces(oriental2, oriental2.gen("012"))
        assert [names(level) for level in neg] == [["0"], ["02"], ["012"]]
        assert [names(level) for level in pos] == [["2"], ["01", "12"], ["012"]]

    def test_dim0_base_case(self, oriental2):
        neg, pos = atom_faces(oriental2, oriental2.gen("0"))
        assert neg == pos == (frozenset({oriental2.gen("0")}),)

    def test_matches_additive_iteration_when_unital(self, oriental2):
        additive = oriental2.to_additive()
        for g in oriental2.all_generators():
            neg, pos = atom_faces(oriental2, g)
            neg_m, pos_m = iterated_boundaries(additive, g)
            assert [frozenset(m) for m in neg_m] == list(neg)
            assert [frozenset(m) for m in pos_m] == list(pos)


class TestMoves:
    # Each case also runs on the additive view; the subset and strict
    # modes read its face table, as they do for the parity structure.
    def test_oriental2_all_modes(self, oriental2):
        s = mset(oriental2, 1, "01", "12")
        m = mset(oriental2, 0, "0")
        p = mset(oriental2, 0, "2")
        for struct in (oriental2, oriental2.to_additive()):
            for mode in ("additive", "subset", "strict"):
                assert moves(struct, s, m, p, mode=mode)

    def test_empty_moves_anything_to_itself(self, oriental2):
        m = mset(oriental2, 0, "0", "1")
        assert moves(oriental2, Multiset(1), m, m, mode="additive")
        assert moves(oriental2, Multiset(1), m, m, mode="subset")

    def test_wrong_target(self, oriental2):
        s = mset(oriental2, 1, "01")
        m = mset(oriental2, 0, "0")
        p = mset(oriental2, 0, "2")
        for struct in (oriental2, oriental2.to_additive()):
            for mode in ("additive", "subset", "strict"):
                assert not moves(struct, s, m, p, mode=mode)

    def test_non_well_formed_s_is_an_error_in_subset_mode(self, oriental2):
        s = mset(oriental2, 1, "01", "02")  # shared source: not well-formed
        m = mset(oriental2, 0, "0")
        for struct in (oriental2, oriental2.to_additive()):
            assert moves(struct, s, m, m, mode="additive") in (True, False)  # no error
            for mode in ("subset", "strict"):
                with pytest.raises(ValueError, match="is not well-formed"):
                    moves(struct, s, m, m, mode=mode)

    def test_unknown_members_raise_in_every_mode(self, oriental2):
        # zz would cancel between m and p; it must not be taken as known
        zz = GeneratorId(1, "zz")
        s = mset(oriental2, 2, "012")
        m, p = mset(oriental2, 1, "02"), mset(oriental2, 1, "01", "12")
        for struct in (oriental2, oriental2.to_additive()):
            for mode in ("additive", "subset", "strict"):
                assert moves(struct, s, m, p, mode=mode)
                for m_, p_ in ((m + Multiset.of(zz), p + Multiset.of(zz)), (m + Multiset.of(zz), p)):
                    with pytest.raises(UnknownGeneratorError, match="'zz'"):
                        moves(struct, s, m_, p_, mode=mode)

    def test_dimension_mismatch(self, oriental2):
        with pytest.raises(DimensionMismatchError):
            moves(oriental2, Multiset(2), Multiset(0), Multiset(1))

    def test_strict_implies_subset_implies_additive(self, oriental2, globe2):
        # every well-formed subset moving between each fixture's columns
        for struct in (oriental2, globe2):
            additive = struct.to_additive()
            gens1 = list(struct.generators(1))
            import itertools

            for r in range(len(gens1) + 1):
                for combo in itertools.combinations(gens1, r):
                    s = Multiset(1, [(h, 1) for h in combo])
                    if not is_well_formed(struct, 1, frozenset(combo)):
                        continue
                    for m_gen in struct.generators(0):
                        for p_gen in struct.generators(0):
                            m = Multiset.of(m_gen)
                            p = Multiset.of(p_gen)
                            strict = moves(struct, s, m, p, mode="strict")
                            subset_ = moves(struct, s, m, p, mode="subset")
                            additive_ = moves(struct, s, m, p, mode="additive")
                            assert not strict or subset_
                            assert not subset_ or additive_


class TestValidate:
    def test_globes_are_parity_complexes(self):
        from paritykit.generators import globe

        for n in range(4):
            report = validate(globe(n))
            assert report.classification == "parity complex"
            assert not report.failures

    def test_oriental2_strong_witness_is_a_linear_extension(self, oriental2):
        report = validate(oriental2)
        assert report.classification == "parity complex"
        witness = report.witnesses["strongly_loop_free"]
        assert isinstance(witness, OrderWitness)
        (level, order), = witness.orders
        assert level is None
        position = {name: i for i, name in enumerate(order)}
        # solid-triangle constraints: x before y when x is a negative face
        # of y or y is a positive face of x
        for g in oriental2.all_generators():
            if g.dim == 0:
                continue
            for f in oriental2.neg(g):
                assert position[f.name] < position[g.name]
            for f in oriental2.pos(g):
                assert position[g.name] < position[f.name]

    def test_circle_flags_and_witness(self, circle):
        report = validate(circle)
        assert report.globular and report.unital and report.normal
        assert not report.weakly_loop_free
        assert report.classification == "additive parity complex"
        witness = report.witnesses["weakly_loop_free"]
        assert isinstance(witness, CycleWitness)
        assert witness.level == 1
        assert str(witness) in ("a → b → a", "b → a → b")

    def test_weak_not_strong_fixture(self, weak_not_strong):
        report = validate(weak_not_strong)
        assert report.classification == "weak parity complex"
        assert report.weakly_loop_free and report.steiner_loop_free
        assert not report.strongly_loop_free
        assert isinstance(report.witnesses["strongly_loop_free"], CycleWitness)

    def test_empty_structure_is_a_parity_complex(self):
        report = validate(ParityStructure.build([]))
        assert report.classification == "parity complex"

    def test_non_disjoint_faces_flagged(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1}, {"v": 1, "w": 1})]
        )
        report = validate(s)
        assert not report.disjoint
        assert report.classification == "parity structure only"
        assert any(f.axiom == "disjoint" for f in report.failures)

    def test_multiset_faces_cap_classification(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1}, {"w": 2})]
        )
        report = validate(s)
        assert report.classification in ("parity structure only", "additive parity complex")
        assert any("parity-structure view" in note for note in report.notes)

    def test_non_globular_named_in_failures(self):
        s = ParityStructure.build(
            [
                ("p", 0, [], []), ("q", 0, [], []), ("r", 0, [], []),
                ("a", 1, ["p"], ["q"]),
                ("b", 1, ["q"], ["r"]),
                ("F", 2, ["a"], ["b"]),
            ]
        )
        report = validate(s)
        assert not report.globular
        assert any(f.axiom == "globular" and f.generators == ("F",) for f in report.failures)

    def test_report_payload_stable(self, oriental2):
        payload = validate(oriental2).to_payload()
        assert list(payload["flags"]) == [
            "disjoint",
            "globular",
            "unital",
            "normal",
            "weakly_loop_free",
            "steiner_loop_free",
            "strongly_loop_free",
        ]


class TestSkeleton:
    def test_truncation(self, oriental2):
        s1 = skeleton(oriental2, 1)
        assert s1.max_dim == 1
        assert len(s1.generators(1)) == 3

    def test_identity_at_or_above_top(self, oriental2):
        assert skeleton(oriental2, 2) == oriental2
        assert skeleton(oriental2, 5) == oriental2

    def test_skeleton_preserves_true_flags(self, oriental3, weak_not_strong, circle):
        for struct in (oriental3, weak_not_strong, circle):
            full = validate(struct).flags()
            for n in range(struct.max_dim + 1):
                part = validate(skeleton(struct, n)).flags()
                for flag, value in full.items():
                    if value:
                        assert part[flag], (flag, n)

    def test_additive_skeleton(self):
        s = AdditiveParityStructure.build(
            [("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 1}, {"w": 2})]
        )
        assert skeleton(s, 0).dims() == (0,)


class TestWellFormedFaceAgreement:
    def test_boundaries_match_subset_faces_on_well_formed_subsets(self, oriental2, globe2):
        # on a well-formed subset the multiset face images are subsets and
        # the boundary differences agree with the subset-only parts
        from itertools import combinations

        for struct in (oriental2, globe2):
            additive = struct.to_additive()
            for dim in (1, 2):
                gens = list(struct.generators(dim))
                for r in range(len(gens) + 1):
                    for combo in combinations(gens, r):
                        subset = frozenset(combo)
                        if not is_well_formed(struct, dim, subset):
                            continue
                        s = Multiset(dim, [(h, 1) for h in subset])
                        neg_image, pos_image, _, _ = oracle_face_images(additive, s)
                        neg_boundary, pos_boundary = boundary_parts(additive, s)
                        sf = subset_faces(struct, dim, subset)
                        assert neg_image == Multiset(dim - 1, [(h, 1) for h in sf.neg])
                        assert pos_image == Multiset(dim - 1, [(h, 1) for h in sf.pos])
                        assert neg_boundary == Multiset(dim - 1, [(h, 1) for h in sf.neg_only])
                        assert pos_boundary == Multiset(dim - 1, [(h, 1) for h in sf.pos_only])

    def test_non_well_formed_faces_can_separate_the_two_globularity_forms(self):
        # two parallel negative faces: the subset reading collapses the
        # repetition, the additive reading does not; the validator follows
        # the subset definition for parity inputs while the chain check
        # sees the additive failure
        s = ParityStructure.build(
            [
                ("p", 0, [], []), ("q", 0, [], []),
                ("a", 1, ["p"], ["q"]),
                ("b", 1, ["p"], ["q"]),
                ("c", 1, ["p"], ["q"]),
                ("F", 2, ["a", "b"], ["c"]),
            ]
        )
        report = validate(s)
        assert report.globular  # subset form
        assert not report.unital  # the face pair {a, b} is not well-formed
        from paritykit.chain import check_complex, from_structure

        assert not check_complex(from_structure(s)).dd_zero


def rebuilt(struct):
    """An equal structure built anew, so nothing computed on struct is on it."""
    copy = skeleton(struct, struct.max_dim)
    assert copy == struct and copy is not struct
    return copy


class TestValidationIsComputedOnce:
    def test_same_report_on_every_call(self):
        for struct in (oriental(3), oriental(3).to_additive()):
            assert validate(struct) is validate(struct)

    def test_witnesses_are_read_only(self, oriental2):
        report = validate(oriental2)
        with pytest.raises(TypeError):
            report.witnesses["weakly_loop_free"] = None
        assert isinstance(report.witnesses["weakly_loop_free"], OrderWitness)

    def test_equality_ignores_the_cache(self):
        validated, fresh = oriental(2), oriental(2)
        validate(validated)
        assert validated == fresh
        assert validate(validated) == validate(fresh)

    @settings(deadline=None)
    @given(kind=st.sampled_from(["parity", "additive"]), seed=st.integers(0, 2**32 - 1))
    def test_cached_report_equals_a_fresh_one(self, kind, seed):
        struct = randstruct.random_structure(kind, random.Random(seed))
        first = validate(struct)
        assert validate(struct) is first
        fresh = validate(rebuilt(struct))
        assert fresh is not first
        assert first == fresh
        assert first.to_payload() == fresh.to_payload()


class TestNoAdditiveViewIsBuilt:
    def test_no_to_additive_call(self, monkeypatch):
        from paritykit.chain import check_complex, extract_structure, from_structure

        calls = []
        original = ParityStructure.to_additive
        monkeypatch.setattr(ParityStructure, "to_additive", lambda self: calls.append(self) or original(self))
        p = oriental(3)
        complex_ = from_structure(p)
        assert check_complex(complex_).unital
        assert complex_.structure is p
        assert calls == []
        assert extract_structure(complex_) == original(p)

    def test_equality_ignores_the_cache(self):
        from paritykit.chain import from_structure

        complexed, fresh = oriental(2), oriental(2)
        from_structure(complexed)
        assert complexed == fresh and fresh == complexed
        assert complexed.to_additive() == fresh.to_additive()


def count_atom_builds(monkeypatch) -> list:
    """The generators whose atom ``parity_core._atom`` builds from now on."""
    calls = []
    original = parity_core._atom

    def counting(table, dim, index):
        calls.append(table.gens[dim][index])
        return original(table, dim, index)

    monkeypatch.setattr(parity_core, "_atom", counting)
    return calls


class TestAtomColumnsAreBuiltOnce:
    def test_one_column_build_per_generator(self, monkeypatch):
        calls = count_atom_builds(monkeypatch)
        for struct in (oriental(5).to_additive(), oriental(5)):
            calls.clear()
            validate(struct)
            assert len(calls) == len(set(calls)) == len(struct) == 63

    @pytest.mark.parametrize("name", ["oriental4", "cube3-additive", "parting_atom"])
    def test_readers_build_no_further_atom(self, monkeypatch, name):
        # the parity view and the additive view share one face table, so
        # validating either builds the atoms that every reader of both reads
        from paritykit.cells import atom
        from paritykit.chain import check_complex

        struct = {
            "oriental4": oriental(4),
            "cube3-additive": cube(3).to_additive(),
            "parting_atom": load_fixture("parting_atom").value,
        }[name]
        validate(struct)
        calls = count_atom_builds(monkeypatch)
        check_complex(from_structure(struct))
        other = struct.to_additive() if isinstance(struct, ParityStructure) else struct.as_parity()
        for view in (struct, other):
            for gen in view.all_generators():
                atom(view, gen)
                atom_faces(view, gen)
                iterated_boundaries(view, gen)
        assert calls == []

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: oriental(5), "37e964b13619949184b066382f0fbf1dab245d9fa540148e3ddb85b0920141e1"),
            (lambda: cube(3), "5897b99bf47f3028c89ea6d597d34166a50da646397d18b68dab7ae8031c5667"),
        ],
    )
    def test_additive_reports_unchanged(self, build, digest):
        # SHA-256 of the canonical payload, recorded before the columns
        # were shared between unitality and Steiner loop-freeness.
        payload = validate(build().to_additive()).to_payload()
        text = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == digest


# ---------------------------------------------------------------------------
# the public face helpers against the Multiset algorithms they replaced


def oracle_face_images(struct, s):
    neg, pos = Multiset(s.dim - 1), Multiset(s.dim - 1)
    for g, count in s.items():
        for _ in range(count):
            neg, pos = neg + struct.neg(g), pos + struct.pos(g)
    return neg, pos, neg - pos, pos - neg


def oracle_iterated_boundaries(struct, gen):
    neg_levels, pos_levels = [Multiset.of(gen)], [Multiset.of(gen)]
    for _ in range(gen.dim):
        neg_levels.append(oracle_face_images(struct, neg_levels[-1])[2])
        pos_levels.append(oracle_face_images(struct, pos_levels[-1])[3])
    return tuple(neg_levels[::-1]), tuple(pos_levels[::-1])


def oracle_subset_faces(struct, members):
    neg = set().union(*(struct.neg(g) for g in members))
    pos = set().union(*(struct.pos(g) for g in members))
    return neg, pos, neg - pos, pos - neg


def oracle_atom_faces(struct, gen):
    neg_levels, pos_levels = [frozenset([gen])], [frozenset([gen])]
    for _ in range(gen.dim):
        neg_levels.append(frozenset(oracle_subset_faces(struct, neg_levels[-1])[2]))
        pos_levels.append(frozenset(oracle_subset_faces(struct, pos_levels[-1])[3]))
    return tuple(neg_levels[::-1]), tuple(pos_levels[::-1])


def oracle_is_well_formed(struct, dim, members):
    if dim == 0:
        return len(members) == 1
    return all(
        not (struct.neg(a) & struct.neg(b)) and not (struct.pos(a) & struct.pos(b))
        for a in members for b in members if a != b
    )


class TestFaceHelpersMatchTheMultisetAlgorithms:
    @settings(deadline=None)
    @given(kind=st.sampled_from(["parity", "additive", "deep"]), seed=st.integers(0, 2**32 - 1))
    def test_on_random_structures(self, kind, seed):
        rng = random.Random(seed)
        if kind == "deep":
            struct = randstruct.random_additive_structure(rng, max_gens=16, max_dim=4)
        else:
            struct = randstruct.random_structure(kind, rng)
        additive = struct.to_additive() if kind == "parity" else struct
        for gen in struct.all_generators():
            assert iterated_boundaries(additive, gen) == oracle_iterated_boundaries(additive, gen)
            if kind == "parity":
                assert atom_faces(struct, gen) == oracle_atom_faces(struct, gen)
        for dim in struct.dims():
            gens = struct.generators(dim)
            for _ in range(5):
                s = Multiset(dim, {g: c for g in gens if (c := rng.randint(0, 3))})
                if dim:
                    assert boundary_parts(additive, s) == oracle_face_images(additive, s)[2:]
                if kind == "parity":
                    members = frozenset(s)
                    assert is_well_formed(struct, dim, members) == oracle_is_well_formed(struct, dim, members)
                    if dim:
                        assert tuple(subset_faces(struct, dim, members)) == oracle_subset_faces(struct, members)


class TestValidateNeverRaises:
    def test_face_images_beyond_a_machine_word(self):
        # every count fits, but the face image of G counts x 2^64 times
        big = 2**32
        struct = AdditiveParityStructure.build([
            ("v", 0, {}, {}), ("w", 0, {}, {}),
            ("x", 1, ["v"], ["w"]), ("y", 1, ["v"], ["w"]),
            ("F", 2, {"x": big}, {"y": big}),
            ("G", 3, {"F": big}, {}),
        ])
        report = validate(struct)
        assert not report.globular and not report.unital
        assert report.failures[-1].detail == (
            f"iterated boundaries of G reach {{v:{big * big}}} and {{}}, not augmentation 1"
        )
        from paritykit.chain import check_complex, from_structure

        chain_report = check_complex(from_structure(struct))
        assert not chain_report.dd_zero and not chain_report.unital
        assert chain_report.failures[0][2] == f"dd(G) = +{big * big}x -{big * big}y"


class TestNoParityViewIsBuilt:
    def test_no_as_parity_call(self, monkeypatch):
        from paritykit.cells import enumerate_cells
        from paritykit.morphisms import GradedMorphism, check_strict_movement
        from conftest import load_fixture

        calls = []
        original = AdditiveParityStructure.as_parity

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(AdditiveParityStructure, "as_parity", counting)
        f = load_fixture("morphism_globe1_to_oriental2").value
        source, target = f.source.to_additive(), f.target.to_additive()
        g = GradedMorphism(source, target, {x: f.image(x) for x in source.all_generators()}, f.mode)
        assert check_strict_movement(g) and check_strict_movement(g)
        for _ in range(3):
            enumerate_cells(target, 2)
        assert calls == []

    def test_a_count_2_face_raises_in_subset_and_strict_mode(self):
        s = AdditiveParityStructure.build([("v", 0, {}, {}), ("w", 0, {}, {}), ("x", 1, {"v": 2}, {"w": 1})])
        x, v, w = (Multiset.of(s.gen(n)) for n in ("x", "v", "w"))
        assert not moves(s, x, v, w, mode="additive")
        for mode in ("subset", "strict"):
            with pytest.raises(StructureError, match=r"^structure has multiset faces with counts >= 2$"):
                moves(s, x, v, w, mode=mode)


class TestFaceValuesFromTheTable:
    """A structure keeps its faces only in its face table; ``neg`` and
    ``pos`` build them from its rows on request, in the class's form,
    equal to what ``build`` was given."""

    @staticmethod
    def expected(cls, dim, data):
        """The face value ``build`` was given, computed from the row alone."""
        if cls is ParityStructure:
            return frozenset(GeneratorId(dim, name) for name in data)
        counts = {}
        pairs = data.items() if isinstance(data, dict) else [(d, 1) if isinstance(d, str) else d for d in data]
        for name, count in pairs:
            counts[GeneratorId(dim, name)] = counts.get(GeneratorId(dim, name), 0) + count
        return Multiset(dim, counts)

    @pytest.mark.parametrize("population", sorted(test_report_digests.POPULATIONS))
    def test_faces_equal_the_build_input(self, population, monkeypatch):
        built = []
        for cls in (ParityStructure, AdditiveParityStructure):
            def recording(elements, cls=cls, build=cls.build):
                rows = list(elements)
                built.append((cls, rows, build(rows)))
                return built[-1][2]
            monkeypatch.setattr(cls, "build", recording)
        structs = test_report_digests.POPULATIONS[population]()
        assert built and len(structs) >= len(built)
        for cls, rows, struct in built:
            form = frozenset if cls is ParityStructure else Multiset
            for name, dim, neg, pos in rows:
                g = struct.gen(name, dim)
                if dim == 0:
                    with pytest.raises(StructureError):
                        struct.neg(g)
                    continue
                assert type(struct.neg(g)) is form and type(struct.pos(g)) is form
                assert struct.neg(g) == self.expected(cls, dim - 1, neg)
                assert struct.pos(g) == self.expected(cls, dim - 1, pos)
            assert len(struct) == len(rows)
        for s in structs:
            if isinstance(s, ParityStructure):
                view = s.to_additive()
                for g in s.all_generators():
                    if g.dim:
                        assert view.neg(g) == Multiset(g.dim - 1, [(h, 1) for h in s.neg(g)])
                        assert view.pos(g) == Multiset(g.dim - 1, [(h, 1) for h in s.pos(g)])

    def test_equality_is_unchanged(self, oriental2):
        additive = oriental2.to_additive()
        assert additive.as_parity() == oriental2 and additive == oriental2.to_additive()
        assert oriental2 != additive and additive != oriental2
        assert oriental2 != globe(2) and additive != globe(2).to_additive()
        assert skeleton(oriental2, 1) != oriental2 and skeleton(oriental2, 2) == oriental2
        for s in (oriental2, additive, ParityStructure.build([])):
            with pytest.raises(TypeError):
                hash(s)

    def test_an_empty_level_below_the_top(self):
        s = ParityStructure.build([("x", 0, [], []), ("F", 2, [], [])])
        assert s.dims() == (0, 2) and s.max_dim == 2 and s.generators(1) == ()
        assert skeleton(s, 1).dims() == (0,) and skeleton(s, 1).max_dim == 0
        for n in (-1, -2, -3):
            assert skeleton(s, n) == ParityStructure.build([])
        assert repr(s) == "<ParityStructure {0: 1, 2: 1}>"
        assert s.neg(s.gen("F")) == frozenset()


def outcome(fn, *args):
    """The value fn returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def oracle_moves(struct, s, m, p):
    """The movement equations on the count-weighted face images; members
    are looked up in s, m, p order."""
    for x in (s, m, p):
        for g in x:
            struct.require(g)
    _, _, neg_boundary, pos_boundary = oracle_face_images(struct, s)
    return neg_boundary == m - p and pos_boundary == p - m


class TestAdditiveMovesMatchTheMultisetEquations:
    @staticmethod
    def random_multiset(rng, dim, gens):
        """Counts up to 3, each generator absent half the time."""
        return Multiset(dim, {g: c for g in gens if (c := rng.choice((0, 0, 0, 1, 2, 3)))})

    def test_on_seeded_random_structures(self):
        moved = unmoved = 0
        for seed in range(150):
            rng = random.Random(seed)
            struct = randstruct.random_additive_structure(rng, max_gens=14, max_dim=3)
            top = struct.max_dim
            for dim in range(1, top + 3):
                gens, below = struct.generators(dim), struct.generators(dim - 1)
                for _ in range(6):
                    s = self.random_multiset(rng, dim, gens)
                    extra = self.random_multiset(rng, dim - 1, below)
                    _, _, neg_boundary, pos_boundary = oracle_face_images(struct, s)
                    triples = [
                        (s, self.random_multiset(rng, dim - 1, below), self.random_multiset(rng, dim - 1, below)),
                        (s, neg_boundary + extra, pos_boundary + extra),  # moves
                        (s, pos_boundary + extra, neg_boundary + extra),
                    ]
                    for s_, m, p in triples:
                        want = oracle_moves(struct, s_, m, p)
                        assert moves(struct, s_, m, p) is want
                        moved, unmoved = moved + want, unmoved + (not want)
                    # one unknown member in each of s, m and p, then in all three
                    s_, m, p = triples[1]
                    unknown = [x + Multiset.of(GeneratorId(x.dim, "zz")) for x in (s_, m, p)]
                    for i in range(3):
                        args = [s_, m, p]
                        args[i] = unknown[i]
                        want = outcome(oracle_moves, struct, *args)
                        assert want[0] is UnknownGeneratorError
                        assert outcome(moves, struct, *args) == want
                    want = outcome(oracle_moves, struct, *unknown)
                    assert want == (UnknownGeneratorError, f"generator 'zz' (dim {dim}) not in structure")
                    assert outcome(moves, struct, *unknown) == want
        assert moved > 1000 and unmoved > 1000

    def test_an_empty_s_above_the_top(self, oriental2):
        for struct in (oriental2.to_additive(), oriental2):
            m, p = mset(struct, 2, "012"), Multiset(2)
            assert moves(struct, Multiset(3), m, m) and moves(struct, Multiset(3), p, p)
            assert not moves(struct, Multiset(3), m, p) and not moves(struct, Multiset(3), p, m)
            assert moves(struct, Multiset(5), Multiset(4), Multiset(4))
            zz = Multiset.of(GeneratorId(4, "zz"))
            with pytest.raises(UnknownGeneratorError, match=r"^generator 'zz' \(dim 4\) not in structure$"):
                moves(struct, Multiset(5), zz, zz)
            with pytest.raises(UnknownGeneratorError, match=r"^generator 'zz' \(dim 5\) not in structure$"):
                moves(struct, Multiset.of(GeneratorId(5, "zz")), Multiset(4), Multiset(4))

    def test_face_images_above_the_top(self, oriental2):
        assert boundary_parts(oriental2.to_additive(), Multiset(4)) == (Multiset(3),) * 2


class TestSelfLoop:
    """a: u -> u, frozen in tests/fixtures/self_loop.json.  The faces of a
    share u, so it is not disjoint, and its atom's level 0 rows are empty,
    so it is not unital.  It is Steiner loop-free but not strongly
    loop-free, and this is intended: the boundary of a in the complex is
    u - u = 0, so the Steiner digraph, which reads boundaries, has no
    edge at a, while the strong digraph reads the face rows u -> a -> u."""

    def payload(self, unital_detail):
        return {
            "flags": {
                "disjoint": False,
                "globular": True,
                "unital": False,
                "normal": True,
                "weakly_loop_free": True,
                "steiner_loop_free": True,
                "strongly_loop_free": False,
            },
            "classification": "parity structure only",
            "witnesses": {
                "steiner_loop_free": {
                    "kind": "order",
                    "orders": [{"level": 0, "order": ["u", "a"]}, {"level": 1, "order": ["u", "a"]}],
                },
                "strongly_loop_free": {"kind": "cycle", "level": None, "cycle": ["u", "a"]},
                "weakly_loop_free": {"kind": "order", "orders": [{"level": 1, "order": ["a"]}]},
            },
            "failures": [
                {"axiom": "disjoint", "generators": ["a"], "detail": "negative and positive faces of a share {u}"},
                {"axiom": "unital", "generators": ["a"], "detail": unital_detail},
                {
                    "axiom": "strongly_loop_free",
                    "generators": ["u", "a"],
                    "detail": "directed cycle at level None: u → a → u",
                },
            ],
            "notes": ["globularity agrees in subset and additive form on all well-formed faces"],
        }

    def test_parity_payload(self):
        struct = load_fixture("self_loop").value
        assert isinstance(struct, ParityStructure)
        detail = "atom of a: negative level 0 = []; positive level 0 = [] not well-formed"
        assert validate(struct).to_payload() == self.payload(detail)

    def test_additive_payload(self):
        struct = load_fixture("self_loop").value.to_additive()
        detail = "iterated boundaries of a reach {} and {}, not augmentation 1"
        assert validate(struct).to_payload() == self.payload(detail)

    def test_the_complex_sees_no_boundary(self):
        struct = load_fixture("self_loop").value
        assert from_structure(struct).boundary_of(struct.gen("a")).is_zero()
