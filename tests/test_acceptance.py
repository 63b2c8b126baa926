"""Acceptance criteria A1-A10, one test per criterion.

Each test prints a single PASS line (visible with pytest -s) after its
assertions; every expected value is either pinned from an independent
oracle in this file or a structural property checked exhaustively.
"""

import random
import time
from itertools import combinations

import pytest

from conftest import lift, load_fixture
from randstruct import (
    random_additive_structure,
    random_structured_parity,
    search_weak_not_strong,
)

from paritykit import cells
from paritykit.cells import CellTable
from paritykit.chain import check_complex, extract_structure, from_structure
from paritykit.generators import cube, globe, oriental
from paritykit.morphisms import (
    GradedMorphism,
    apply_to_cell,
    check_strict_movement,
    compose_morphisms,
    identity_morphism,
    induced_chain_map,
    morphism_from_chain_map,
    validate_morphism,
)
from paritykit.multiset import Multiset
from paritykit.parity_core import (
    CLASS_PARITY_COMPLEX,
    CLASS_WEAK,
    CycleWitness,
    is_well_formed,
    validate,
)

A1_FAMILIES = (
    [("globe", globe, n) for n in range(7)]
    + [("oriental", oriental, n) for n in range(6)]
    + [("cube", cube, n) for n in range(5)]
)


def structure_corpus():
    corpus = [build(n) for _, build, n in A1_FAMILIES]
    corpus.append(load_fixture("circle").value)
    corpus.append(load_fixture("weak_not_strong").value)
    return corpus


@pytest.fixture(scope="module")
def a4_corpus():
    """(structure, max_dim, enumerated cells) for the cell-law corpus."""
    corpus = []
    for struct, max_dim in (
        (oriental(2), 2),
        (oriental(3), 3),
        (cube(2), 2),
        (globe(3), 3),
    ):
        corpus.append((struct, max_dim, cells.enumerate_cells(struct, max_dim)))
    return corpus


def test_a1_family_validation():
    started = time.time()
    for family_name, build, n in A1_FAMILIES:
        struct = build(n)
        report = validate(struct)
        assert report.classification == CLASS_PARITY_COMPLEX, (family_name, n)
        chain_report = check_complex(from_structure(struct))
        assert chain_report.dd_zero and chain_report.normal and chain_report.unital
        # agreement between the combinatorial and chain-level checks
        assert report.globular == chain_report.dd_zero
        assert report.normal == chain_report.normal
        assert report.unital == chain_report.unital
    elapsed = time.time() - started
    assert elapsed < 5.0, f"family validation took {elapsed:.1f}s"
    print(f"A1 PASS: {len(A1_FAMILIES)} family fixtures are parity complexes ({elapsed:.2f}s)")


def test_a2_generator_counts():
    from math import comb

    for n in range(6):
        s = oriental(n)
        for k in range(n + 1):
            assert len(s.generators(k)) == comb(n + 1, k + 1)
    for n in range(5):
        s = cube(n)
        for k in range(n + 1):
            assert len(s.generators(k)) == comb(n, k) * 2 ** (n - k)
    for n in range(7):
        assert len(globe(n)) == 2 * n + 1
    print("A2 PASS: generator counts match the binomial formulas exactly")


def test_a3_globularity_iff_dd_zero():
    started = time.time()
    checked = 0
    globular_seen = 0

    def check(struct):
        nonlocal checked, globular_seen
        report = validate(struct)
        chain_report = check_complex(from_structure(struct))
        assert report.globular == chain_report.dd_zero, struct
        checked += 1
        globular_seen += report.globular

    for struct in structure_corpus():
        check(struct)
    rng = random.Random(20260810)
    for _ in range(1000):
        check(random_additive_structure(rng))
    elapsed = time.time() - started
    assert elapsed < 10.0, f"A3 took {elapsed:.1f}s"
    assert globular_seen > 0 and globular_seen < checked
    print(
        f"A3 PASS: globular == (dd = 0) on {checked} structures "
        f"({globular_seen} globular, {elapsed:.2f}s)"
    )


def test_a4_cell_table_properties(a4_corpus):
    started = time.time()
    counts = []
    for struct, max_dim, enumerated in a4_corpus:
        complex_ = from_structure(struct)
        additive = struct.to_additive()
        counts.append([sum(1 for t in enumerated if t.dim == d) for d in range(max_dim + 1)])

        # every column of every cell is a well-formed subset, in both the
        # subset and the chain-level sense
        for t in enumerated:
            for column in (*t.neg, *t.pos):
                assert column.is_radical()
                assert is_well_formed(struct, column.dim, frozenset(column))
                assert column.dim or complex_.augmentation(column) == 1

        # column/boundary disjointness for every column pair
        for t in enumerated:
            for k in range(t.dim):
                for column in (t.neg[k + 1], t.pos[k + 1]):
                    for b in column:
                        assert not t.neg[k].meet(additive.pos(b))
                        assert not t.pos[k].meet(additive.neg(b))

        _check_omega_laws(struct, enumerated)

    assert counts[0] == [3, 7, 8]  # oriental-2 by dimension
    elapsed = time.time() - started
    assert elapsed < 60.0, f"A4 took {elapsed:.1f}s"
    sizes = ", ".join(str(len(e)) for _, _, e in a4_corpus)
    print(f"A4 PASS: cell columns, disjointness, and omega-category laws ({sizes} cells; {elapsed:.2f}s)")


def _face_cache(enumerated):
    cache = {}
    for t in enumerated:
        for k in range(t.dim):
            cache[(t, k, "source")] = cells.face(t, k, "source")
            cache[(t, k, "target")] = cells.face(t, k, "target")
    return cache


def _composable_pairs(enumerated, faces, k):
    by_source = {}
    for t in enumerated:
        if t.dim > k:
            by_source.setdefault((t.dim, faces[(t, k, "source")]), []).append(t)
    pairs = []
    for x in enumerated:
        if x.dim > k:
            for y in by_source.get((x.dim, faces[(x, k, "target")]), ()):
                pairs.append((x, y))
    return pairs


def _check_omega_laws(struct, enumerated):
    faces = _face_cache(enumerated)
    max_dim = max((t.dim for t in enumerated), default=0)

    # face and identity laws
    for t in enumerated:
        for k in range(t.dim):
            for sign in ("source", "target"):
                sub = faces[(t, k, sign)]
                for j in range(k):
                    for sign2 in ("source", "target"):
                        assert cells.face(sub, j, sign2) == faces[(t, j, sign2)]
        lifted = cells.identity(t)
        assert cells.face(lifted, t.dim, "source") == t
        assert cells.face(lifted, t.dim, "target") == t

    pairs_by_k = {k: _composable_pairs(enumerated, faces, k) for k in range(max_dim)}

    for k, pairs in pairs_by_k.items():
        composites = {}
        for x, y in pairs:
            z = cells.compose(x, y, k)
            composites[(x, y)] = z
            # units
            assert cells.compose(lift(faces[(x, k, "source")], x.dim), x, k) == x
            assert cells.compose(x, lift(faces[(x, k, "target")], x.dim), k) == x
            # sources and targets of composites
            assert cells.face(z, k, "source") == faces[(x, k, "source")]
            assert cells.face(z, k, "target") == faces[(y, k, "target")]
            for j in range(k + 1, x.dim):
                assert cells.face(z, j, "source") == cells.compose(
                    faces[(x, j, "source")], faces[(y, j, "source")], k
                )
                assert cells.face(z, j, "target") == cells.compose(
                    faces[(x, j, "target")], faces[(y, j, "target")], k
                )
            # identities are functorial for composition
            assert cells.identity(z) == cells.compose(cells.identity(x), cells.identity(y), k)

        # associativity over all composable triples
        by_left = {}
        for x, y in pairs:
            by_left.setdefault(x, []).append(y)
        for (x, y), xy in composites.items():
            for z in by_left.get(y, ()):
                lhs = cells.compose(xy, z, k)
                rhs = cells.compose(x, composites[(y, z)], k)
                assert lhs == rhs

    # interchange over all grids
    for k in range(max_dim):
        for m in range(max_dim):
            if k == m:
                continue
            pairs = [p for p in pairs_by_k[k] if p[0].dim > max(k, m)]
            by_sources = {}
            for z, w in pairs:
                key = (z.dim, faces[(z, m, "source")], faces[(w, m, "source")])
                by_sources.setdefault(key, []).append((z, w))
            for x, y in pairs:
                key = (x.dim, faces[(x, m, "target")], faces[(y, m, "target")])
                for z, w in by_sources.get(key, ()):
                    lhs = cells.compose(cells.compose(x, y, k), cells.compose(z, w, k), m)
                    rhs = cells.compose(cells.compose(x, z, m), cells.compose(y, w, m), k)
                    assert lhs == rhs


def test_a5_excision(a4_corpus):
    checked = 0
    for struct, _, enumerated in a4_corpus:
        additive = struct.to_additive()
        for t in enumerated:
            if t.dim == 0 or t.is_identity():
                continue
            slices = cells.excision_decompose(struct, t)
            tops = []
            recomposed = None
            for s in slices:
                assert s.top.is_radical() and len(s.top) == 1
                tops.append(next(iter(s.top)))
                recomposed = s if recomposed is None else cells.compose(recomposed, s, t.dim - 1)
            assert recomposed == t
            total = Multiset(t.dim)
            for b in tops:
                total = total + Multiset.of(b)
            assert total == t.top
            for i in range(len(tops)):
                for j in range(i + 1):
                    assert additive.pos(tops[i]).disjoint(additive.neg(tops[j]))
            checked += 1
    print(f"A5 PASS: excision decomposition verified on {checked} non-identity cells")


def test_a6_free_generation(a4_corpus):
    total = 0
    for struct, max_dim, enumerated in a4_corpus:
        closure = cells.atom_closure(struct, max_dim)
        for t in enumerated:
            expr = closure.get(t)
            assert expr is not None, f"cell not generated by atoms: {t}"
            assert expr.evaluate(struct) == t
        total += len(enumerated)
    print(f"A6 PASS: all {total} corpus cells reached from atoms with exact witnesses")


def test_a7_equivalence_roundtrip():
    count = 0
    for struct in structure_corpus():
        additive = struct.to_additive() if hasattr(struct, "to_additive") else struct
        recovered = extract_structure(from_structure(struct))
        assert recovered == additive
        # bijective on generators and face-preserving, explicitly:
        assert list(recovered.all_generators()) == list(additive.all_generators())
        for g in additive.all_generators():
            if g.dim:
                assert recovered.neg(g) == additive.neg(g)
                assert recovered.pos(g) == additive.pos(g)
        count += 1

    morphisms = [
        load_fixture("morphism_globe1_to_oriental2").value,
        load_fixture("morphism_collapse_globe1").value,
        identity_morphism(oriental(2)),
    ]
    for f in morphisms:
        back = morphism_from_chain_map(induced_chain_map(f))
        for g in f.source.all_generators():
            assert back.image(g) == f.image(g)
    print(f"A7 PASS: {count} structure round-trips and {len(morphisms)} morphism round-trips")


def test_a8_loop_freeness_separation():
    circle = load_fixture("circle").value
    report = validate(circle)
    assert report.globular and report.unital
    assert not report.weakly_loop_free
    witness = report.witnesses["weakly_loop_free"]
    assert isinstance(witness, CycleWitness)
    assert set(witness.cycle) == {"a", "b"}

    found = None
    bounds_tried = []
    for bound in (8, 10, 12):
        bounds_tried.append(bound)
        found = search_weak_not_strong(bound, seed=0)
        if found is not None:
            break
        print(f"A8: no weakly-but-not-strongly loop-free structure within {bound} generators; raising bound")
    assert found is not None, f"search exhausted bounds {bounds_tried}"
    found_report = validate(found)
    assert found_report.meets(CLASS_WEAK)
    assert found_report.weakly_loop_free and not found_report.strongly_loop_free

    frozen = load_fixture("weak_not_strong").value
    frozen_report = validate(frozen)
    assert frozen_report.classification == CLASS_WEAK
    assert frozen_report.weakly_loop_free and not frozen_report.strongly_loop_free
    assert isinstance(frozen_report.witnesses["strongly_loop_free"], CycleWitness)
    print(
        f"A8 PASS: circle cycle witness {witness}; separation found with "
        f"{len(found)} generators at bound {bounds_tried[-1]} and frozen in the corpus"
    )


def test_a9_morphism_theorems():
    g1, o2, o3 = globe(1), oriental(2), oriental(3)
    f = load_fixture("morphism_globe1_to_oriental2").value
    collapse = load_fixture("morphism_collapse_globe1").value
    inclusion = GradedMorphism(
        o2, o3, {g: Multiset.of(o3.gen(g.name, g.dim)) for g in o2.all_generators()}
    )
    corpus = [
        f,
        collapse,
        inclusion,
        identity_morphism(g1),
        identity_morphism(o2),
        compose_morphisms(f, inclusion),
    ]
    for morphism in corpus:
        assert validate_morphism(morphism).valid
        assert check_strict_movement(morphism)

    # composite unions are disjoint unions
    for left, right in ((f, inclusion), (identity_morphism(g1), f)):
        composite = compose_morphisms(left, right)
        for g in left.source.all_generators():
            union_size = len(
                set().union(*(frozenset(right.image(y)) for y in left.image(g)))
                if len(left.image(g))
                else set()
            )
            assert composite.image(g).is_radical()
            assert len(composite.image(g)) == union_size

    # the induced action on cells commutes with the category structure
    for morphism, universe_struct, max_dim in ((f, g1, 1), (inclusion, o2, 2)):
        universe = cells.enumerate_cells(universe_struct, max_dim)
        for t in universe:
            image = apply_to_cell(morphism, t)
            ok, reason = cells.validate_cell(morphism.target, image, "nu")
            assert ok, reason
            for k in range(t.dim):
                for sign in ("source", "target"):
                    assert apply_to_cell(morphism, cells.face(t, k, sign)) == cells.face(image, k, sign)
            if t.dim < max_dim:
                assert apply_to_cell(morphism, cells.identity(t)) == cells.identity(image)
        for x in universe:
            for y in universe:
                if x.dim != y.dim:
                    continue
                for k in range(x.dim):
                    if cells.face(x, k, "target") == cells.face(y, k, "source"):
                        assert apply_to_cell(morphism, cells.compose(x, y, k)) == cells.compose(
                            apply_to_cell(morphism, x), apply_to_cell(morphism, y), k
                        )
    print(f"A9 PASS: strict movement, disjoint composite unions, and cell functoriality on {len(corpus)} morphisms")


def test_a10_implication_chain():
    rng = random.Random(97)
    violations = 0
    strongly = steiner = weakly = 0
    for i in range(1000):
        if i % 2 == 0:
            struct = random_additive_structure(rng)
        else:
            struct = random_structured_parity(rng)
        report = validate(struct)
        strongly += report.strongly_loop_free
        steiner += report.steiner_loop_free
        weakly += report.weakly_loop_free
        if report.strongly_loop_free and not report.steiner_loop_free:
            violations += 1
        if report.steiner_loop_free and not report.weakly_loop_free:
            violations += 1
    assert violations == 0
    assert strongly > 0 and weakly >= steiner >= strongly
    print(
        f"A10 PASS: zero violations over 1000 structures "
        f"(strong {strongly} <= steiner {steiner} <= weak {weakly})"
    )
