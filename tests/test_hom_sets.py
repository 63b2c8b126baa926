"""The paper's equivalence, checked hom-set by hom-set on small structures.

Between two weak parity complexes, a backtracking enumerator lists every
normal map (dimension-0 images are single generators) whose images are
multisets with counts at most 2, one dimension at a time, cutting a
branch as soon as a generator's image can satisfy neither mode's
condition.  On every map it compares the additive hom-set (valid in
additive mode, normal) with the weak-parity hom-set (valid in
weak-parity mode).  The theorem predicts that every additive map is
subset-valued and that the two hom-sets are equal; each valid map must
also come back from its induced chain map.  On the Steiner side, each
assignment is also built as a chain map of the free complexes: it
commutes with the boundary and preserves the augmentation exactly when
it is a valid, normal additive map.  Every 8th valid map of each pair,
in enumeration order, must send each enumerated source cell to a valid
target cell equal to the column-by-column image, and the image must
commute with the cell operations: the image of each face and of the
identity is that face and the identity of the image, and the images of
the cell's excision slices compose back to the image of the cell.

The pool is fixed: the weak parity complexes among seed-7
``random_structured_parity(max_gens=7)`` draws, plus globe(1),
oriental(2) and ``weak_not_strong``.  A mismatch is a finding, to be
frozen as a fixture, never filtered out.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import product

import pytest

import randstruct
from conftest import load_fixture
from paritykit.cells import CellTable, compose, enumerate_cells, excision_decompose, face, identity, validate_cell
from paritykit.chain import from_structure
from paritykit.generators import globe, oriental
from paritykit.morphisms import (
    ChainMap,
    GradedMorphism,
    MorphismError,
    apply_to_cell,
    induced_chain_map,
    morphism_from_chain_map,
    validate_morphism,
)
from paritykit.multiset import Multiset, SignedVector
from paritykit.parity_core import CLASS_WEAK, is_well_formed, moves, validate

pytestmark = pytest.mark.frozen

DRAWS = 8
#: One valid map in this many has its cell images checked.
CELL_SAMPLE = 8


def _pool():
    rng = random.Random(7)
    drawn = [randstruct.random_structured_parity(rng, max_gens=7) for _ in range(DRAWS)]
    weak = [s for s in drawn if validate(s).meets(CLASS_WEAK)]
    return [*weak, globe(1), oriental(2), load_fixture("weak_not_strong").value]


def _steiner(source, target, assignment):
    """Does the assignment, read as a chain map of the free complexes,
    commute with the boundary and preserve the augmentation?"""
    try:
        cm = ChainMap(source, target, {g: image.to_vector() for g, image in assignment.items()})
    except MorphismError:
        return False
    return all(target.augmentation(cm.image(g)) == 1 for g in source.generators(0))


def _candidates(target, dim):
    """Every multiset of dimension-``dim`` generators (dim >= 1) with
    counts at most 2, by boundary, and the subsets among them that are
    well-formed."""
    gens = target.generators(dim)
    complex_ = from_structure(target)
    by_boundary: dict[SignedVector, list[Multiset]] = {}
    well_formed = []
    for counts in product(range(3), repeat=len(gens)):
        image = Multiset(dim, {g: c for g, c in zip(gens, counts) if c})
        by_boundary.setdefault(complex_.boundary(image.to_vector()), []).append(image)
        if max(counts, default=0) <= 1 and is_well_formed(target, dim, image):
            well_formed.append(image)
    return by_boundary, well_formed


def _normal_maps(source, target):
    """Assignments of every normal map with counts at most 2 whose every
    generator passes the additive or the weak-parity movement condition."""
    points = [Multiset.of(h) for h in target.generators(0)]
    candidates = {d: _candidates(target, d) for d in source.dims() if d}
    gens = list(source.all_generators())
    assignment: dict = {}

    def images(g):
        if g.dim == 0:
            return points
        by_boundary, well_formed = candidates[g.dim]
        faces = source.neg(g), source.pos(g)  # subsets: the pool holds parity structures
        zero = SignedVector(g.dim - 1)
        m, p = (sum((assignment[f].to_vector() for f in side), zero) for side in faces)
        out = list(by_boundary.get(p - m, ()))  # additive: d(image) = f(pos) - f(neg)
        if all(assignment[f].is_radical() for side in faces for f in side):
            m, p = (
                Multiset(g.dim - 1, [(h, 1) for h in set().union(*(frozenset(assignment[f]) for f in side))])
                for side in faces
            )
            out += [x for x in well_formed if x not in out and moves(target, x, m, p, "subset")]
        return out

    def search(k):
        if k == len(gens):
            yield dict(assignment)
            return
        for image in images(gens[k]):
            assignment[gens[k]] = image
            yield from search(k + 1)
        assignment.pop(gens[k], None)

    return search(0)


def _cell_image_failures(f, cells, slices):
    """The source cells whose image under f is not a valid target cell
    equal to the table of the columns' images, or does not commute with
    faces, the identity and the composite of the cell's slices."""
    for cell, parts in zip(cells, slices):
        image = apply_to_cell(f, cell)
        columns = CellTable(*([f.apply_multiset(c) for c in row] for row in (cell.neg, cell.pos)))
        if validate_cell(f.target, image) != (True, None) or image != columns or str(image) != str(columns):
            yield "image", cell
        faces = [(k, sign) for k in range(cell.dim) for sign in ("source", "target")]
        if any(apply_to_cell(f, face(cell, k, sign)) != face(image, k, sign) for k, sign in faces):
            yield "face", cell
        if apply_to_cell(f, identity(cell)) != identity(image):
            yield "identity", cell
        images = [apply_to_cell(f, part) for part in parts]
        if images and reduce(lambda x, y: compose(x, y, cell.dim - 1), images) != image:
            yield "composite", cell


POOL = _pool()
PAIRS = [(i, j) for i in range(len(POOL)) for j in range(len(POOL))]
CELLS = [enumerate_cells(s, s.max_dim) for s in POOL]
#: Each cell's excision slices; none for a point or an identity.
SLICES = [[excision_decompose(s, c) if c.dim else [] for c in cells] for s, cells in zip(POOL, CELLS)]


def test_the_pool_holds_weak_parity_complexes():
    assert len(POOL) == 11
    assert all(validate(s).meets(CLASS_WEAK) for s in POOL)


def test_slices_compose_back_to_their_cell():
    for cells, slices in zip(CELLS, SLICES):
        for cell, parts in zip(cells, slices):
            assert not parts or reduce(lambda x, y: compose(x, y, cell.dim - 1), parts) == cell


@pytest.mark.parametrize("i, j", PAIRS)
def test_additive_and_weak_parity_hom_sets_agree(i, j):
    source, target = POOL[i], POOL[j]
    complexes = from_structure(source), from_structure(target)
    mismatches = []
    valid = 0
    for assignment in _normal_maps(source, target):
        f = GradedMorphism(source, target, assignment, "additive")
        additive = validate_morphism(f, "additive").valid and f.is_normal()
        if _steiner(*complexes, assignment) != additive:
            mismatches.append((f"additive {additive}, Steiner {not additive}", assignment))
        subset_valued = all(image.is_radical() for image in assignment.values())
        weak = subset_valued and validate_morphism(GradedMorphism(source, target, assignment)).valid
        if additive and not subset_valued:
            mismatches.append(("additive map with a count >= 2", assignment))
        if additive != weak:
            mismatches.append((f"additive {additive}, weak parity {weak}", assignment))
        if additive and morphism_from_chain_map(induced_chain_map(f)) != f:
            mismatches.append(("chain map round trip", assignment))
        if additive and valid % CELL_SAMPLE == 0:
            failures = _cell_image_failures(f, CELLS[i], SLICES[i])
            mismatches += [(f"cell {what}", assignment, cell) for what, cell in failures]
        valid += additive
    assert mismatches == []
