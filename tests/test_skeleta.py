"""Skeleta and restriction, each against a second computation.

The n-skeleton of a structure and the restriction of a morphism to
n-skeleta carry the inductive arguments of Street 1991 and Steiner 2004.
Here ``skeleton(s, n)`` must equal the structure that ``build`` makes
from the rows of dimension <= n, read back through ``neg`` and ``pos``;
``restrict_morphism(f, n)`` must equal the ``GradedMorphism``
constructor on the images of those generators; and restriction must
commute with ``compose_morphisms`` and ``identity_morphism``.

The population is fixed: the three families, the structure fixtures in
both classes, and seeded ``randstruct`` draws, with the morphism
fixtures, oriental cofaces, identities and seeded random assignments
between the draws.
"""

from __future__ import annotations

import random

import pytest

import randstruct
from conftest import load_fixture
from paritykit.generators import cube, globe, oriental
from paritykit.morphisms import GradedMorphism, compose_morphisms, identity_morphism, restrict_morphism
from paritykit.multiset import Multiset
from paritykit.parity_core import ParityStructure, skeleton

MODES = ("weak_parity", "additive")
FIXTURES = ("circle", "weak_not_strong", "self_loop", "parting_atom")


def _structures():
    families = [globe(n) for n in range(4)] + [oriental(n) for n in range(5)] + [cube(n) for n in range(4)]
    fixed = [load_fixture(name).value for name in FIXTURES]
    rng = random.Random(27)
    drawn = [randstruct.random_structured_parity(rng, max_gens=9) for _ in range(12)]
    drawn += [randstruct.random_additive_structure(rng, max_gens=12, max_dim=3) for _ in range(12)]
    parity = [s for s in families + fixed + drawn if isinstance(s, ParityStructure)]
    return families + fixed + drawn + [s.to_additive() for s in parity]


STRUCTURES = _structures()


def rows_to(struct, n):
    """The (name, dim, neg, pos) rows of the generators of dimension <= n,
    with the faces read back as names (parity) or name counts (additive);
    a point has no faces."""
    if isinstance(struct, ParityStructure):
        faces = lambda value: sorted(g.name for g in value)
    else:
        faces = lambda value: {g.name: c for g, c in value.items()}
    return [
        (g.name, 0, [], []) if g.dim == 0 else (g.name, g.dim, faces(struct.neg(g)), faces(struct.pos(g)))
        for g in struct.all_generators() if g.dim <= n
    ]


def _random_map(rng, source, target, mode):
    """A GradedMorphism with random images of each generator's dimension:
    counts up to 2 in additive mode, subsets in weak-parity mode."""
    top = 2 if mode == "additive" else 1
    images = {
        g: Multiset(g.dim, {h: c for h in target.generators(g.dim) if (c := rng.randint(0, top))})
        for g in source.all_generators()
    }
    return GradedMorphism(source, target, images, mode)


def _cofaces(mode):
    """oriental(n-1) -> oriental(n), omitting vertex n, for n = 1..4."""
    out = []
    for n in range(1, 5):
        source, target = oriental(n - 1), oriental(n)
        images = {g: Multiset.of(target.gen(g.name, g.dim)) for g in source.all_generators()}
        out.append(GradedMorphism(source, target, images, mode))
    return out


def _morphisms():
    rng = random.Random(27)
    fixed = [load_fixture(name).value for name in ("morphism_globe1_to_oriental2", "morphism_collapse_globe1")]
    maps = fixed + [f for mode in MODES for f in _cofaces(mode)]
    maps += [identity_morphism(s, mode) for s in STRUCTURES[::3] for mode in MODES]
    pairs = [
        (randstruct.random_additive_structure(rng, max_gens=10, max_dim=3),
         randstruct.random_additive_structure(rng, max_gens=10, max_dim=3))
        for _ in range(8)
    ]
    maps += [_random_map(rng, s, t, mode) for s, t in pairs for mode in MODES]
    return maps


MORPHISMS = _morphisms()


def test_skeleton_is_the_structure_built_from_its_rows():
    checked = 0
    for s in STRUCTURES:
        for n in range(-2, s.max_dim + 2):
            part = skeleton(s, n)
            assert type(part) is type(s)
            assert part == type(s).build(rows_to(s, n)), (s, n)
            assert rows_to(part, n) == rows_to(s, n)
            checked += 1
    assert checked > 200


def test_restriction_is_the_constructor_on_the_restricted_images():
    for f in MORPHISMS:
        for n in range(-1, f.source.max_dim + 2):
            restricted = restrict_morphism(f, n)
            source, target = skeleton(f.source, n), skeleton(f.target, n)
            images = {g: f.image(g) for g in source.all_generators()}
            assert restricted == GradedMorphism(source, target, images, f.mode), (f, n)
            assert restricted.mode == f.mode


def test_restriction_commutes_with_identities():
    for s in STRUCTURES:
        for mode in MODES:
            for n in range(-1, s.max_dim + 2):
                assert restrict_morphism(identity_morphism(s, mode), n) == identity_morphism(skeleton(s, n), mode)


@pytest.mark.parametrize("mode", MODES)
def test_restriction_commutes_with_composition(mode):
    rng = random.Random(28)
    chains = [tuple(_cofaces(mode)[i:i + 2]) for i in range(3)]
    for _ in range(8):
        a, b, c = (randstruct.random_additive_structure(rng, max_gens=10, max_dim=3) for _ in range(3))
        if mode == "additive":
            chains.append((_random_map(rng, a, b, mode), _random_map(rng, b, c, mode)))
        chains.append((identity_morphism(a, mode), _random_map(rng, a, b, mode)))
    for f, g in chains:
        whole = compose_morphisms(f, g)
        for n in range(-1, f.source.max_dim + 2):
            assert restrict_morphism(whole, n) == compose_morphisms(restrict_morphism(f, n), restrict_morphism(g, n))
