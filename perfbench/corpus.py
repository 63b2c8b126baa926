"""Seeded inputs for the paritykit benchmark.

The seed picks the random structures, the morphism chains and the cell
samples; the standard families and the two frozen fixtures are the same
for every seed.  The library only ever sees the generated structures,
morphisms and fixture texts.  Known answers live here too, so that each
output is checked against something other than the code under test.
"""

from __future__ import annotations

import random
from pathlib import Path

from paritykit import AdditiveParityStructure, CellTable, GeneratorId, GradedMorphism, Multiset, ParityStructure
from paritykit.parity_core import CLASS_WEAK

DATA = Path(__file__).resolve().parent / "data"

#: Cells per dimension, (family, n, max_dim) -> counts.  Computed once at
#: the seed and cross-checked there against atom_closure.
KNOWN_CELL_COUNTS = {
    ("globe", 1, 1): (2, 3),
    ("globe", 2, 2): (2, 4, 5),
    ("globe", 3, 3): (2, 4, 6, 7),
    ("globe", 4, 4): (2, 4, 6, 8, 9),
    ("globe", 5, 5): (2, 4, 6, 8, 10, 11),
    ("globe", 6, 6): (2, 4, 6, 8, 10, 12, 13),
    ("globe", 7, 7): (2, 4, 6, 8, 10, 12, 14, 15),
    ("globe", 8, 8): (2, 4, 6, 8, 10, 12, 14, 16, 17),
    ("oriental", 1, 1): (2, 3),
    ("oriental", 2, 2): (3, 7, 8),
    ("oriental", 3, 3): (4, 15, 23, 24),
    ("oriental", 4, 4): (5, 31, 74, 90, 91),
    ("oriental", 5, 5): (6, 63, 262, 439, 475, 476),
    ("oriental", 6, 2): (7, 127, 993),
    ("cube", 1, 1): (2, 3),
    ("cube", 2, 2): (4, 10, 11),
    ("cube", 3, 3): (8, 38, 56, 57),
    ("weak_not_strong", 0, 2): (3, 11, 12),
}


def generator_count(fam: str, n: int) -> int:
    """Generators of a standard family member, by formula."""
    return {"globe": 2 * n + 1, "oriental": 2 ** (n + 1) - 1, "cube": 3**n}[fam]


def frozen_text(name: str) -> str:
    """A frozen fixture from the benchmark's own data directory."""
    return (DATA / f"{name}.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# random structures


def random_additive(rng: random.Random, max_gens: int = 14, max_dim: int = 3) -> AdditiveParityStructure:
    """Raw random multiset faces; most of these fail some axiom early."""
    sizes = [rng.randint(1, 4)]
    budget = max_gens - sizes[0]
    while len(sizes) <= max_dim and budget > 0:
        size = rng.randint(1, min(4, budget))
        sizes.append(size)
        budget -= size
    rows = []
    for dim, size in enumerate(sizes):
        below = [f"g{dim - 1}_{i}" for i in range(sizes[dim - 1])] if dim else []
        for i in range(size):
            neg, pos = {}, {}
            for face in below:
                roll = rng.random()
                side = neg if roll < 0.35 else pos if roll < 0.7 else None
                if side is not None:
                    side[face] = 2 if rng.random() < 0.15 else 1
            rows.append((f"g{dim}_{i}", dim, neg, pos))
    return AdditiveParityStructure.build(rows)


def random_paths(rng: random.Random, max_gens: int = 14) -> ParityStructure:
    """Vertices on a line, edges going forward, 2-generators between two
    edge-disjoint parallel paths: globular by construction."""
    n_vertices = rng.randint(2, 4)
    rows = [(f"v{i}", 0, [], []) for i in range(n_vertices)]
    edges: list[tuple[str, int, int]] = []
    for i in range(rng.randint(1, max_gens - n_vertices - 2)):
        a = rng.randrange(n_vertices - 1)
        b = rng.randrange(a + 1, n_vertices)
        edges.append((f"e{i}", a, b))
        rows.append((f"e{i}", 1, [f"v{a}"], [f"v{b}"]))

    def paths(a: int, b: int) -> list[tuple[str, ...]]:
        if a == b:
            return [()]
        return [(name,) + rest for name, x, y in edges if x == a for rest in paths(y, b)]

    budget = max_gens - len(rows)
    faces = 0
    for _ in range(8):
        if faces >= min(3, budget):
            break
        a = rng.randrange(n_vertices - 1)
        b = rng.randrange(a + 1, n_vertices)
        candidates = [p for p in paths(a, b) if p]
        if len(candidates) < 2:
            continue
        src, tgt = rng.sample(candidates, 2)
        if set(src) & set(tgt):
            continue
        rows.append((f"F{faces}", 2, list(src), list(tgt)))
        faces += 1
    return ParityStructure.build(rows)


def random_weak_parity_complexes(rng: random.Random, count: int, api) -> list[ParityStructure]:
    """Random path structures that validate as weak parity complexes and
    have at least one 2-generator, so that they have composite 2-cells."""
    found = []
    while len(found) < count:
        struct = random_paths(rng)
        if struct.max_dim == 2 and api.validate(struct).meets(CLASS_WEAK):
            found.append(struct)
    return found


# ---------------------------------------------------------------------------
# morphisms between family members


def coface_names(skip: int):
    """Name map oriental(n-1) -> oriental(n) that skips vertex `skip`."""
    return lambda word: "".join(str(int(c) + (int(c) >= skip)) for c in word)


def bit_insertion_names(at: int, bit: str):
    """Name map cube(n-1) -> cube(n) inserting `bit` at position `at`."""

    def mapped(word: str) -> str:
        word = "" if word == "e" else word
        return word[:at] + bit + word[at:]

    return mapped


def family_maps(fam: str, n: int) -> list[tuple[str, object]]:
    """Every coface (oriental) or bit-insertion (cube) map into size n."""
    if fam == "oriental":
        return [(f"d{i}", coface_names(i)) for i in range(n + 1)]
    return [(f"i{at}{bit}", bit_insertion_names(at, bit)) for at in range(n) for bit in "01"]


def name_morphism(source, target, names) -> GradedMorphism:
    """The structure map sending each generator to the one named names(g)."""
    assignment = {
        g: Multiset.of(GeneratorId(g.dim, names(g.name))) for g in source.all_generators()
    }
    return GradedMorphism(source, target, assignment, "weak_parity")


def compose_names(*maps):
    """The name map applying `maps` from left to right."""

    def composed(word: str) -> str:
        for names in maps:
            word = names(word)
        return word

    return composed


def map_cell(cell, names):
    """The image of a cell table under a generator-to-generator name map,
    computed column by column without the morphism code."""

    def column(ms):
        return Multiset(ms.dim, {GeneratorId(ms.dim, names(g.name)): c for g, c in ms.items()})

    return CellTable([column(c) for c in cell.neg], [column(c) for c in cell.pos])
