"""Seeded generators of small structures for property sweeps.

Two populations: raw random face data (mostly failing the axioms, good
for exercising both flag values), and structured parallel-path builds
(globular by construction, often unital and loop-free).  Also the
bounded search for a weakly-but-not-strongly-loop-free parity
structure used by acceptance criterion A8, and the search for a
smallest atom whose subset and multiset readings part.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from paritykit.multiset import Multiset
from paritykit.parity_core import (
    AdditiveParityStructure,
    CLASS_WEAK,
    ParityStructure,
    atom_faces,
    iterated_boundaries,
    validate,
)


def random_additive_structure(rng: random.Random, max_gens: int = 12, max_dim: int = 2) -> AdditiveParityStructure:
    """Raw random face data over up to max_dim+1 dimensions."""
    n0 = rng.randint(1, 4)
    sizes = [n0]
    budget = max_gens - n0
    for _ in range(max_dim):
        size = rng.randint(0, min(4, budget))
        sizes.append(size)
        budget -= size
        if size == 0:
            break
    rows: list[tuple[str, int, dict, dict]] = []
    names: list[list[str]] = []
    for dim, size in enumerate(sizes):
        names.append([f"d{dim}x{i}" for i in range(size)])
        for name in names[dim]:
            if dim == 0:
                rows.append((name, 0, {}, {}))
                continue
            below = names[dim - 1]
            neg: dict[str, int] = {}
            pos: dict[str, int] = {}
            for face in below:
                roll = rng.random()
                if roll < 0.35:
                    neg[face] = 1 if rng.random() < 0.85 else 2
                elif roll < 0.7:
                    pos[face] = 1 if rng.random() < 0.85 else 2
            rows.append((name, dim, neg, pos))
    return AdditiveParityStructure.build(rows)


def random_structure(kind: str, rng: random.Random) -> AdditiveParityStructure | ParityStructure:
    """A random_structured_parity ("parity") or random_additive_structure ("additive")."""
    if kind == "parity":
        return random_structured_parity(rng)
    return random_additive_structure(rng)


def random_structured_parity(rng: random.Random, max_gens: int = 12) -> ParityStructure:
    """Parallel-path builds on a small vertex chain; globular by construction.

    Vertices form a chain; 1-generators are chain or skip edges; each
    2-generator's face pair is two parallel paths through the chain.
    """
    n_vertices = rng.randint(2, 4)
    vertices = [f"v{i}" for i in range(n_vertices)]
    rows: list[tuple[str, int, list[str], list[str]]] = [(v, 0, [], []) for v in vertices]

    edges: dict[str, tuple[int, int]] = {}
    n_edges = rng.randint(1, max(1, max_gens - n_vertices - 1))
    for i in range(n_edges):
        a = rng.randrange(n_vertices - 1)
        b = rng.randrange(a + 1, n_vertices)
        name = f"e{i}"
        edges[name] = (a, b)
        rows.append((name, 1, [vertices[a]], [vertices[b]]))

    def paths_between(a: int, b: int) -> list[tuple[str, ...]]:
        if a == b:
            return [()]
        out = []
        for name, (x, y) in edges.items():
            if x == a:
                out.extend((name,) + rest for rest in paths_between(y, b))
        return out

    remaining = max_gens - n_vertices - n_edges
    n_faces = rng.randint(0, max(0, min(2, remaining)))
    count = 0
    for attempt in range(8):
        if count >= n_faces:
            break
        a = rng.randrange(n_vertices - 1)
        b = rng.randrange(a + 1, n_vertices)
        paths = [p for p in paths_between(a, b) if p]
        if len(paths) < 2:
            continue
        src, tgt = rng.sample(paths, 2)
        if set(src) & set(tgt):
            continue
        rows.append((f"F{count}", 2, list(src), list(tgt)))
        count += 1
    return ParityStructure.build(rows)


# ---------------------------------------------------------------------------
# A8 search


def _three_vertex_candidates(n_uv: int, n_vw: int, n_uw: int, n_faces: int):
    """Parity structures on vertices u -> v -> w with the given edge counts
    and one or two 2-generators whose faces are disjoint parallel paths."""
    rows_base: list[tuple[str, int, list[str], list[str]]] = [
        ("u", 0, [], []), ("v", 0, [], []), ("w", 0, [], []),
    ]
    uv = [f"a{i}" for i in range(n_uv)]
    vw = [f"b{i}" for i in range(n_vw)]
    uw = [f"c{i}" for i in range(n_uw)]
    for name in uv:
        rows_base.append((name, 1, ["u"], ["v"]))
    for name in vw:
        rows_base.append((name, 1, ["v"], ["w"]))
    for name in uw:
        rows_base.append((name, 1, ["u"], ["w"]))
    paths: list[tuple[str, ...]] = [(a, b) for a in uv for b in vw] + [(c,) for c in uw]
    pairs = [
        (src, tgt)
        for src, tgt in product(paths, repeat=2)
        if src != tgt and not (set(src) & set(tgt))
    ]
    if n_faces == 1:
        for f_src, f_tgt in pairs:
            yield ParityStructure.build(
                rows_base + [("F", 2, list(f_src), list(f_tgt))]
            )
        return
    for (f_src, f_tgt), (g_src, g_tgt) in combinations(pairs, 2):
        yield ParityStructure.build(
            rows_base
            + [
                ("F", 2, list(f_src), list(f_tgt)),
                ("G", 2, list(g_src), list(g_tgt)),
            ]
        )


def search_weak_not_strong(
    max_generators: int,
    seed: int = 0,
    random_attempts: int = 400,
) -> ParityStructure | None:
    """Find a weak parity complex that is not strongly loop-free.

    Random structured attempts first, then (within the generator budget)
    a systematic sweep of the three-vertex two-face family.  Returns
    None when the bound admits nothing the search can see.
    """
    rng = random.Random(seed)
    for _ in range(random_attempts):
        candidate = random_structured_parity(rng, max_gens=max_generators)
        if len(candidate) > max_generators:
            continue
        report = validate(candidate)
        if report.meets(CLASS_WEAK) and not report.strongly_loop_free:
            return candidate
    for n_faces in (1, 2):
        budget = max_generators - 3 - n_faces
        if budget < 0:
            continue
        for n_uv in range(budget + 1):
            for n_vw in range(budget - n_uv + 1):
                for n_uw in range(budget - n_uv - n_vw + 1):
                    for candidate in _three_vertex_candidates(n_uv, n_vw, n_uw, n_faces):
                        report = validate(candidate)
                        if report.meets(CLASS_WEAK) and not report.strongly_loop_free:
                            return candidate
    return None


# ---------------------------------------------------------------------------
# where the subset and multiset readings of an atom part


def random_raw_parity(rng: random.Random, n_gens: int) -> ParityStructure:
    """n_gens generators over consecutive dimensions from 0, each face one
    dimension down drawn negative, positive or neither."""
    sizes = [1]
    for _ in range(n_gens - 1):
        if rng.random() < 0.5:
            sizes.append(1)
        else:
            sizes[rng.randrange(len(sizes))] += 1
    rows, below = [], []
    for dim, size in enumerate(sizes):
        names = [f"d{dim}x{i}" for i in range(size)]
        for name in names:
            neg, pos = [], []
            for face in below:
                roll = rng.random()
                if roll < 0.4:
                    neg.append(face)
                elif roll < 0.8:
                    pos.append(face)
            rows.append((name, dim, neg, pos))
        below = names
    return ParityStructure.build(rows)


def parting_levels(struct: ParityStructure) -> list[tuple[str, int, str, int]]:
    """(generator, dim, side, level) wherever a level of the generator's
    atom differs as a subset (atom_faces) and as a multiset
    (iterated_boundaries): never while every level above is well-formed."""
    out = []
    additive = struct.to_additive()
    for gen in struct.all_generators():
        subsets, multisets = atom_faces(struct, gen), iterated_boundaries(additive, gen)
        for side, levels, counts in zip(("negative", "positive"), subsets, multisets):
            out.extend((gen.name, gen.dim, side, k) for k in range(gen.dim + 1)
                       if Multiset(k, dict.fromkeys(levels[k], 1)) != counts[k])
    return out


def search_parting_atom(max_generators: int, seed: int = 0, attempts: int = 200) -> ParityStructure | None:
    """The first parity structure with an atom whose subset and multiset
    readings part, among random_raw_parity draws of 1, 2, ... generators up
    to max_generators, so one of least size among the draws; None when no
    draw within the bound parts."""
    rng = random.Random(seed)
    for n_gens in range(1, max_generators + 1):
        for _ in range(attempts):
            candidate = random_raw_parity(rng, n_gens)
            if parting_levels(candidate):
                return candidate
    return None
