"""`cells`: cell-table requests over weak parity complexes.

Per structure, a pass runs what `paritykit cells` does (enumerate_cells),
what `paritykit freeness` does (enumerate_cells against the atom_closure
key set), and then works on a seeded sample of the cells it enumerated:
excision recomposed with compose, faces and identities checked with
validate_cell, and the image under a coface or bit-insertion map.  The
search, the construction and the decomposition all run in one mix, so a
rewrite of one that slows another shows.  cube(4) is left out: one
enumeration of it takes tens of seconds.
"""

from __future__ import annotations

import hashlib
import random

from paritykit import atom_closure, face, identity

import corpus
from harness import Request

#: (family, n, max_dim) of the standard structures.
FAMILY_CASES = (
    *(("globe", n, n) for n in range(1, 9)),
    *(("oriental", n, n) for n in range(1, 6)),
    ("oriental", 6, 2),
    *(("cube", n, n) for n in range(1, 4)),
)
RANDOM_WEAK = 8
#: Sampled cells per structure and pass, for each sample kind.  Sixteen
#: excisions put the 90th percentile inside the cluster of oriental(4..5)
#: excisions; with eight it sat at the edge of that cluster and moved
#: with the seed.
SAMPLES = {"excision": 16, "faces": 8, "apply": 8}


def _counts(cells, max_dim: int) -> tuple[int, ...]:
    counts = [0] * (max_dim + 1)
    for cell in cells:
        counts[cell.dim] += 1
    return tuple(counts)


def _cells_digest(cells) -> str:
    return hashlib.sha256("\n".join(str(c) for c in cells).encode("utf-8")).hexdigest()


class Case:
    """One structure of the corpus, with its expected cell counts.

    Where no count is known in advance (the random structures), the
    expectation is the atom_closure of the structure, computed once.
    """

    def __init__(self, key, struct, max_dim, counts, maps, sampled=True):
        self.key = key
        self.sampled = sampled
        self.struct = struct
        self.max_dim = max_dim
        self._counts = counts
        self.maps = maps  # [(GradedMorphism, name map)] out of this structure

    def expected_counts(self) -> tuple[int, ...]:
        if self._counts is None:
            self._counts = _counts(atom_closure(self.struct, self.max_dim), self.max_dim)
        return self._counts


def _check_table(case: Case, cells) -> str | None:
    keys = [c.sort_key() for c in cells]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "cells are not strictly sorted"
    got = _counts(cells, case.max_dim)
    if got != case.expected_counts():
        return f"counts {got}, expected {case.expected_counts()}"
    return None


class EnumerateRequest(Request):
    kind = "enumerate"

    def __init__(self, case: Case):
        super().__init__(case.key)
        self.case = case

    def call(self, api):
        return api.enumerate_cells(self.case.struct, self.case.max_dim)

    def remember(self, ctx, out):
        ctx[self.case.key] = out

    def check(self, out, args):
        return _check_table(self.case, out)

    def summary(self, out):
        return _cells_digest(out)


class FreenessRequest(EnumerateRequest):
    kind = "freeness"

    def remember(self, ctx, out):
        pass

    def call(self, api):
        cells = api.enumerate_cells(self.case.struct, self.case.max_dim)
        return cells, api.atom_closure(self.case.struct, self.case.max_dim)

    def check(self, out, args):
        cells, closure = out
        if len(closure) != len(cells) or any(c not in closure for c in cells):
            return f"{len(cells)} cells enumerated, {len(closure)} reached from atoms"
        return _check_table(self.case, cells)

    def summary(self, out):
        return _cells_digest(out[0])


class SampleRequest(Request):
    """Works on the cell at a seeded position of this pass's enumeration."""

    def __init__(self, case: Case, position: float):
        super().__init__(case.key)
        self.case = case
        self.position = position

    def pool(self, cells):
        return cells

    def prepare(self, ctx):
        cells = ctx.setdefault(("pool", self.kind, self.case.key), self.pool(ctx[self.case.key]))
        return (cells[int(self.position * len(cells))],)


class ExcisionRequest(SampleRequest):
    """excision_decompose, then the slices composed back left to right."""

    kind = "excision"

    def pool(self, cells):
        """Cells with two or more top generators, so that the slices need
        composing; structures without any (the globes) use every
        non-identity cell."""
        moving = [c for c in cells if c.dim >= 1 and not c.is_identity()]
        return [c for c in moving if c.top.total() >= 2] or moving

    def call(self, api, cell):
        slices = api.excision_decompose(self.case.struct, cell)
        whole = slices[0]
        for piece in slices[1:]:
            whole = api.compose(whole, piece, cell.dim - 1)
        return slices, whole

    def check(self, out, args):
        slices, whole = out
        (cell,) = args
        if whole != cell:
            return f"slices recompose to {whole}, not {cell}"
        if len(slices) != cell.top.total() or any(s.top.total() != 1 for s in slices):
            return f"{len(slices)} slices for a top of size {cell.top.total()}"
        return None

    def summary(self, out):
        return "\n".join(str(s) for s in out[0])


class FacesRequest(SampleRequest):
    """Every face and the identity of a cell, each checked by validate_cell."""

    kind = "faces"

    def call(self, api, cell):
        complex_ = api.from_structure(self.case.struct)
        mode = "nu" if complex_.augmented else "rho"
        tables = [api.face(cell, k, sign) for k in range(cell.dim) for sign in ("source", "target")]
        tables.append(api.identity(cell))
        return tables, [api.validate_cell(complex_, t, mode) for t in tables]

    def check(self, out, args):
        tables, verdicts = out
        (cell,) = args
        bad = [reason for ok, reason in verdicts if not ok]
        if bad:
            return f"invalid face or identity: {bad[0]}"
        if tables[-1] != identity(cell) or face(tables[-1], cell.dim, "source") != cell:
            return "identity does not have the cell as its source"
        return None

    def summary(self, out):
        return "\n".join(str(t) for t in out[0])


class ApplyRequest(SampleRequest):
    """apply_to_cell under a coface or bit-insertion map."""

    kind = "apply"

    def __init__(self, case: Case, position: float, choice: int):
        super().__init__(case, position)
        self.morphism, self.names = case.maps[choice]

    def call(self, api, cell):
        return api.apply_to_cell(self.morphism, cell)

    def check(self, out, args):
        (cell,) = args
        expected = corpus.map_cell(cell, self.names)
        return None if out == expected else f"image {out}, expected {expected}"

    def summary(self, out):
        return str(out)


def setup(api, seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for fam, n, max_dim in FAMILY_CASES:
        struct = api.build(fam, n)
        maps = []
        if fam in ("oriental", "cube") and max_dim == n:
            target = api.build(fam, n + 1)
            maps = [
                (corpus.name_morphism(struct, target, names), names)
                for _, names in corpus.family_maps(fam, n + 1)
            ]
        cases.append(Case(f"{fam}-{n}", struct, max_dim, corpus.KNOWN_CELL_COUNTS[fam, n, max_dim], maps))
    wns = api.loads(corpus.frozen_text("weak_not_strong")).value
    cases.append(Case("weak_not_strong", wns, 2, corpus.KNOWN_CELL_COUNTS["weak_not_strong", 0, 2], []))
    for i, struct in enumerate(corpus.random_weak_parity_complexes(rng, RANDOM_WEAK, api)):
        cases.append(Case(f"random-weak-{i}", struct, struct.max_dim, None, [], sampled=False))
    return cases


def requests(cases: list[Case], seed: int) -> list[Request]:
    """Per structure: enumerate, freeness, and for the fixed structures
    the cell samples.  Samples sit at evenly spaced positions of the
    enumeration from a seeded offset, so every seed samples each
    dimension in about the same proportion."""
    rng = random.Random(seed)
    out: list[Request] = []
    for case in cases:
        out += [EnumerateRequest(case), FreenessRequest(case)]
        if not case.sampled:
            continue

        def positions(count):
            offset = rng.random()
            return [(offset + j) / count for j in range(count)]

        out += [ExcisionRequest(case, p) for p in positions(SAMPLES["excision"])]
        out += [FacesRequest(case, p) for p in positions(SAMPLES["faces"])]
        if case.maps:
            out += [
                ApplyRequest(case, p, rng.randrange(len(case.maps)))
                for p in positions(SAMPLES["apply"])
            ]
    return out


def pass_order(reqs, rng: random.Random) -> list[int]:
    """Structures in a seeded order; for each, its enumeration first (the
    samples pick their cells from it), then the rest in a seeded order."""
    groups: dict[str, list[int]] = {}
    for index, req in enumerate(reqs):
        groups.setdefault(req.key, []).append(index)
    keys = list(groups)
    rng.shuffle(keys)
    order = []
    for key in keys:
        first, *rest = groups[key]
        rng.shuffle(rest)
        order += [first, *rest]
    return order


def close(cases) -> None:
    pass
