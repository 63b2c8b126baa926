"""Free directed chain complexes generated by parity face data.

A complex reads the integer face table of a structure of either kind.
It keeps one signed boundary row per generator (positive faces minus
negative faces), built up front, and builds a generator's boundary as a
SignedVector on first use.  When the basis is normal, the canonical
augmentation sending every dimension-0 generator to 1 is attached.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .multiset import GeneratorId, Multiset, SignedVector, _format_entries
from .parity_core import (
    AdditiveParityStructure,
    Structure,
    StructureError,
    _columns,
    _FaceTable,
    _non_normal,
    _spread,
    iterated_boundaries,
)


class AugmentationMissingError(StructureError):
    """An operation needed the canonical augmentation of a non-normal basis."""


def _signed(neg: tuple, pos: tuple) -> dict[int, int]:
    """The boundary pos - neg of a pair of face rows, without zero entries."""
    row = dict(pos)
    for j, c in neg:
        row[j] = row.get(j, 0) - c
    return {j: c for j, c in row.items() if c}


def _linear(boundaries, chain: Iterable[tuple]) -> dict:
    """The boundary of a chain of (key, coefficient) pairs from the
    boundary of each key, a mapping with ``items``; zero entries may remain."""
    out: dict = {}
    for key, coeff in chain:
        for f, c in boundaries[key].items():
            out[f] = out.get(f, 0) + coeff * c
    return out


class _Boundaries(dict):
    """Boundary SignedVectors by generator id, each built from its signed
    row on first use; an id the structure lacks raises."""

    def __init__(self, table: _FaceTable, rows: list[list[dict[int, int]]]):
        self._table, self._rows = table, rows

    def __missing__(self, gen: GeneratorId) -> SignedVector:
        t, d = self._table, gen.dim
        i = t.index[gen]
        vector = self[gen] = SignedVector(d - 1, {t.gens[d - 1][j]: c for j, c in self._rows[d][i].items()})
        return vector


class FreeDirectedComplex:
    """Chain complex freely generated by a structure of either kind.

    A parity face counts 1, so a parity structure and its count-1
    additive view generate the same complex.  ``augmented`` is true
    exactly when the basis is normal, in which case the canonical
    augmentation (every dimension-0 generator maps to 1) is attached.

    ``_rows[d][i]`` is the boundary of generator i of dimension d as an
    index -> coefficient dict over the face table's indices; the checks
    run on these.  ``_vectors`` gives the same boundaries as
    SignedVectors by id, each built on first use.
    """

    def __init__(self, structure: Structure):
        self._structure = structure
        self._table = t = structure._table
        self._rows = [[_signed(neg, pos) for neg, pos in zip(*level)] for level in zip(t.neg, t.pos)]
        self._vectors = _Boundaries(t, self._rows)
        self._augmented = next(_non_normal(t), None) is None

    @property
    def structure(self) -> Structure:
        """The generating structure, as given."""
        return self._structure

    @property
    def augmented(self) -> bool:
        return self._augmented

    @property
    def max_dim(self) -> int:
        return self._structure.max_dim

    def generators(self, n: int) -> tuple[GeneratorId, ...]:
        return self._structure.generators(n)

    def __contains__(self, gen: GeneratorId) -> bool:
        return gen in self._structure

    def require(self, gen: GeneratorId) -> None:
        self._structure.require(gen)

    def boundary_of(self, gen: GeneratorId) -> SignedVector:
        """Boundary of a single generator of dimension >= 1."""
        if gen.dim == 0:
            self.require(gen)
            raise StructureError(f"dimension-0 generator {gen.name!r} has no boundary")
        return self._vectors[gen]

    def boundary(self, v: SignedVector) -> SignedVector:
        """Linear extension of the generator boundaries."""
        if v.dim < 1:
            raise StructureError("boundary needs a chain of dimension >= 1")
        return SignedVector(v.dim - 1, _linear(self._vectors, v.items()))

    def augmentation(self, v: SignedVector | Multiset) -> int:
        """Canonical augmentation of a dimension-0 chain (requires normality)."""
        if not self._augmented:
            raise AugmentationMissingError("complex has no augmentation (basis is not normal)")
        if v.dim != 0:
            raise StructureError(f"augmentation applies in dimension 0, got {v.dim}")
        total = 0
        for g, coeff in v.items():
            self.require(g)
            total += coeff
        return total

    def iterated_parts(self, gen: GeneratorId) -> tuple[tuple[Multiset, ...], tuple[Multiset, ...]]:
        """Atom columns of a generator: its ``iterated_boundaries``, whose
        level k negative row is the (dim-k)-fold negative part of the
        iterated boundary of {gen}; dually for the positive row."""
        return iterated_boundaries(self._structure, gen)

    @cached_property
    def _dd_defects(self) -> tuple[tuple[int, int, dict[int, int]], ...]:
        """(d, i, dd) for each generator i of dimension d with dd != 0; empty
        exactly when dd = 0, which is globularity in its additive form."""
        return tuple(
            (d, i, dd) for d in range(2, len(self._rows)) for i, row in enumerate(self._rows[d])
            if any((dd := _linear(self._rows[d - 1], row.items())).values())
        )


def from_structure(struct: Structure) -> FreeDirectedComplex:
    """The free directed chain complex on a structure's face data.

    The complex is built once per structure and kept on it; later calls
    return the same complex.
    """
    complex_ = struct._complex
    if complex_ is None:
        complex_ = struct._complex = FreeDirectedComplex(struct)
    return complex_


class ChainReport(NamedTuple):
    """Per-basis chain-level checks with offending generators."""

    dd_zero: bool
    normal: bool
    unital: bool
    augmented: bool
    failures: tuple[tuple[str, str, str], ...]  # (check, generator, detail)

    def to_payload(self) -> dict:
        return {
            "dd_zero": self.dd_zero,
            "normal": self.normal,
            "unital": self.unital,
            "augmented": self.augmented,
            "failures": [
                {"check": c, "generator": g, "detail": d} for c, g, d in self.failures
            ],
        }


def check_complex(complex_: FreeDirectedComplex) -> ChainReport:
    """Check ddx = 0 per generator, normality, and unitality of the basis."""
    failures: list[tuple[str, str, str]] = []
    t = complex_._table

    for d, i, dd in complex_._dd_defects:
        name = t.gens[d][i].name
        text = _format_entries((t.gens[d - 2][j].name, dd[j]) for j in sorted(dd) if dd[j])
        failures.append(("dd_zero", name, f"dd({name}) = {text}"))
    dd_zero = not failures

    normal = complex_.augmented
    for g, neg, pos in _non_normal(t):
        text = f"boundary parts {t.text(0, neg)} and {t.text(0, pos)} are not basis elements"
        failures.append(("normal", g.name, text))

    unital = normal
    if not normal:
        failures.append(("unital", "", "no augmentation: basis is not normal"))
    else:
        for d, row in enumerate(t.gens):
            for i, g in enumerate(row):
                neg_levels, pos_levels = _columns(t, d, i)
                neg, pos = sum(neg_levels[0].values()), sum(pos_levels[0].values())
                if neg != 1 or pos != 1:
                    unital = False
                    failures.append(
                        ("unital", g.name, f"iterated parts of {g.name} have augmentation {neg} and {pos}")
                    )

    return ChainReport(dd_zero, normal, unital, complex_.augmented, tuple(failures))


def is_well_formed_element(complex_: FreeDirectedComplex, v: Multiset) -> bool:
    """Well-formedness of a positive chain.

    Dimension 0: augmentation 1 (an error if no augmentation is
    attached).  Higher dimensions: radical, and distinct members have
    disjoint negative boundary parts and disjoint positive parts.
    """
    for g in v:
        complex_.require(g)
    if v.dim == 0:
        return complex_.augmentation(v) == 1
    t = complex_._table
    return v.is_radical() and _spread(t, v.dim, t.mask(v.dim, v))[2]


def extract_structure(complex_: FreeDirectedComplex) -> AdditiveParityStructure:
    """Recover the generating structure from basis boundaries (round-trip):
    a generator's faces are the negative and positive parts of its row."""
    neg, pos = [], []
    for rows in complex_._rows:
        neg.append([tuple(sorted((j, -c) for j, c in row.items() if c < 0)) for row in rows])
        pos.append([tuple(sorted((j, c) for j, c in row.items() if c > 0)) for row in rows])
    return AdditiveParityStructure._of(_FaceTable(complex_._table.gens, neg, pos))
