"""Free directed chain complexes generated by parity face data.

A complex is a view of a structure of either kind whose data lives on
the structure's face table: a signed boundary row per generator
(positive faces minus negative faces), normality, dd and the boundary
SignedVectors.  When the basis is normal, the canonical augmentation
sending every dimension-0 generator to 1 is attached.
"""

from __future__ import annotations

from typing import NamedTuple

from .multiset import GeneratorId, Multiset, SignedVector, _format_entries
from .parity_core import (
    AdditiveParityStructure,
    Structure,
    StructureError,
    _boundary,
    _FaceTable,
    _non_normal,
    _non_unital,
)


class AugmentationMissingError(StructureError):
    """An operation needed the canonical augmentation of a non-normal basis."""


class FreeDirectedComplex:
    """Chain complex freely generated by a structure of either kind.

    A parity face counts 1, so a parity structure and its count-1
    additive view generate the same complex, read from one face table;
    the view keeps only the structure and that table.  ``augmented`` is
    true exactly when the basis is normal, in which case the canonical
    augmentation (every dimension-0 generator maps to 1) is attached.
    """

    def __init__(self, structure: Structure):
        self._structure = structure
        self._table = structure._table

    @property
    def structure(self) -> Structure:
        """The generating structure, as given."""
        return self._structure

    @property
    def augmented(self) -> bool:
        return self._table.normal

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
        """Boundary of a generator of dimension >= 1, built from its signed row."""
        t = self._table
        i = t.at(gen)
        if gen.dim == 0:
            raise StructureError(f"dimension-0 generator {gen.name!r} has no boundary")
        return t.vector(gen.dim - 1, t.signed[gen.dim][i])

    def boundary(self, v: SignedVector) -> SignedVector:
        """Linear extension of the generator boundaries, summed from the signed rows."""
        if v.dim < 1:
            raise StructureError("boundary needs a chain of dimension >= 1")
        t = self._table
        return t.vector(v.dim - 1, _boundary(t, v.dim, [(t.index[g], c) for g, c in v.items()]))

    def augmentation(self, v: SignedVector | Multiset) -> int:
        """Canonical augmentation of a dimension-0 chain (requires normality)."""
        if not self._table.normal:
            raise AugmentationMissingError("complex has no augmentation (basis is not normal)")
        if v.dim != 0:
            raise StructureError(f"augmentation applies in dimension 0, got {v.dim}")
        total = 0
        for g, coeff in v.items():
            self.require(g)
            total += coeff
        return total


def from_structure(struct: Structure) -> FreeDirectedComplex:
    """The free directed chain complex on a structure's face data.

    Each call returns a fresh view; the views of a structure, and of its
    parity or additive counterpart, share the data on its face table.
    """
    return FreeDirectedComplex(struct)


class ChainReport(NamedTuple):
    """Per-basis chain-level checks with offending generators."""

    dd_zero: bool
    normal: bool
    unital: bool
    augmented: bool
    failures: tuple[tuple[str, str, str], ...]  # (check, generator, detail)

    def to_payload(self) -> dict:
        return {**self._asdict(), "failures": [{"check": c, "generator": g, "detail": d} for c, g, d in self.failures]}


def check_complex(complex_: FreeDirectedComplex) -> ChainReport:
    """Check ddx = 0 per generator, normality, and unitality of the basis."""
    failures: list[tuple[str, str, str]] = []
    t = complex_._table

    for d, i, dd in t.dd_defects():
        name = t.gens[d][i].name
        text = t.text(d - 2, {j: c for j, c in dd.items() if c}, _format_entries)
        failures.append(("dd_zero", name, f"dd({name}) = {text}"))
    dd_zero = not failures

    normal = t.normal
    for g, neg, pos in _non_normal(t):
        text = f"boundary parts {t.text(0, neg)} and {t.text(0, pos)} are not basis elements"
        failures.append(("normal", g.name, text))

    unital = normal
    if not normal:
        failures.append(("unital", "", "no augmentation: basis is not normal"))
    else:
        for g, neg, pos in _non_unital(t):
            unital = False
            text = f"iterated parts of {g.name} have augmentation {sum(neg.values())} and {sum(pos.values())}"
            failures.append(("unital", g.name, text))

    return ChainReport(dd_zero, normal, unital, normal, tuple(failures))


def extract_structure(complex_: FreeDirectedComplex) -> AdditiveParityStructure:
    """Recover the generating structure from basis boundaries (round-trip):
    a generator's faces are the negative and positive parts of its row."""
    neg, pos = [], []
    for rows in complex_._table.signed:
        neg.append([tuple(sorted((j, -c) for j, c in row.items() if c < 0)) for row in rows])
        pos.append([tuple(sorted((j, c) for j, c in row.items() if c > 0)) for row in rows])
    return AdditiveParityStructure._of(_FaceTable(complex_._table.gens, neg, pos))
