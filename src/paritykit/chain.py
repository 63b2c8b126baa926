"""Free directed chain complexes generated by parity face data.

The complex keeps one signed boundary vector per generator (positive
faces minus negative faces) plus, when the basis is normal, the
canonical augmentation sending every dimension-0 generator to 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .multiset import GeneratorId, Multiset, SignedVector
from .parity_core import (
    AdditiveParityStructure,
    ParityStructure,
    Structure,
    StructureError,
    UnknownGeneratorError,
    _additive_view,
)


class AugmentationMissingError(StructureError):
    """An operation needed the canonical augmentation of a non-normal basis."""


class FreeDirectedComplex:
    """Chain complex freely generated by an additive parity structure.

    ``augmented`` is true exactly when the generating structure is
    normal, in which case the canonical augmentation (every dimension-0
    generator maps to 1) is attached.
    """

    def __init__(self, structure: AdditiveParityStructure):
        self._structure = structure
        self._boundary: dict[GeneratorId, SignedVector] = {}
        for g in structure.all_generators():
            if g.dim == 0:
                continue
            self._boundary[g] = structure.pos(g).to_vector() - structure.neg(g).to_vector()
        self._augmented = all(
            structure.neg(g).total() == 1 and structure.pos(g).total() == 1
            for g in structure.generators(1)
        )

    @property
    def structure(self) -> AdditiveParityStructure:
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
        self.require(gen)
        if gen.dim == 0:
            raise StructureError(f"dimension-0 generator {gen.name!r} has no boundary")
        return self._boundary[gen]

    def boundary(self, v: SignedVector) -> SignedVector:
        """Linear extension of the generator boundaries."""
        if v.dim < 1:
            raise StructureError("boundary needs a chain of dimension >= 1")
        out: dict[GeneratorId, int] = {}
        for g, coeff in v.items():
            for f, c in self.boundary_of(g).items():
                out[f] = out.get(f, 0) + coeff * c
        return SignedVector(v.dim - 1, out)

    def augmentation(self, v: SignedVector | Multiset) -> int:
        """Canonical augmentation of a dimension-0 chain (requires normality)."""
        if not self._augmented:
            raise AugmentationMissingError("complex has no augmentation (basis is not normal)")
        if v.dim != 0:
            raise StructureError(f"augmentation applies in dimension 0, got {v.dim}")
        if isinstance(v, Multiset):
            for g in v:
                self.require(g)
            return v.total()
        total = 0
        for g, coeff in v.items():
            self.require(g)
            total += coeff
        return total

    def iterated_parts(self, gen: GeneratorId) -> tuple[tuple[Multiset, ...], tuple[Multiset, ...]]:
        """Atom columns of a generator, by alternating boundary and parts.

        Level k of the negative row is the (dim-k)-fold negative part of
        the iterated boundary, starting from {gen}; dually for the
        positive row.
        """
        self.require(gen)
        neg_levels = [Multiset.of(gen)]
        pos_levels = [Multiset.of(gen)]
        for _ in range(gen.dim):
            neg_levels.append(self.boundary(neg_levels[-1].to_vector()).parts()[0])
            pos_levels.append(self.boundary(pos_levels[-1].to_vector()).parts()[1])
        neg_levels.reverse()
        pos_levels.reverse()
        return tuple(neg_levels), tuple(pos_levels)


def from_structure(struct: Structure) -> FreeDirectedComplex:
    """The free directed chain complex on a structure's face data.

    The complex is built once per structure and kept on it; later calls
    return the same complex.
    """
    complex_ = struct._complex
    if complex_ is None:
        complex_ = struct._complex = FreeDirectedComplex(_additive_view(struct))
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
    struct = complex_.structure

    dd_zero = True
    for g in struct.all_generators():
        if g.dim < 2:
            continue
        dd = complex_.boundary(complex_.boundary_of(g))
        if not dd.is_zero():
            dd_zero = False
            failures.append(("dd_zero", g.name, f"dd({g.name}) = {dd}"))

    normal = True
    for g in struct.generators(1):
        neg, pos = struct.neg(g), struct.pos(g)
        if not (neg.total() == 1 and pos.total() == 1):
            normal = False
            failures.append(("normal", g.name, f"boundary parts {neg} and {pos} are not basis elements"))

    unital = True
    if not normal:
        unital = False
        failures.append(("unital", "", "no augmentation: basis is not normal"))
    else:
        for g in struct.all_generators():
            neg_levels, pos_levels = complex_.iterated_parts(g)
            if neg_levels[0].total() != 1 or pos_levels[0].total() != 1:
                unital = False
                failures.append(
                    ("unital", g.name,
                     f"iterated parts of {g.name} have augmentation "
                     f"{neg_levels[0].total()} and {pos_levels[0].total()}")
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
    if not v.is_radical():
        return False
    struct = complex_.structure
    members = list(v)
    for i, y in enumerate(members):
        for z in members[i + 1:]:
            if not struct.neg(y).disjoint(struct.neg(z)):
                return False
            if not struct.pos(y).disjoint(struct.pos(z)):
                return False
    return True


def extract_structure(complex_: FreeDirectedComplex) -> AdditiveParityStructure:
    """Recover the generating structure from basis boundaries (round-trip)."""
    return AdditiveParityStructure({
        g: complex_.boundary_of(g).parts() if g.dim else ((), ())
        for g in complex_.structure.all_generators()
    })
