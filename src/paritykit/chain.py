"""Free directed chain complexes generated by parity face data.

The complex keeps one signed boundary vector per generator (positive
faces minus negative faces) plus, when the basis is normal, the
canonical augmentation sending every dimension-0 generator to 1.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .multiset import GeneratorId, Multiset, SignedVector, _format_entries
from .parity_core import (
    AdditiveParityStructure,
    ParityStructure,
    Structure,
    StructureError,
    UnknownGeneratorError,
    _additive_view,
    _ById,
    _face_table,
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


class FreeDirectedComplex:
    """Chain complex freely generated by an additive parity structure.

    ``augmented`` is true exactly when the generating structure is
    normal, in which case the canonical augmentation (every dimension-0
    generator maps to 1) is attached.

    The checks compute chains as index -> coefficient dicts over the
    indices of the structure's integer face table: ``_rows[d][i]`` is the
    boundary of generator i of dimension d.  ``_vectors`` holds the same
    boundaries as SignedVectors by id, for chains given as SignedVectors.
    """

    def __init__(self, structure: AdditiveParityStructure):
        self._structure = structure
        self._table = t = _face_table(structure)
        self._rows = [[_signed(neg, pos) for neg, pos in zip(*level)] for level in zip(t.neg, t.pos)]
        self._vectors = _ById(
            (g, SignedVector(d - 1, {t.gens[d - 1][j]: c for j, c in row.items()}))
            for d in range(1, len(t.gens))
            for g, row in zip(t.gens[d], self._rows[d])
        )
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
        t = self._table
        rows = self._parts(gen.dim, t.index[gen])
        return tuple(tuple(t.multiset(k, counts) for k, counts in enumerate(row)) for row in rows)

    def _parts(self, d: int, i: int) -> tuple[list[dict], list[dict]]:
        """iterated_parts of generator i of dimension d, as index -> count dicts."""
        neg_levels, pos_levels = [{i: 1}], [{i: 1}]
        for k in range(d, 0, -1):
            neg = _linear(self._rows[k], neg_levels[-1].items())
            pos = _linear(self._rows[k], pos_levels[-1].items())
            neg_levels.append({j: -c for j, c in neg.items() if c < 0})
            pos_levels.append({j: c for j, c in pos.items() if c > 0})
        return neg_levels[::-1], pos_levels[::-1]


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
    t = complex_._table

    dd_zero = True
    for d in range(2, len(t.gens)):
        for i, g in enumerate(t.gens[d]):
            dd = _linear(complex_._rows[d - 1], complex_._rows[d][i].items())
            if any(dd.values()):
                dd_zero = False
                text = _format_entries((t.gens[d - 2][j].name, dd[j]) for j in sorted(dd) if dd[j])
                failures.append(("dd_zero", g.name, f"dd({g.name}) = {text}"))

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
        for d, row in enumerate(t.gens):
            for i, g in enumerate(row):
                neg_levels, pos_levels = complex_._parts(d, i)
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
