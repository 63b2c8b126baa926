"""Morphisms of additive and weak parity complexes.

A graded morphism assigns each source generator a finite multiset
(additive mode) or well-formed subset (weak-parity mode) of target
generators of the same dimension.  Validation checks the movement
equations; composition, the induced chain map, and the induced action
on cell tables are provided with their functoriality testable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .multiset import GeneratorId, Multiset, SignedVector
from .parity_core import (
    CLASS_ADDITIVE,
    CLASS_WEAK,
    Structure,
    StructureError,
    is_well_formed,
    moves,
    skeleton,
    validate,
)

if TYPE_CHECKING:
    from .cells import CellTable
    from .chain import FreeDirectedComplex

MODES = ("additive", "weak_parity")


class MorphismError(ValueError):
    """The data does not describe a graded morphism of the stated mode."""


class GradedMorphism:
    """Dimension-preserving assignment of face data between structures.

    Equality is extensional: same source, target, and assignment on
    every generator.  The assignment must be total; weak-parity mode
    additionally requires every image to be a subset.
    """

    def __init__(
        self,
        source: Structure,
        target: Structure,
        assignment: Mapping[GeneratorId, Multiset],
        mode: str = "weak_parity",
    ):
        if mode not in MODES:
            raise MorphismError(f"unknown morphism mode {mode!r}")
        self._source = source
        self._target = target
        self._mode = mode
        clean: dict[GeneratorId, Multiset] = {}
        for g in source.all_generators():
            if g not in assignment:
                raise MorphismError(f"assignment is missing generator {g.name!r} (dim {g.dim})")
        for g, image in assignment.items():
            source.require(g)
            if image.dim != g.dim:
                raise MorphismError(
                    f"image of {g.name!r} has dimension {image.dim}, expected {g.dim}"
                )
            for h in image:
                target.require(h)
            if mode == "weak_parity" and not image.is_radical():
                raise MorphismError(f"image of {g.name!r} is not a subset: {image}")
            clean[g] = image
        self._assignment = clean

    @property
    def source(self) -> Structure:
        return self._source

    @property
    def target(self) -> Structure:
        return self._target

    @property
    def mode(self) -> str:
        return self._mode

    def image(self, gen: GeneratorId) -> Multiset:
        self._source.require(gen)
        return self._assignment[gen]

    def apply_multiset(self, s: Multiset) -> Multiset:
        """Homomorphic extension to multisets."""
        counts: dict[GeneratorId, int] = {}
        for g, c in s.items():
            for h, d in self.image(g).items():
                counts[h] = counts.get(h, 0) + c * d
        return Multiset(s.dim, counts)

    def apply_union(self, dim: int, s: Iterable[GeneratorId]) -> frozenset[GeneratorId]:
        """Union extension to subsets."""
        out: set[GeneratorId] = set()
        for g in s:
            if g.dim != dim:
                raise MorphismError(f"{g.name!r} has dimension {g.dim}, expected {dim}")
            out |= self.image(g).support_set()
        return frozenset(out)

    def is_normal(self) -> bool:
        """True iff every dimension-0 image is a singleton."""
        return all(self.image(g).total() == 1 for g in self._source.generators(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMorphism):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self._assignment == other._assignment
        )

    def __repr__(self) -> str:
        return f"<GradedMorphism {self._mode} on {len(self._assignment)} generators>"


def identity_morphism(struct: Structure, mode: str = "weak_parity") -> GradedMorphism:
    assignment = {g: Multiset.of(g) for g in struct.all_generators()}
    return GradedMorphism(struct, struct, assignment, mode)


class MorphismReport(NamedTuple):
    valid: bool
    normal: bool
    failures: tuple[str, ...]

    def to_payload(self) -> dict:
        return {"valid": self.valid, "normal": self.normal, "failures": list(self.failures)}


def _require_level(struct: Structure, classification: str, role: str, mode: str) -> None:
    report = validate(struct)
    if not report.meets(classification):
        raise MorphismError(
            f"{mode} morphisms need the {role} to be at least a {classification}, "
            f"got {report.classification}"
        )


def validate_morphism(f: GradedMorphism, mode: str | None = None) -> MorphismReport:
    """Check the movement equations defining a morphism.

    Additive mode: the image of each generator moves the image of its
    negative faces to the image of its positive faces, all extended
    homomorphically.  Weak-parity mode: every image is well-formed and
    the movement holds in subset form with union extensions.  The
    normality flag reports whether dimension-0 images are singletons.
    """
    mode = mode or f.mode
    if mode not in MODES:
        raise MorphismError(f"unknown morphism mode {mode!r}")
    failures: list[str] = []
    if mode == "additive":
        _require_level(f.source, CLASS_ADDITIVE, "source", mode)
        _require_level(f.target, CLASS_ADDITIVE, "target", mode)
        t = f.source._table
        for d in range(1, len(t.gens)):
            for g, neg, pos in zip(t.gens[d], t.neg[d], t.pos[d]):
                m, p = (f.apply_multiset(t.multiset(d - 1, dict(row))) for row in (neg, pos))
                if not moves(f.target, f.image(g), m, p, mode="additive"):
                    failures.append(
                        f"image of {g.name} does not move the image of its faces: "
                        f"{f.image(g)} vs {m} -> {p}"
                    )
    else:
        _require_level(f.source, CLASS_WEAK, "source", mode)
        _require_level(f.target, CLASS_WEAK, "target", mode)
        failures.extend(_union_movement_failures(f, "subset"))
    return MorphismReport(not failures, f.is_normal(), tuple(failures))


def _union_movement_failures(f: GradedMorphism, mode: str) -> Iterator[str]:
    """Why images fail to move the union images of their faces, in the
    ``moves`` mode given ("subset" or "strict"), generator by generator.

    Both structures are weak parity complexes, so every face counts 1.
    """
    source, target = f.source, f.target
    for g in source.all_generators():
        image = f.image(g)
        if not image.is_radical():
            yield f"image of {g.name} is not a subset: {image}"
            continue
        if not is_well_formed(target, g.dim, image):
            yield f"image of {g.name} is not well-formed: {image}"
            continue
        if g.dim == 0:
            continue
        m = f.apply_union(g.dim - 1, source.neg(g))
        p = f.apply_union(g.dim - 1, source.pos(g))
        if not moves(target, image, Multiset.subset(g.dim - 1, m), Multiset.subset(g.dim - 1, p), mode=mode):
            yield (
                f"image of {g.name} does not move the union image of its faces: "
                f"{image} vs {sorted(x.name for x in m)} -> {sorted(x.name for x in p)}"
            )


def check_strict_movement(f: GradedMorphism) -> bool:
    """Movement in the stronger sense, as a property-test oracle.

    For each generator the image must move the face images while also
    avoiding them: the source side never meets the image's positive
    faces and the target side never meets its negative faces.  This is
    a consequence of validity for weak-parity morphisms, so the oracle
    must never return False on validated input.
    """
    report = validate_morphism(f, "weak_parity")
    if not report.valid:
        raise MorphismError(f"not a valid weak-parity morphism: {report.failures}")
    return next(_union_movement_failures(f, "strict"), None) is None


def compose_morphisms(f: GradedMorphism, g: GradedMorphism) -> GradedMorphism:
    """The composite morphism applying f and then g.

    Additive mode extends g homomorphically over each image; weak-parity
    mode takes unions, which are guaranteed disjoint for valid morphisms
    (a violation raises MorphismError since the inputs were no
    morphisms).
    """
    if f.mode != g.mode:
        raise MorphismError(f"cannot compose {f.mode} with {g.mode} morphisms")
    if f.target != g.source:
        raise MorphismError("target of the first morphism is not the source of the second")
    assignment: dict[GeneratorId, Multiset] = {}
    for x in f.source.all_generators():
        image = f.image(x)
        composed = g.apply_multiset(image)
        if f.mode == "weak_parity" and not composed.is_radical():
            raise MorphismError(
                f"union image of {x.name} under the composite is not disjoint: {composed}"
            )
        assignment[x] = composed
    return GradedMorphism(f.source, g.target, assignment, f.mode)


def restrict_morphism(f: GradedMorphism, n: int) -> GradedMorphism:
    """Restriction to n-skeleta (for the inductive characterizations)."""
    src = skeleton(f.source, n)
    tgt = skeleton(f.target, n)
    assignment = {g: f.image(g) for g in src.all_generators()}
    return GradedMorphism(src, tgt, assignment, f.mode)


def apply_to_cell(f: GradedMorphism, table: CellTable) -> CellTable:
    """Columnwise image of a cell table under the homomorphic extension."""
    from .cells import CellTable, validate_cell
    ok, reason = validate_cell(f.source, table, mode="rho")
    if not ok:
        raise ValueError(f"not a valid cell over the source: {reason}")
    neg = [f.apply_multiset(column) for column in table.neg]
    pos = [f.apply_multiset(column) for column in table.pos]
    return CellTable(neg, pos)


class ChainMap:
    """Induced map of free directed complexes, checked on construction.

    Sends every generator to a chain of its own dimension over the
    target's generators, and commutes with the boundaries on every
    generator; preserves the canonical augmentations when the morphism
    is normal.  Equality and composability compare face tables, not
    structure classes.
    """

    def __init__(self, source: FreeDirectedComplex, target: FreeDirectedComplex,
                 images: Mapping[GeneratorId, SignedVector]):
        self._source = source
        self._target = target
        self._images = dict(images)
        for g in self._images:
            source.require(g)
        for g in source.structure.all_generators():
            if g not in self._images:
                raise MorphismError(f"chain map is missing generator {g.name!r}")
            image = self._images[g]
            if image.dim != g.dim:
                raise MorphismError(f"image of {g.name!r} has dimension {image.dim}, expected {g.dim}")
            for h, _ in image.items():
                target.require(h)
            if g.dim >= 1:
                lhs = target.boundary(image)
                rhs = self.apply(source.boundary_of(g))
                if lhs != rhs:
                    raise MorphismError(
                        f"chain map does not commute with the boundary at {g.name}: "
                        f"{lhs} vs {rhs}"
                    )

    @property
    def source(self) -> FreeDirectedComplex:
        return self._source

    @property
    def target(self) -> FreeDirectedComplex:
        return self._target

    def image(self, gen: GeneratorId) -> SignedVector:
        self._source.require(gen)
        return self._images[gen]

    def apply(self, v: SignedVector) -> SignedVector:
        out: dict[GeneratorId, int] = {}
        for g, coeff in v.items():
            self._source.require(g)
            for h, c in self._images[g].items():
                out[h] = out.get(h, 0) + coeff * c
        return SignedVector(v.dim, out)

    def then(self, other: ChainMap) -> ChainMap:
        if not self._target._table.same_faces(other._source._table):
            raise MorphismError("chain maps are not composable")
        images = {g: other.apply(v) for g, v in self._images.items()}
        return ChainMap(self._source, other._target, images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self._source._table.same_faces(other._source._table)
            and self._target._table.same_faces(other._target._table)
            and self._images == other._images
        )

    def __repr__(self) -> str:
        return f"<ChainMap on {len(self._images)} generators>"


def induced_chain_map(f: GradedMorphism) -> ChainMap:
    """The chain map sending each generator to its image multiset.

    Requires a valid additive morphism (weak-parity morphisms qualify
    via their additive reading); commutation with the boundary is
    re-checked generator by generator on construction.
    """
    from .chain import from_structure
    report = validate_morphism(f, "additive" if f.mode == "additive" else "weak_parity")
    if not report.valid:
        raise MorphismError(f"not a valid morphism: {report.failures}")
    source = from_structure(f.source)
    target = from_structure(f.target)
    images = {g: f.image(g).to_vector() for g in f.source.all_generators()}
    chain_map = ChainMap(source, target, images)
    if report.normal and source.augmented and target.augmented:
        for g in f.source.generators(0):
            if target.augmentation(chain_map.image(g)) != 1:
                raise MorphismError(f"normal morphism fails to preserve augmentation at {g.name}")
    return chain_map


def morphism_from_chain_map(cm: ChainMap, mode: str = "additive") -> GradedMorphism:
    """Recover the graded morphism from a chain map's generator images."""
    assignment = {}
    for g in cm.source.structure.all_generators():
        v = cm.image(g)
        if not v.is_positive():
            raise MorphismError(f"image of {g.name} is not positive: {v}")
        assignment[g] = v.to_multiset()
    return GradedMorphism(cm.source.structure, cm.target.structure, assignment, mode)
