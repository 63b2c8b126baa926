"""Morphisms of additive and weak parity complexes.

A graded morphism assigns each source generator a finite multiset
(additive mode) or well-formed subset (weak-parity mode) of target
generators of the same dimension; a chain map assigns it a chain.  Both
keep the image of generator i of dimension d as ``rows[d][i]``, an index
-> count dict over the target face table's dimension-d generators, as
the table keeps its signed rows.  Everything but the results and the
text of a failure is computed on these rows, where no count overflows.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter, or_
from typing import TYPE_CHECKING, Container, Iterable, Iterator, Mapping, NamedTuple

from .multiset import MAX_COUNT, GeneratorId, Multiset, SignedVector, _format_entries
from .parity_core import (
    CLASS_ADDITIVE,
    CLASS_WEAK,
    Structure,
    _bits,
    _boundary,
    _FaceTable,
    _linear,
    _mask,
    _moves,
    _spread,
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

    Equality is extensional: same source, target, and image of every
    generator; the mode is not compared.  The assignment must be total
    and every image a Multiset; weak-parity mode additionally requires
    every image to be a subset.
    The images are kept as rows over the target's face table.
    """

    def __init__(self, source: Structure, target: Structure, assignment: Mapping[GeneratorId, Multiset],
                 mode: str = "weak_parity"):
        index, into = source._table.index, target._table.index  # each raises for a generator it lacks
        images = ((g, g.dim, index[g], _image_row(g, _multiset(g, image), into)) for g, image in assignment.items())
        rows = _image_rows(source, target, mode, assignment, images)
        self._source, self._target, self._rows, self._mode = source, target, rows, mode

    @classmethod
    def _of(cls, source: Structure, target: Structure, rows: list, mode: str) -> GradedMorphism:
        """The morphism with these image rows, which are not checked."""
        f = cls.__new__(cls)
        f._source, f._target, f._rows, f._mode = source, target, rows, mode
        return f

    source = property(attrgetter("_source"))
    target = property(attrgetter("_target"))
    mode = property(attrgetter("_mode"))

    def image(self, gen: GeneratorId) -> Multiset:
        return self._target._table.multiset(gen.dim, _row(self, gen))

    def apply_multiset(self, s: Multiset) -> Multiset:
        """Homomorphic extension to multisets."""
        return self._target._table.multiset(s.dim, _apply(self, s))

    def is_normal(self) -> bool:
        """True iff every dimension-0 image is a singleton."""
        return all(sum(row.values()) == 1 for level in self._rows[:1] for row in level)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMorphism):
            return NotImplemented
        return (self._source, self._target, self._rows) == (other._source, other._target, other._rows)

    def __repr__(self) -> str:
        return f"<GradedMorphism {self._mode} on {len(self._source)} generators>"


def _row(f: GradedMorphism | ChainMap, gen: GeneratorId) -> dict[int, int]:
    """The image row of a generator of f's source, which raises for any other."""
    i = f._source._table.index[gen]
    return f._rows[gen.dim][i]


def _apply(f: GradedMorphism | ChainMap, v: Multiset | SignedVector) -> dict[int, int]:
    """The image of a chain under f, as an index -> count dict."""
    chain = [(f._source._table.index[g], c) for g, c in v.items()]
    return _linear(f._rows[v.dim], chain) if chain else {}


#: The text for an image row with a count above 1: its generator's name, quoted when raised, then the row.
_NOT_SUBSET = "image of {} is not a subset: {}"


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise MorphismError(f"unknown morphism mode {mode!r}")


def _multiset(g: GeneratorId, image: object) -> Multiset:
    """A graded morphism's image of g, which must be a Multiset."""
    if not isinstance(image, Multiset):
        raise MorphismError(f"image of {g.name!r} must be a Multiset, got {type(image).__name__}")
    return image


def _image_row(g: GeneratorId, image: Multiset | SignedVector, into: Mapping[GeneratorId, int]) -> dict[int, int]:
    """The image of g as a row over the target index ``into``; it must have g's dimension."""
    if image.dim != g.dim:
        raise MorphismError(f"image of {g.name!r} has dimension {image.dim}, expected {g.dim}")
    return {into[h]: c for h, c in image.items()}


def _image_rows(source: Structure, target: Structure, mode: str, assigned: Container[GeneratorId],
                images: Iterable[tuple[GeneratorId, int, int, dict[int, int]]]) -> list:
    """The image rows of a graded morphism, after the mode, that every source generator is
    ``assigned``, and in weak-parity mode that each image is a subset.  ``images`` yields
    (generator, dimension, index, row) in assignment order, and may raise for one in turn."""
    _check_mode(mode)
    for g in source.all_generators():
        if g not in assigned:
            raise MorphismError(f"assignment is missing generator {g.name!r} (dim {g.dim})")
    t, rows = target._table, [[{}] * len(gens) for gens in source._table.gens]
    for g, d, i, row in images:
        rows[d][i] = row
        if mode == "weak_parity" and max(row.values(), default=1) > 1:
            raise MorphismError(_NOT_SUBSET.format(repr(g.name), t.text(d, row)))
    return rows


def _images(t: _FaceTable, rows: list) -> Iterator[tuple[GeneratorId, int, int, dict[int, int]]]:
    """(generator, dimension, index, image row) of each generator of source table t, in id order."""
    for d, gens in enumerate(t.gens):
        for i, g in enumerate(gens):
            yield g, d, i, rows[d][i]


def _boundaries(s: _FaceTable, t: _FaceTable, rows: list, d: int, i: int) -> tuple[dict, dict]:
    """The boundary of the image of the source's generator i of dimension d and the
    image of its boundary, without zero entries; both are empty in dimension 0."""
    image = {j: c for j, c in _linear(rows[d - 1], s.signed[d][i].items()).items() if c}
    return _boundary(t, d, rows[d][i].items()), image


def _composed(rows: list, after: list) -> list:
    """The rows ``after`` applied to each of ``rows``, without zero entries."""
    return [
        [{j: c for j, c in _linear(after[d], row.items()).items() if c} if row else {} for row in level]
        for d, level in enumerate(rows)
    ]


def identity_morphism(struct: Structure, mode: str = "weak_parity") -> GradedMorphism:
    _check_mode(mode)
    rows = [[{i: 1} for i in range(len(gens))] for gens in struct._table.gens]
    return GradedMorphism._of(struct, struct, rows, mode)


class MorphismReport(NamedTuple):
    valid: bool
    normal: bool
    failures: tuple[str, ...]

    def to_payload(self) -> dict:
        return {"valid": self.valid, "normal": self.normal, "failures": list(self.failures)}


def validate_morphism(f: GradedMorphism, mode: str | None = None) -> MorphismReport:
    """Check the movement equations defining a morphism.

    Additive mode: the image of each generator moves the image of its
    negative faces to the image of its positive faces, all extended
    homomorphically.  Weak-parity mode: every image is well-formed and
    the movement holds in subset form with union extensions.  The
    normality flag reports whether dimension-0 images are singletons.
    A count beyond MAX_COUNT is reported like any other.
    """
    mode = mode or f.mode
    _check_mode(mode)
    failures: list[str] = []
    level = CLASS_ADDITIVE if mode == "additive" else CLASS_WEAK
    for role, struct in (("source", f.source), ("target", f.target)):
        report = validate(struct)
        if not report.meets(level):
            raise MorphismError(
                f"{mode} morphisms need the {role} to be at least a {level}, got {report.classification}"
            )
    if mode == "additive":
        s, t, rows = f.source._table, f.target._table, f._rows
        for g, d, i, row in _images(s, rows):
            lhs, rhs = _boundaries(s, t, rows, d, i)
            if lhs != rhs:
                m, p = (_linear(rows[d - 1], faces[d][i]) for faces in (s.neg, s.pos))
                failures.append(
                    f"image of {g.name} does not move the image of its faces: "
                    f"{t.text(d, row)} vs {t.text(d - 1, m)} -> {t.text(d - 1, p)}"
                )
    else:
        failures.extend(_union_movement_failures(f, strict=False))
    return MorphismReport(not failures, f.is_normal(), tuple(failures))


def _union_movement_failures(f: GradedMorphism, strict: bool) -> Iterator[str]:
    """Why images fail to move the union images of their faces, in subset
    or strict form, generator by generator.

    Both structures are weak parity complexes, so every face counts 1,
    and a union image is an OR of image masks; a dimension-0 generator
    has no faces to move.
    """
    s, t = f.source._table, f.target._table
    masks = [[_mask(row.items()) for row in level] for level in f._rows]
    for g, d, i, row in _images(s, f._rows):
        if max(row.values(), default=1) > 1:
            yield _NOT_SUBSET.format(g.name, t.text(d, row))
            continue
        neg, pos, well_formed = _spread(t, d, masks[d][i])
        if not well_formed:
            yield f"image of {g.name} is not well-formed: {t.text(d, row)}"
            continue
        m, p = (reduce(or_, [masks[d - 1][j] for j, _ in faces[d][i]], 0) for faces in (s.neg, s.pos))
        if not _moves(neg, pos, m, p, strict):
            m_names, p_names = ([t.gens[d - 1][j].name for j in _bits(x)] for x in (m, p))
            yield (
                f"image of {g.name} does not move the union image of its faces: "
                f"{t.text(d, row)} vs {m_names} -> {p_names}"
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
    return next(_union_movement_failures(f, strict=True), None) is None


def compose_morphisms(f: GradedMorphism, g: GradedMorphism) -> GradedMorphism:
    """The composite morphism applying f and then g.

    Additive mode extends g homomorphically over each image; weak-parity
    mode takes unions, which are guaranteed disjoint for valid morphisms
    (a violation raises MorphismError since the inputs were no
    morphisms).  A count beyond MAX_COUNT raises OverflowError.
    """
    if f.mode != g.mode:
        raise MorphismError(f"cannot compose {f.mode} with {g.mode} morphisms")
    if f.target != g.source:
        raise MorphismError("target of the first morphism is not the source of the second")
    t, rows = g.target._table, _composed(f._rows, g._rows)
    for x, d, _, row in _images(f.source._table, rows):
        if max(row.values(), default=0) > MAX_COUNT:
            t.multiset(d, row)  # raises the first overflowing count's error
        if f.mode == "weak_parity" and max(row.values(), default=1) > 1:
            raise MorphismError(f"union image of {x.name} under the composite is not disjoint: {t.text(d, row)}")
    return GradedMorphism._of(f.source, g.target, rows, f.mode)


def restrict_morphism(f: GradedMorphism, n: int) -> GradedMorphism:
    """Restriction to n-skeleta (for the inductive characterizations); empty for n < 0."""
    src = skeleton(f.source, n)
    return GradedMorphism._of(src, skeleton(f.target, n), f._rows[: len(src._table.gens)], f.mode)


def apply_to_cell(f: GradedMorphism, table: CellTable) -> CellTable:
    """Columnwise image of a cell, checked against the source as every cell
    operation checks it: each column's chain mapped through the image rows,
    as in _apply, into a table over the target's face table; a count beyond MAX_COUNT raises."""
    from .cells import _chains, _check_cell, _table_on
    ok, reason = _check_cell(f.source, table)
    if not ok:
        raise ValueError(f"not a valid cell over the source: {reason}")
    chains, rows = _chains(f.source._table, table), f._rows
    images = [[_linear(rows[k], c) if c else {} for k, c in enumerate(row)] for row in chains]
    return _table_on(f.target._table, images)


class ChainMap:
    """Induced map of free directed complexes, checked on construction.

    Sends every generator to a chain of its own dimension over the
    target's generators, and commutes with the boundaries on every
    generator; preserves the canonical augmentations when the morphism
    is normal.  The images are kept as rows over the target's face
    table.  Equality and composability compare face tables, not
    structure classes.
    """

    def __init__(self, source: FreeDirectedComplex, target: FreeDirectedComplex,
                 images: Mapping[GeneratorId, SignedVector]):
        images = dict(images)
        for g in images:
            source.require(g)
        s, t = source._table, target._table
        rows = [[{}] * len(gens) for gens in s.gens]
        for g, d, i, _ in _images(s, rows):  # in dimension order, so each face's image is in place
            if g not in images:
                raise MorphismError(f"chain map is missing generator {g.name!r}")
            rows[d][i] = _image_row(g, images[g], t.index)  # a generator the target lacks raises
            lhs, rhs = _boundaries(s, t, rows, d, i)
            if lhs != rhs:
                raise MorphismError(
                    f"chain map does not commute with the boundary at {g.name}: "
                    f"{t.text(d - 1, lhs, _format_entries)} vs {t.text(d - 1, rhs, _format_entries)}"
                )
        self._source, self._target, self._rows = source, target, rows

    @classmethod
    def _of(cls, source: FreeDirectedComplex, target: FreeDirectedComplex, rows: list) -> ChainMap:
        """The chain map with these image rows, which are not checked."""
        cm = cls.__new__(cls)
        cm._source, cm._target, cm._rows = source, target, rows
        return cm

    source = property(attrgetter("_source"))
    target = property(attrgetter("_target"))

    def image(self, gen: GeneratorId) -> SignedVector:
        return self._target._table.vector(gen.dim, _row(self, gen))

    def apply(self, v: SignedVector) -> SignedVector:
        return self._target._table.vector(v.dim, _apply(self, v))

    def then(self, other: ChainMap) -> ChainMap:
        if not self._target._table.same_faces(other._source._table):
            raise MorphismError("chain maps are not composable")
        return ChainMap._of(self._source, other._target, _composed(self._rows, other._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self._source._table.same_faces(other._source._table)
            and self._target._table.same_faces(other._target._table)
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"<ChainMap on {len(self._source.structure)} generators>"


def induced_chain_map(f: GradedMorphism) -> ChainMap:
    """The chain map sending each generator to its image multiset.

    Requires a valid morphism whose additive reading is valid too, which
    is checked here for a weak-parity morphism.  The dimension-0 images of
    a normal morphism have augmentation 1, so it preserves augmentations.
    """
    from .chain import from_structure
    for mode in dict.fromkeys((f.mode, "additive")):
        report = validate_morphism(f, mode)
        if not report.valid:
            raise MorphismError(f"not a valid morphism: {report.failures}")
    return ChainMap._of(from_structure(f.source), from_structure(f.target), f._rows)


def morphism_from_chain_map(cm: ChainMap, mode: str = "additive") -> GradedMorphism:
    """Recover the graded morphism from a chain map's generator images."""
    _check_mode(mode)
    s, t = cm.source._table, cm.target._table
    for g, d, _, row in _images(s, cm._rows):
        if min(row.values(), default=1) < 0:
            raise MorphismError(f"image of {g.name} is not positive: {t.text(d, row, _format_entries)}")
    source, target = cm.source.structure, cm.target.structure
    rows = _image_rows(source, target, mode, s.index, _images(s, cm._rows))  # every generator has an image
    return GradedMorphism._of(source, target, rows, mode)
