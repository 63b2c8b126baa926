"""Parity structures and additive parity structures with axiom validators.

A parity structure assigns each generator a disjoint pair of finite
*subsets* of faces one dimension down; an additive parity structure
assigns finite *multisets*.  Every parity structure embeds into an
additive one by reading its face sets as count-1 multisets.  The two
classes share one implementation and differ only in their face values.

The validator checks, with witnesses: disjointness of face pairs,
globularity, unitality, normality, and weak / Steiner / strong
loop-freeness, and classifies the structure accordingly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .multiset import DimensionMismatchError, GeneratorId, Multiset
from .ordering import lex_topological_order


class StructureError(ValueError):
    """The given face data does not describe a graded structure."""


class UnknownGeneratorError(StructureError):
    """A generator is referenced that the structure does not contain."""


class _RowIds(dict):
    """The ids of ``build`` rows by (name, dim); a missing key is an unknown face."""

    def __missing__(self, key: tuple[str, int]):
        name, dim = key
        raise UnknownGeneratorError(f"face {name!r} has no dimension-{dim} generator")


class _GradedStructure:
    """A graded set with a pair of face values per generator.

    The two structure classes share this one implementation and differ
    only in their face values: finite subsets in ``ParityStructure``,
    finite multisets in ``AdditiveParityStructure``.  Each class reads
    one given face value in ``_face`` and one ``build`` row's face data
    in ``_resolve``; everything else lives here.

    Face references to missing generators are construction-time errors;
    face-pair disjointness is checked by the validator, not here, so
    that the report's `disjoint` flag is informative.

    Structures are immutable, so what is derived from the whole of one
    (its validation report, its free complex, the additive view of a
    parity structure) is computed once and kept on it.  Equality ignores
    these caches and holds only between structures of the same class.
    ``_by_key`` maps each id to itself; since an id equals its
    ``(dim, name)`` tuple, it also answers lookups by that tuple.
    """

    _by_dim: dict[int, tuple[GeneratorId, ...]]
    _by_key: dict[tuple[int, str], GeneratorId]
    _neg: dict[GeneratorId, frozenset[GeneratorId] | Multiset]
    _pos: dict[GeneratorId, frozenset[GeneratorId] | Multiset]

    def __init__(self, faces: Mapping[GeneratorId, tuple]):
        self._report: ValidationReport | None = None  # filled by validate
        self._complex = None  # filled by chain.from_structure
        self._additive: AdditiveParityStructure | None = None  # filled by _additive_view
        by_dim: dict[int, list[GeneratorId]] = {}
        for g in faces:
            by_dim.setdefault(g.dim, []).append(g)
        self._by_dim = {n: tuple(sorted(gs)) for n, gs in sorted(by_dim.items())}
        self._by_key = {g: g for g in faces}
        self._neg = {}
        self._pos = {}
        for g, (neg, pos) in faces.items():
            if g.dim == 0:
                if neg or pos:
                    raise StructureError(f"dimension-0 generator {g.name!r} cannot have faces")
                continue
            neg, pos = self._face(g, neg), self._face(g, pos)
            for f in (*neg, *pos):
                if f not in self._by_key:
                    raise UnknownGeneratorError(
                        f"face {f.name!r} of {g.name!r} is not a generator of the structure"
                    )
            self._neg[g] = neg
            self._pos[g] = pos

    @classmethod
    def build(cls, elements: Iterable[tuple[str, int, object, object]]):
        """Build from (name, dim, neg, pos) rows; ``_resolve`` reads the faces."""
        rows = list(elements)
        ids = _RowIds({(name, dim): GeneratorId(dim, name) for name, dim, _, _ in rows})
        if len(ids) != len(rows):
            raise StructureError("duplicate (name, dim) row")
        faces = {}
        for name, dim, neg, pos in rows:
            g = ids[(name, dim)]
            if dim == 0:
                if list(neg) or list(pos):
                    raise StructureError(f"dimension-0 generator {name!r} cannot have faces")
                faces[g] = ((), ())
            else:
                faces[g] = (cls._resolve(ids, dim - 1, neg), cls._resolve(ids, dim - 1, pos))
        return cls(faces)

    @property
    def max_dim(self) -> int:
        """Largest dimension holding a generator; -1 for the empty structure."""
        return max(self._by_dim, default=-1)

    def dims(self) -> tuple[int, ...]:
        return tuple(self._by_dim)

    def generators(self, n: int) -> tuple[GeneratorId, ...]:
        return self._by_dim.get(n, ())

    def all_generators(self) -> Iterator[GeneratorId]:
        for n in sorted(self._by_dim):
            yield from self._by_dim[n]

    def __len__(self) -> int:
        return sum(len(gs) for gs in self._by_dim.values())

    def __contains__(self, gen: GeneratorId) -> bool:
        return gen in self._by_key

    def gen(self, name: str, dim: int | None = None) -> GeneratorId:
        """Look a generator up by name (and dimension, if ambiguous)."""
        if dim is not None:
            g = self._by_key.get((dim, name))
            if g is None:
                raise UnknownGeneratorError(f"no generator {name!r} in dimension {dim}")
            return g
        hits = [g for (d, nm), g in self._by_key.items() if nm == name]
        if not hits:
            raise UnknownGeneratorError(f"no generator named {name!r}")
        if len(hits) > 1:
            dims = sorted(g.dim for g in hits)
            raise StructureError(f"generator name {name!r} is ambiguous across dimensions {dims}")
        return hits[0]

    def require(self, gen: GeneratorId) -> None:
        if gen not in self._by_key:
            raise UnknownGeneratorError(f"generator {gen.name!r} (dim {gen.dim}) not in structure")

    def neg(self, gen: GeneratorId):
        self.require(gen)
        if gen.dim == 0:
            raise StructureError(f"dimension-0 generator {gen.name!r} has no faces")
        return self._neg[gen]

    def pos(self, gen: GeneratorId):
        self.require(gen)
        if gen.dim == 0:
            raise StructureError(f"dimension-0 generator {gen.name!r} has no faces")
        return self._pos[gen]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._by_dim == other._by_dim and self._neg == other._neg and self._pos == other._pos

    def __repr__(self) -> str:
        sizes = {n: len(gs) for n, gs in self._by_dim.items()}
        return f"<{type(self).__name__} {sizes}>"


class AdditiveParityStructure(_GradedStructure):
    """Graded set with a pair of finite face multisets per generator.

    ``build`` reads face data as an iterable of names (counts 1) or of
    (name, count) pairs, or a name -> count mapping; repeats add up.
    """

    @staticmethod
    def _face(g: GeneratorId, faces: Multiset) -> Multiset:
        if faces.dim != g.dim - 1:
            raise StructureError(f"faces of {g.name!r} (dim {g.dim}) must live in dimension {g.dim - 1}")
        return faces

    @staticmethod
    def _resolve(ids: _RowIds, dim: int, data: object) -> Multiset:
        pairs: Iterable
        if isinstance(data, Mapping):
            pairs = data.items()
        else:
            pairs = [(d, 1) if isinstance(d, str) else tuple(d) for d in data]  # type: ignore[union-attr]
        counts: dict[GeneratorId, int] = {}
        for name, count in pairs:
            g = ids[name, dim]
            counts[g] = counts.get(g, 0) + int(count)
        return Multiset(dim, counts)

    def is_subset_valued(self) -> bool:
        """True iff every face multiset is a subset."""
        return all(
            self._neg[g].is_radical() and self._pos[g].is_radical()
            for g in self._neg
        )

    def as_parity(self) -> ParityStructure:
        """The parity-structure view; an error if any face has count >= 2."""
        if not self.is_subset_valued():
            raise StructureError("structure has multiset faces with counts >= 2")
        return ParityStructure({
            g: (self._neg[g].support_set(), self._pos[g].support_set()) if g.dim else ((), ())
            for g in self.all_generators()
        })


class ParityStructure(_GradedStructure):
    """Graded set with a pair of finite face subsets per generator.

    ``build`` reads face data as an iterable of names; a repeated name
    is one face.
    """

    @staticmethod
    def _face(g: GeneratorId, faces: Iterable[GeneratorId]) -> frozenset[GeneratorId]:
        faces = frozenset(faces)
        for f in faces:
            if f.dim != g.dim - 1:
                raise StructureError(
                    f"face {f.name!r} of {g.name!r} (dim {g.dim}) must have dimension {g.dim - 1}"
                )
        return faces

    @staticmethod
    def _resolve(ids: _RowIds, dim: int, names: Iterable[str]) -> frozenset[GeneratorId]:
        return frozenset([ids[name, dim] for name in names])

    def to_additive(self) -> AdditiveParityStructure:
        """Count-1 embedding into additive parity structures."""
        return AdditiveParityStructure({
            g: (
                (Multiset.subset(g.dim - 1, self._neg[g]), Multiset.subset(g.dim - 1, self._pos[g]))
                if g.dim
                else ((), ())
            )
            for g in self.all_generators()
        })


Structure = AdditiveParityStructure | ParityStructure


def _additive_view(struct: Structure) -> AdditiveParityStructure:
    """The structure itself, or the (cached) count-1 view of a parity structure."""
    if not isinstance(struct, ParityStructure):
        return struct
    view = struct._additive
    if view is None:
        view = struct._additive = struct.to_additive()
    return view


def _parity_view(struct: Structure) -> ParityStructure:
    """The structure itself, or the subset view of an additive structure
    (a StructureError if a face has a count >= 2)."""
    return struct if isinstance(struct, ParityStructure) else struct.as_parity()


# ---------------------------------------------------------------------------
# face operations


class FaceImages(NamedTuple):
    """Homomorphic face images of a multiset and their mutual differences."""

    neg_image: Multiset      # count-weighted sum of negative faces
    pos_image: Multiset      # count-weighted sum of positive faces
    neg_boundary: Multiset   # neg_image \ pos_image
    pos_boundary: Multiset   # pos_image \ neg_image


def face_images(struct: AdditiveParityStructure, s: Multiset) -> FaceImages:
    """Face images of a multiset over dimension >= 1 generators."""
    if s.dim < 1:
        raise DimensionMismatchError("face images need a multiset of dimension >= 1")
    neg_counts: dict[GeneratorId, int] = {}
    pos_counts: dict[GeneratorId, int] = {}
    for g, count in s.items():
        for f, c in struct.neg(g).items():
            neg_counts[f] = neg_counts.get(f, 0) + count * c
        for f, c in struct.pos(g).items():
            pos_counts[f] = pos_counts.get(f, 0) + count * c
    neg = Multiset(s.dim - 1, neg_counts)
    pos = Multiset(s.dim - 1, pos_counts)
    return FaceImages(neg, pos, neg - pos, pos - neg)


class SubsetFaces(NamedTuple):
    """Unions of faces of a subset and the unmatched remainders."""

    neg: frozenset[GeneratorId]       # union of negative faces
    pos: frozenset[GeneratorId]       # union of positive faces
    neg_only: frozenset[GeneratorId]  # neg \ pos
    pos_only: frozenset[GeneratorId]  # pos \ neg


def subset_faces(struct: ParityStructure, dim: int, s: Iterable[GeneratorId]) -> SubsetFaces:
    """Face unions of a subset of dimension >= 1 generators."""
    if dim < 1:
        raise DimensionMismatchError("subset faces need a subset of dimension >= 1")
    neg: set[GeneratorId] = set()
    pos: set[GeneratorId] = set()
    for g in s:
        if g.dim != dim:
            raise DimensionMismatchError(f"{g.name!r} has dimension {g.dim}, expected {dim}")
        neg |= struct.neg(g)
        pos |= struct.pos(g)
    return SubsetFaces(frozenset(neg), frozenset(pos), frozenset(neg - pos), frozenset(pos - neg))


def is_well_formed(struct: ParityStructure, dim: int, s: Iterable[GeneratorId]) -> bool:
    """Well-formedness of a subset: a singleton in dimension 0; in higher
    dimensions, distinct members have disjoint negative faces and disjoint
    positive faces."""
    members = list(s)
    for g in members:
        struct.require(g)
        if g.dim != dim:
            raise DimensionMismatchError(f"{g.name!r} has dimension {g.dim}, expected {dim}")
    if len(set(members)) != len(members):
        raise ValueError("subset with repeated members")
    if dim == 0:
        return len(members) == 1
    seen_neg: set[GeneratorId] = set()
    seen_pos: set[GeneratorId] = set()
    for g in members:
        ng, pg = struct.neg(g), struct.pos(g)
        if seen_neg & ng or seen_pos & pg:
            return False
        seen_neg |= ng
        seen_pos |= pg
    return True


def atom_faces(
    struct: ParityStructure, gen: GeneratorId
) -> tuple[tuple[frozenset[GeneratorId], ...], tuple[frozenset[GeneratorId], ...]]:
    """Iterated face levels of a single generator (the rows of its atom).

    Returns (neg_levels, pos_levels), each indexed 0..dim(gen), with the
    top level {gen}; each lower negative level is the unmatched negative
    remainder of the level above, dually for positive levels.  No
    well-formedness is imposed here; the unitality validator checks it.
    """
    struct.require(gen)
    n = gen.dim
    neg_levels: list[frozenset[GeneratorId]] = [frozenset([gen])]
    pos_levels: list[frozenset[GeneratorId]] = [frozenset([gen])]
    for k in range(n, 0, -1):
        neg_levels.append(subset_faces(struct, k, neg_levels[-1]).neg_only)
        pos_levels.append(subset_faces(struct, k, pos_levels[-1]).pos_only)
    neg_levels.reverse()
    pos_levels.reverse()
    return tuple(neg_levels), tuple(pos_levels)


def iterated_boundaries(
    struct: AdditiveParityStructure, gen: GeneratorId
) -> tuple[tuple[Multiset, ...], tuple[Multiset, ...]]:
    """Iterated multiset boundaries of a generator (atom columns, additively).

    Level k of the negative row is the k-fold negative boundary of the
    singleton {gen}; dually for the positive row.
    """
    struct.require(gen)
    top = Multiset.of(gen)
    neg_levels = [top]
    pos_levels = [top]
    for _ in range(gen.dim):
        neg_levels.append(face_images(struct, neg_levels[-1]).neg_boundary)
        pos_levels.append(face_images(struct, pos_levels[-1]).pos_boundary)
    neg_levels.reverse()
    pos_levels.reverse()
    return tuple(neg_levels), tuple(pos_levels)


# ---------------------------------------------------------------------------
# movement


def moves(struct: Structure, s: Multiset, m: Multiset, p: Multiset, mode: str = "additive") -> bool:
    """Does s move m to p?

    In additive mode this is the pair of multiset equations on the
    boundaries of s.  Subset mode states the same equations with face
    unions, and requires s (and m, p) to be subsets with s well-formed.
    Strict mode adds the two intersection-emptiness conditions; it is
    provably equivalent for cells over weak parity complexes and exists
    as a separate oracle.
    """
    if m.dim != p.dim or s.dim != m.dim + 1:
        raise DimensionMismatchError(
            f"moves needs s one dimension above m and p (got {s.dim}, {m.dim}, {p.dim})"
        )
    if mode == "additive":
        fi = face_images(_additive_view(struct), s)
        return fi.neg_boundary == m - p and fi.pos_boundary == p - m
    if mode not in ("subset", "strict"):
        raise ValueError(f"unknown movement mode {mode!r}")
    parity = _parity_view(struct)
    for name, ms in (("s", s), ("m", m), ("p", p)):
        if not ms.is_radical():
            raise ValueError(f"{name} must be a subset in {mode} mode, got {ms}")
    s_set = s.support_set()
    if not is_well_formed(parity, s.dim, s_set):
        raise ValueError(f"s = {s} is not well-formed, required in {mode} mode")
    faces = subset_faces(parity, s.dim, s_set)
    m_set, p_set = m.support_set(), p.support_set()
    ok = faces.neg_only == m_set - p_set and faces.pos_only == p_set - m_set
    if not ok or mode == "subset":
        return ok
    return not (m_set & faces.pos) and not (p_set & faces.neg)


# ---------------------------------------------------------------------------
# validation


class OrderWitness(NamedTuple):
    """Per-level topological linearizations extending a loop-freeness relation."""

    orders: tuple[tuple[int | None, tuple[str, ...]], ...]

    def to_payload(self) -> dict:
        return {
            "kind": "order",
            "orders": [
                {"level": level, "order": list(names)} for level, names in self.orders
            ],
        }


class CycleWitness(NamedTuple):
    """An explicit directed cycle in a loop-freeness relation."""

    level: int | None
    cycle: tuple[str, ...]

    def to_payload(self) -> dict:
        return {"kind": "cycle", "level": self.level, "cycle": list(self.cycle)}

    def __str__(self) -> str:
        names = list(self.cycle) + [self.cycle[0]]
        return " → ".join(names)


class AxiomFailure(NamedTuple):
    axiom: str
    generators: tuple[str, ...]
    detail: str

    def to_payload(self) -> dict:
        return {"axiom": self.axiom, "generators": list(self.generators), "detail": self.detail}


CLASS_PARITY_STRUCTURE = "parity structure only"
CLASS_ADDITIVE = "additive parity complex"
CLASS_WEAK = "weak parity complex"
CLASS_PARITY_COMPLEX = "parity complex"

CLASS_ORDER = (CLASS_PARITY_STRUCTURE, CLASS_ADDITIVE, CLASS_WEAK, CLASS_PARITY_COMPLEX)

_FLAG_NAMES = (
    "disjoint",
    "globular",
    "unital",
    "normal",
    "weakly_loop_free",
    "steiner_loop_free",
    "strongly_loop_free",
)


class ValidationReport(NamedTuple):
    """Axiom flags, loop-freeness witnesses, failures, and classification."""

    disjoint: bool
    globular: bool
    unital: bool
    normal: bool
    weakly_loop_free: bool
    steiner_loop_free: bool
    strongly_loop_free: bool
    classification: str
    witnesses: Mapping[str, OrderWitness | CycleWitness]
    failures: tuple[AxiomFailure, ...]
    notes: tuple[str, ...] = ()

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in _FLAG_NAMES}

    def meets(self, classification: str) -> bool:
        return CLASS_ORDER.index(self.classification) >= CLASS_ORDER.index(classification)

    def to_payload(self) -> dict:
        return {
            "flags": self.flags(),
            "classification": self.classification,
            "witnesses": {k: w.to_payload() for k, w in sorted(self.witnesses.items())},
            "failures": [f.to_payload() for f in self.failures],
            "notes": list(self.notes),
        }


def _order_or_cycle(successors, axiom, per_level, failures, witnesses):
    """Run the per-level acyclicity checks and record witness/failure."""
    orders = []
    for level, level_nodes in per_level:
        order, cycle = lex_topological_order(level_nodes, successors[level])
        if cycle is not None:
            names = tuple(g.name for g in cycle)
            witnesses[axiom] = CycleWitness(level, names)
            failures.append(
                AxiomFailure(axiom, names, f"directed cycle at level {level}: {CycleWitness(level, names)}")
            )
            return False
        orders.append((level, tuple(g.name for g in order)))
    witnesses[axiom] = OrderWitness(tuple(orders))
    return True


def validate(struct: Structure) -> ValidationReport:
    """Check every axiom and classify the structure.

    All problems are report entries; nothing raises.  The loop-freeness
    flags carry witnesses: the lexicographically least topological order
    of the generating relation on success, an explicit cycle on failure.
    The report is computed once per structure and kept on it; later
    calls return the same (immutable) report.
    """
    report = struct._report
    if report is None:
        report = struct._report = _validate(struct)
    return report


def _validate(struct: Structure) -> ValidationReport:
    additive = _additive_view(struct)
    is_parity_input = isinstance(struct, ParityStructure)
    subset_valued = additive.is_subset_valued()
    parity = _parity_view(struct) if subset_valued else None

    failures: list[AxiomFailure] = []
    witnesses: dict[str, OrderWitness | CycleWitness] = {}
    notes: list[str] = []

    # Disjointness of each generator's face pair.
    disjoint = True
    for g in additive.all_generators():
        if g.dim == 0:
            continue
        overlap = additive.neg(g).meet(additive.pos(g))
        if not overlap.is_empty():
            disjoint = False
            failures.append(
                AxiomFailure("disjoint", (g.name,), f"negative and positive faces of {g.name} share {overlap}")
            )

    # Globularity.  For parity inputs check the subset form; the additive
    # (multiset) form is computed alongside and their agreement recorded
    # when the faces are well-formed.
    globular = True
    for g in additive.all_generators():
        if g.dim < 2:
            continue
        neg_b = face_images(additive, additive.neg(g))
        pos_b = face_images(additive, additive.pos(g))
        additive_ok = (
            neg_b.neg_boundary == pos_b.neg_boundary
            and neg_b.pos_boundary == pos_b.pos_boundary
        )
        if parity is not None:
            neg_f = subset_faces(parity, g.dim - 1, parity.neg(g))
            pos_f = subset_faces(parity, g.dim - 1, parity.pos(g))
            subset_ok = neg_f.neg_only == pos_f.neg_only and neg_f.pos_only == pos_f.pos_only
            faces_wf = is_well_formed(parity, g.dim - 1, parity.neg(g)) and is_well_formed(
                parity, g.dim - 1, parity.pos(g)
            )
            if faces_wf and subset_ok != additive_ok:
                raise AssertionError(
                    f"subset and additive globularity disagree at {g.name} despite well-formed faces"
                )
            ok = subset_ok if is_parity_input else additive_ok
        else:
            ok = additive_ok
        if not ok:
            globular = False
            failures.append(
                AxiomFailure("globular", (g.name,), f"face boundaries of the two rows of {g.name} differ")
            )
    if parity is not None and globular:
        notes.append("globularity agrees in subset and additive form on all well-formed faces")

    # Normality: faces of 1-generators are singleton subsets.
    normal = True
    for g in additive.generators(1):
        neg, pos = additive.neg(g), additive.pos(g)
        if not (neg.total() == 1 and pos.total() == 1):
            normal = False
            failures.append(
                AxiomFailure("normal", (g.name,), f"faces of {g.name} are {neg} and {pos}, not singletons")
            )

    # Atom columns of every generator, read by the additive unitality
    # check and by Steiner loop-freeness.
    all_gens = tuple(additive.all_generators())
    columns: dict[GeneratorId, tuple[tuple[Multiset, ...], tuple[Multiset, ...]]] = {
        g: iterated_boundaries(additive, g) for g in all_gens
    }

    # Unitality.  Parity inputs: every level of every atom is well-formed.
    # Additive inputs: the structure is normal and iterated boundaries of
    # every generator bottom out in singletons (augmentation 1).
    unital = True
    if is_parity_input:
        assert parity is not None
        for g in parity.all_generators():
            neg_levels, pos_levels = atom_faces(parity, g)
            for k in range(g.dim + 1):
                bad = []
                if not is_well_formed(parity, k, neg_levels[k]):
                    bad.append(f"negative level {k} = {sorted(x.name for x in neg_levels[k])}")
                if not is_well_formed(parity, k, pos_levels[k]):
                    bad.append(f"positive level {k} = {sorted(x.name for x in pos_levels[k])}")
                if bad:
                    unital = False
                    failures.append(
                        AxiomFailure("unital", (g.name,), f"atom of {g.name}: {'; '.join(bad)} not well-formed")
                    )
    else:
        if not normal:
            unital = False
            failures.append(
                AxiomFailure("unital", (), "structure is not normal, so no augmentation is available")
            )
        else:
            for g in all_gens:
                neg_levels, pos_levels = columns[g]
                if neg_levels[0].total() != 1 or pos_levels[0].total() != 1:
                    unital = False
                    failures.append(
                        AxiomFailure(
                            "unital",
                            (g.name,),
                            f"iterated boundaries of {g.name} reach {neg_levels[0]} and {pos_levels[0]}, "
                            "not augmentation 1",
                        )
                    )

    # Weak loop-freeness: one digraph per dimension n >= 1 on that
    # dimension's generators, x -> y when pos faces of x meet neg faces of y.
    weak_edges: dict[int, dict[GeneratorId, list[GeneratorId]]] = {}
    weak_levels = []
    for n in sorted(additive.dims()):
        if n < 1:
            continue
        gens = additive.generators(n)
        neg_users: dict[GeneratorId, list[GeneratorId]] = {}
        for y in gens:
            for f in additive.neg(y):
                neg_users.setdefault(f, []).append(y)
        succ: dict[GeneratorId, list[GeneratorId]] = {g: [] for g in gens}
        for x in gens:
            hit: set[GeneratorId] = set()
            for f in additive.pos(x):
                hit.update(neg_users.get(f, ()))
            succ[x] = sorted(hit)
        weak_edges[n] = succ
        weak_levels.append((n, gens))
    weakly_loop_free = _order_or_cycle(
        weak_edges, "weakly_loop_free", weak_levels, failures, witnesses
    )

    # Steiner loop-freeness: one digraph per level n >= 0 on all
    # generators, x -> y when the positive atom column of x at level n
    # meets the negative atom column of y at level n.
    steiner_edges: dict[int, dict[GeneratorId, list[GeneratorId]]] = {}
    steiner_levels = []
    for n in range(additive.max_dim + 1):
        neg_users = {}
        for y in all_gens:
            if y.dim < n:
                continue
            for f in columns[y][0][n]:
                neg_users.setdefault(f, []).append(y)
        succ = {g: [] for g in all_gens}
        for x in all_gens:
            if x.dim < n:
                continue
            hit = set()
            for f in columns[x][1][n]:
                hit.update(neg_users.get(f, ()))
            succ[x] = sorted(hit)
        steiner_edges[n] = succ
        steiner_levels.append((n, all_gens))
    steiner_loop_free = _order_or_cycle(
        steiner_edges, "steiner_loop_free", steiner_levels, failures, witnesses
    )

    # Strong loop-freeness: a single digraph on all generators,
    # x -> y when x is a negative face of y or y is a positive face of x.
    strong_succ: dict[GeneratorId, set[GeneratorId]] = {g: set() for g in all_gens}
    for g in all_gens:
        if g.dim == 0:
            continue
        for f in additive.neg(g):
            strong_succ[f].add(g)
        for f in additive.pos(g):
            strong_succ[g].add(f)
    strong_sorted = {g: sorted(s) for g, s in strong_succ.items()}
    strongly_loop_free = _order_or_cycle(
        {None: strong_sorted}, "strongly_loop_free", [(None, all_gens)], failures, witnesses
    )

    if disjoint and globular and unital and subset_valued and strongly_loop_free:
        classification = CLASS_PARITY_COMPLEX
    elif disjoint and globular and unital and subset_valued and weakly_loop_free:
        classification = CLASS_WEAK
    elif disjoint and globular:
        classification = CLASS_ADDITIVE
    else:
        classification = CLASS_PARITY_STRUCTURE
    if not subset_valued:
        notes.append("multiset faces with counts >= 2 rule out the parity-structure view")

    return ValidationReport(
        disjoint=disjoint,
        globular=globular,
        unital=unital,
        normal=normal,
        weakly_loop_free=weakly_loop_free,
        steiner_loop_free=steiner_loop_free,
        strongly_loop_free=strongly_loop_free,
        classification=classification,
        witnesses=MappingProxyType(witnesses),
        failures=tuple(failures),
        notes=tuple(notes),
    )


def skeleton(struct: Structure, n: int):
    """Discard all generators of dimension > n, restricting face data."""
    return type(struct)({
        g: (struct.neg(g), struct.pos(g)) if g.dim else ((), ())
        for g in struct.all_generators()
        if g.dim <= n
    })
