"""Parity structures and additive parity structures with axiom validators.

A parity structure assigns each generator a disjoint pair of finite
*subsets* of faces one dimension down; an additive parity structure
assigns finite *multisets*.  Every parity structure embeds into an
additive one by reading its face sets as count-1 multisets.  The two
classes share one implementation and differ only in their face values.

The validator checks, with witnesses: disjointness of face pairs,
globularity (in subset form for parity inputs, as dd = 0 for additive
ones), unitality, normality, and weak / Steiner / strong loop-freeness,
and classifies the structure accordingly; it never raises.  It runs on
each structure's integer face table, the structure's only face storage,
which numbers every dimension's sorted generators densely and keeps
faces as (index, count) rows and bitmasks, the free chain complex's data
and each generator's atom, built once in its subset and its multiset
reading; ids and Multisets are built only for results.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import accumulate, groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .multiset import MAX_COUNT, DimensionMismatchError, GeneratorId, Multiset, SignedVector, _check_int, _format_counts

#: Largest generator dimension of a structure, four times globe(16)'s: a
#: face table is dense per dimension, so construction and validation
#: grow with the largest dimension.
MAX_DIM = 64


class StructureError(ValueError):
    """The given face data does not describe a graded structure."""


class UnknownGeneratorError(StructureError):
    """A generator is referenced that the structure does not contain."""


class _GradedStructure:
    """A graded set with a pair of face values per generator.

    The two structure classes share this one implementation and differ
    only in their face values: finite subsets in ``ParityStructure``,
    finite multisets in ``AdditiveParityStructure``.  The integer face
    table ``_table`` is a structure's only face storage: ``build``, the
    one constructor from face data, resolves face names straight into
    its rows, ``_of`` wraps a table that is already built, and
    ``neg``/``pos`` build a face value from its row when asked.  Each
    class resolves a ``build`` row's faces in ``_resolve`` and builds a
    face value in ``_value``; everything else lives here.

    Face references to missing generators and dimensions above
    ``MAX_DIM`` are construction-time errors; face-pair disjointness is
    checked by the validator, not here, so that the report's `disjoint`
    flag is informative.  Structures are immutable, so the validation
    report is computed once and kept on the structure; the free complex
    is a view whose data lives on the table.  Equality compares face
    tables, ignores the report and holds only within one class.
    """

    _table: _FaceTable
    _report: ValidationReport | None = None  # set by validate

    @classmethod
    def _of(cls, table: _FaceTable):
        """The structure whose faces are this table's rows."""
        struct = cls.__new__(cls)
        struct._table = table
        return struct

    @classmethod
    def build(cls, elements: Iterable[tuple[str, int, object, object]]):
        """Build from (name, dim, neg, pos) rows; ``_resolve`` reads the faces,
        raising KeyError for an unknown name.

        Every name is checked first, then duplicate rows, then each row's
        faces in row order, negative before positive."""
        rows = list(elements)
        ids = {(name, dim): GeneratorId(dim, name) for name, dim, _, _ in rows}
        if len(ids) != len(rows):
            raise StructureError("duplicate (name, dim) row")
        gens = _graded(ids.values())
        # each name's count-1 row entry (index, 1), by dimension; kept beside the
        # table's index, since resolving faces through index.get((dim, name))
        # made fixtures.loads of cube(5) and oriental(7) 9-25% slower
        units = [{g[1]: (i, 1) for i, g in enumerate(row)} for row in gens]
        neg, pos = _no_faces(gens), _no_faces(gens)
        for name, dim, n, p in rows:
            if dim == 0:
                if list(n) or list(p):
                    raise StructureError(f"dimension-0 generator {name!r} cannot have faces")
                continue
            i = units[dim][name][0]
            try:
                neg[dim][i], pos[dim][i] = cls._resolve(units[dim - 1], gens[dim - 1], dim - 1, n, p)
            except KeyError as exc:
                missing = exc.args[0]
                raise UnknownGeneratorError(f"face {missing!r} has no dimension-{dim - 1} generator") from None
        return cls._of(_FaceTable(gens, neg, pos))

    @property
    def max_dim(self) -> int:
        """Largest dimension holding a generator; -1 for the empty structure."""
        return len(self._table.gens) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(d for d, gs in enumerate(self._table.gens) if gs)

    def generators(self, n: int) -> tuple[GeneratorId, ...]:
        _check_int(n, "dimension")
        return self._table.gens[n] if 0 <= n <= self.max_dim else ()

    def all_generators(self) -> Iterator[GeneratorId]:
        for row in self._table.gens:
            yield from row

    def __len__(self) -> int:
        return self._table.offset[-1]

    def __contains__(self, gen: GeneratorId) -> bool:
        return gen in self._table.index

    def gen(self, name: str, dim: int | None = None) -> GeneratorId:
        """Look a generator up by name (and dimension, if ambiguous)."""
        t = self._table
        if dim is not None:
            _check_int(dim, "dimension")
            i = t.index.get((dim, name))
            if i is None:
                raise UnknownGeneratorError(f"no generator {name!r} in dimension {dim}")
            return t.gens[dim][i]
        hits = [t.gens[d][t.index[d, name]] for d in range(len(t.gens)) if (d, name) in t.index]
        if not hits:
            raise UnknownGeneratorError(f"no generator named {name!r}")
        if len(hits) > 1:
            dims = [g.dim for g in hits]
            raise StructureError(f"generator name {name!r} is ambiguous across dimensions {dims}")
        return hits[0]

    def require(self, gen: GeneratorId) -> None:
        self._table.index[gen]  # an id the structure lacks raises

    def neg(self, gen: GeneratorId):
        return self._faces(gen, self._table.neg)

    def pos(self, gen: GeneratorId):
        return self._faces(gen, self._table.pos)

    def _faces(self, gen: GeneratorId, rows: list[list[tuple]]):
        t = self._table
        i = t.index[gen]
        if gen.dim == 0:
            raise StructureError(f"dimension-0 generator {gen.name!r} has no faces")
        return self._value(t, gen.dim - 1, rows[gen.dim][i])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._table.same_faces(other._table)

    def __repr__(self) -> str:
        sizes = {n: len(gs) for n, gs in enumerate(self._table.gens) if gs}
        return f"<{type(self).__name__} {sizes}>"


def _graded(gens: Iterable[GeneratorId]) -> list[tuple[GeneratorId, ...]]:
    """Generators by dimension 0..max, each dimension in id order; a
    dimension above MAX_DIM raises before any per-dimension list exists."""
    levels = {d: tuple(row) for d, row in groupby(sorted(gens), itemgetter(0))}
    top = max(levels, default=-1)
    if top > MAX_DIM:
        raise StructureError(f"dimension {top} is above the largest supported dimension {MAX_DIM}")
    return [levels.get(d, ()) for d in range(top + 1)]


def _no_faces(gens: list[tuple[GeneratorId, ...]]) -> list[list[tuple]]:
    return [[()] * len(row) for row in gens]


def _index(gens: list[tuple[GeneratorId, ...]]) -> _ById:
    """Each generator's index in its dimension."""
    index = _ById()
    for row in gens:
        index.update(zip(row, range(len(row))))
    return index


def _mask(row: Iterable[tuple[int, int]]) -> int:
    """The support bitmask of an (index, count) row."""
    mask = 0
    for j, _ in row:
        mask |= 1 << j
    return mask


class AdditiveParityStructure(_GradedStructure):
    """Graded set with a pair of finite face multisets per generator.

    ``build`` reads face data as an iterable of names (counts 1) or of
    (name, count) pairs, or a name -> count mapping; repeats add up.
    """

    @staticmethod
    def _resolve(units: dict, gens: tuple, dim: int, neg: object, pos: object) -> list[tuple]:
        rows = []
        for data in (neg, pos):
            counts: dict[int, int] = {}
            for entry in data.items() if isinstance(data, Mapping) else data:  # type: ignore[attr-defined]
                name, count = (entry, 1) if isinstance(entry, str) else entry
                j = units[name][0]  # an unknown name raises KeyError
                if type(count) is not int:
                    raise StructureError(f"count for {name!r} must be an integer, got {count!r}")
                counts[j] = counts.get(j, 0) + count
            if counts and not 0 < min(counts.values()) <= max(counts.values()) <= MAX_COUNT:
                Multiset(dim, {gens[j]: c for j, c in counts.items()})  # raises the first bad count's error
            rows.append(tuple(sorted(counts.items())))
        return rows

    @staticmethod
    def _value(t: _FaceTable, k: int, row: tuple) -> Multiset:
        return t.multiset(k, dict(row))

    def is_subset_valued(self) -> bool:
        """True iff every face multiset is a subset."""
        return self._table.subset

    def as_parity(self) -> ParityStructure:
        """The parity-structure view; an error if any face has count >= 2."""
        if not self.is_subset_valued():
            raise StructureError("structure has multiset faces with counts >= 2")
        return ParityStructure._of(self._table)


class ParityStructure(_GradedStructure):
    """Graded set with a pair of finite face subsets per generator.

    ``build`` reads face data as an iterable of names; a repeated name
    is one face.
    """

    @staticmethod
    def _resolve(units: dict, gens: tuple, dim: int, neg: Iterable[str], pos: Iterable[str]) -> tuple:
        unit = units.__getitem__  # an unknown name raises KeyError
        return tuple(sorted(set(map(unit, neg)))), tuple(sorted(set(map(unit, pos))))

    @staticmethod
    def _value(t: _FaceTable, k: int, row: tuple) -> frozenset[GeneratorId]:
        return frozenset([t.gens[k][j] for j, _ in row])

    def to_additive(self) -> AdditiveParityStructure:
        """Count-1 embedding into additive parity structures: the same face table."""
        return AdditiveParityStructure._of(self._table)


Structure = AdditiveParityStructure | ParityStructure


# ---------------------------------------------------------------------------
# the integer face table


class _ById(dict):
    """A dict keyed by generator ids; a missing key is an unknown generator."""

    def __missing__(self, gen: GeneratorId):
        raise UnknownGeneratorError(f"generator {gen.name!r} (dim {gen.dim}) not in structure")


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _signed(neg: tuple, pos: tuple) -> dict[int, int]:
    """The boundary pos - neg of a pair of face rows, without zero entries."""
    row = dict(pos)
    for j, c in neg:
        row[j] = row.get(j, 0) - c
    return row if all(row.values()) else {j: c for j, c in row.items() if c}


def _linear(boundaries, chain: Iterable[tuple]) -> dict:
    """The boundary of a chain of (key, coefficient) pairs from the
    boundary of each key, a mapping with ``items``; zero entries may remain."""
    out: dict = {}
    for key, coeff in chain:
        for f, c in boundaries[key].items():
            out[f] = out.get(f, 0) + coeff * c
    return out


class _Lazy(dict):
    """A dict that makes a missing key's value as ``make(key)`` and keeps it."""

    def __init__(self, make):
        self._make = make

    def __missing__(self, key):
        got = self[key] = self._make(key)
        return got


def _subset_column(d: int, gens: tuple[GeneratorId, ...], mask: int) -> tuple[Multiset, int]:
    """Dimension d's subset column of a mask, where bit j stands for ``gens[j]``, and its hash."""
    column = Multiset(d, [(gens[j], 1) for j in _bits(mask)])
    return column, hash(column)


class _FaceTable:
    """A structure's face data on dense ints, its only face storage.

    Index i of dimension d stands for ``gens[d][i]``, dimension d's
    generators in id order, and node ``offset[d] + i`` for the same
    generator among all of them.  ``neg[d][i]`` and ``pos[d][i]`` are its
    faces as ((index, count), ...) rows one dimension down, sorted by
    index, where a parity face counts 1; a dimension-0 row is empty.
    ``neg_mask``/``pos_mask`` hold their supports, ``subset`` says
    whether every count is 1, and ``index`` maps each generator's id to
    its index.  A parity structure and its additive view share one table.

    The free chain complex's data lives here too: ``signed[d][i]`` is
    the boundary pos - neg as an index -> coefficient dict without zeros;
    it, the masks and ``subset`` come from one loop over the row pairs.
    ``normal`` says whether every 1-generator has singleton faces, and
    ``dd_defects()``, the cell columns ``columns`` and each generator's
    ``atom`` are filled in on first use.  An atom is built once, in both
    readings, for parity unitality, ``_non_unital`` (so
    ``check_complex``), the Steiner digraphs, ``atom_faces``,
    ``iterated_boundaries`` and ``cells.atom``.
    """

    def __init__(self, gens: list[tuple[GeneratorId, ...]], neg: list[list[tuple]], pos: list[list[tuple]]):
        self.gens, self.neg, self.pos = gens, neg, pos
        self.offset = [0, *accumulate(map(len, gens))]
        self.index = _index(gens)
        self.neg_mask, self.pos_mask, self.signed = ([[] for _ in gens] for _ in range(3))
        counts = 0  # every count ORed together, so 1 or 0 on subset faces
        for nm, pm, sg, negs, poss in zip(self.neg_mask, self.pos_mask, self.signed, neg, pos):
            for n, p in zip(negs, poss):
                row, m = {}, 0
                for j, c in p:
                    m |= 1 << j
                    counts |= c
                    row[j] = c
                pm.append(m)
                m = 0
                for j, c in n:
                    m |= 1 << j
                    counts |= c
                    c = row.get(j, 0) - c
                    if c:
                        row[j] = c
                    else:
                        del row[j]
                nm.append(m)
                sg.append(row)
        self.subset = counts < 2
        self.normal = next(_non_normal(self), None) is None
        # columns[d][mask], made on first use; an identity's zero column may lie above the top dimension
        self.columns = _Lazy(lambda d: _Lazy(partial(_subset_column, d, gens[d] if d < len(gens) else ())))
        self._dd: tuple | None = None
        self._atoms: dict[GeneratorId, tuple[tuple, tuple]] = {}

    def dd_defects(self) -> tuple[tuple[int, int, dict[int, int]], ...]:
        """(d, i, dd) for each generator i of dimension d with dd != 0; empty
        exactly when dd = 0, which is globularity in its additive form."""
        if self._dd is None:
            s = self.signed
            self._dd = tuple((d, i, dd) for d in range(2, len(s)) for i, row in enumerate(s[d])
                             if any((dd := _linear(s[d - 1], row.items())).values()))
        return self._dd

    def atom(self, gen: GeneratorId) -> tuple[tuple, tuple]:
        """The ``_atom`` of a generator, built on first use; one the table lacks raises."""
        return self._atoms.get(gen) or self._atoms.setdefault(gen, _atom(self, gen.dim, self.index[gen]))

    def same_faces(self, other: _FaceTable) -> bool:
        """Same generators and face rows."""
        return self is other or (self.gens, self.neg, self.pos) == (other.gens, other.neg, other.pos)

    def mask(self, dim: int, gens: Iterable[GeneratorId]) -> int:
        out = 0
        for g in gens:
            if g.dim != dim:
                raise DimensionMismatchError(f"{g.name!r} has dimension {g.dim}, expected {dim}")
            out |= 1 << self.index[g]
        return out

    def members(self, k: int, mask: int) -> frozenset[GeneratorId]:
        return frozenset(self.gens[k][j] for j in _bits(mask))

    def multiset(self, k: int, counts: dict[int, int]) -> Multiset:
        return Multiset(k, {self.gens[k][j]: c for j, c in counts.items()})

    def vector(self, k: int, entries: dict[int, int]) -> SignedVector:
        return SignedVector(k, {self.gens[k][j]: c for j, c in entries.items()})

    def text(self, k: int, counts: dict[int, int], form=_format_counts) -> str:
        """The text of the Multiset (or, by _format_entries, SignedVector) of these counts, unbounded."""
        return form((self.gens[k][j].name, counts[j]) for j in sorted(counts))


def _non_normal(t: _FaceTable) -> Iterator[tuple[GeneratorId, dict[int, int], dict[int, int]]]:
    """The 1-generators whose negative or positive faces are not a single
    0-generator, each with those faces as index -> count dicts."""
    for g, neg, pos in zip(t.gens[1], t.neg[1], t.pos[1]) if len(t.gens) > 1 else ():
        if not (len(neg) == len(pos) == 1 and neg[0][1] == pos[0][1] == 1):
            yield g, dict(neg), dict(pos)


def _non_unital(t: _FaceTable) -> Iterator[tuple[GeneratorId, dict[int, int], dict[int, int]]]:
    """Each generator whose iterated boundaries miss augmentation 1, with its level-0 counts."""
    for g in (g for row in t.gens for g in row):
        neg, pos = [counts[0] for _, _, counts in t.atom(g)]
        if sum(neg.values()) != 1 or sum(pos.values()) != 1:
            yield g, neg, pos


def _boundary(t: _FaceTable, d: int, chain: list[tuple[int, int]]) -> dict[int, int]:
    """The boundary of a dimension-d chain of (index, coefficient) pairs
    from the signed rows, without zero entries."""
    return {j: c for j, c in _linear(t.signed[d], chain).items() if c} if chain else {}


def _spread(t: _FaceTable, k: int, mask: int) -> tuple[int, int, bool]:
    """Negative face union, positive face union and well-formedness of a dimension-k subset."""
    if k == 0:
        return 0, 0, mask != 0 and not mask & (mask - 1)
    neg = pos = 0
    well_formed = True
    for i in _bits(mask):
        n, p = t.neg_mask[k][i], t.pos_mask[k][i]
        well_formed = well_formed and not (neg & n or pos & p)
        neg |= n
        pos |= p
    return neg, pos, well_formed


def _moves(neg: int, pos: int, m: int, p: int, strict: bool) -> bool:
    """Does a well-formed subset with face unions neg and pos move the subset m to
    the subset p, all given as masks?  Strict movement keeps m off pos and p off neg."""
    return neg & ~pos == m & ~p and pos & ~neg == p & ~m and not (strict and (m & pos or p & neg))


def _atom(t: _FaceTable, d: int, i: int) -> tuple[tuple, tuple]:
    """The atom of generator i of dimension d: its (negative, positive) rows,
    each the (masks, well-formed flags, counts) of levels 0..d, level d = {i}.
    Below a level lies its unmatched negative (positive) remainder, as a subset
    (the mask, by face unions) and as a multiset (index -> count, by the signed
    rows).  On subset faces the two agree while every level above is
    well-formed, so counts are read off the mask until the first level that is
    not.  On multiset faces they are summed from the top; masks and flags are None."""
    if not t.subset:
        neg_row, pos_row = [{i: 1}], [{i: 1}]
        for k in range(d, 0, -1):
            for row, sign in ((neg_row, -1), (pos_row, 1)):
                row.append({j: sign * c for j, c in _linear(t.signed[k], row[-1].items()).items() if sign * c > 0})
        return (None, None, neg_row[::-1]), (None, None, pos_row[::-1])
    rows = []
    for sign in (-1, 1):
        mask, agree, counts, masks, flags, column = 1 << i, True, {i: 1}, [], [], []
        for k in range(d, -1, -1):
            neg, pos, well_formed = _spread(t, k, mask)
            masks.append(mask)
            flags.append(well_formed)
            column.append(counts)
            if k:
                agree = agree and well_formed
                mask = neg & ~pos if sign < 0 else pos & ~neg
                counts = dict.fromkeys(_bits(mask), 1) if agree else {
                    j: sign * c for j, c in _linear(t.signed[k], counts.items()).items() if sign * c > 0}
        rows.append((masks[::-1], flags[::-1], column[::-1]))
    return rows[0], rows[1]


# ---------------------------------------------------------------------------
# face operations


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
    t = struct._table
    neg, pos, _ = _spread(t, dim, t.mask(dim, s))
    return SubsetFaces(*(t.members(dim - 1, m) for m in (neg, pos, neg & ~pos, pos & ~neg)))


def is_well_formed(struct: Structure, dim: int, s: Iterable[GeneratorId]) -> bool:
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
    t = struct._table
    return _spread(t, dim, t.mask(dim, members))[2]


def atom_faces(
    struct: ParityStructure, gen: GeneratorId
) -> tuple[tuple[frozenset[GeneratorId], ...], tuple[frozenset[GeneratorId], ...]]:
    """Iterated face levels of a single generator (the rows of its atom).

    Returns (neg_levels, pos_levels), each indexed 0..dim(gen), with the
    top level {gen}; each lower negative level is the unmatched negative
    remainder of the level above, dually for positive levels.  No
    well-formedness is imposed here; the unitality validator checks it.
    A structure with a face count >= 2 raises StructureError.
    """
    t = struct._table
    if not t.subset:
        raise StructureError("structure has multiset faces with counts >= 2")
    return tuple(tuple(t.members(k, mask) for k, mask in enumerate(masks)) for masks, _, _ in t.atom(gen))


def iterated_boundaries(
    struct: AdditiveParityStructure, gen: GeneratorId
) -> tuple[tuple[Multiset, ...], tuple[Multiset, ...]]:
    """Iterated multiset boundaries of a generator (its atom, additively).

    Level k of the negative row is the k-fold negative boundary of the
    singleton {gen}; dually for the positive row.
    """
    t = struct._table
    return tuple(tuple(t.multiset(k, c) for k, c in enumerate(counts)) for _, _, counts in t.atom(gen))


# ---------------------------------------------------------------------------
# movement


def moves(struct: Structure, s: Multiset, m: Multiset, p: Multiset, mode: str = "additive") -> bool:
    """Does s move m to p?

    In additive mode this is the boundary equation ds = p - m, with ds
    summed from the face table's signed rows.  Subset mode states it
    with face unions, and requires s (and m, p) to be subsets with s
    well-formed.
    Strict mode adds the two intersection-emptiness conditions; it is
    provably equivalent for cells over weak parity complexes and exists
    as a separate oracle.

    In every mode a member of s, m or p that the structure does not
    contain raises UnknownGeneratorError; in subset and strict mode a
    structure with a face count >= 2 raises StructureError.
    """
    if m.dim != p.dim or s.dim != m.dim + 1:
        raise DimensionMismatchError(
            f"moves needs s one dimension above m and p (got {s.dim}, {m.dim}, {p.dim})"
        )
    t = struct._table
    if mode == "additive":
        chain, mc, pc = ([(t.index[g], c) for g, c in x.items()] for x in (s, m, p))
        return _boundary(t, s.dim, chain) == _signed(mc, pc)
    if mode not in ("subset", "strict"):
        raise ValueError(f"unknown movement mode {mode!r}")
    m_mask, p_mask = t.mask(m.dim, m), t.mask(p.dim, p)
    if not t.subset:
        raise StructureError("structure has multiset faces with counts >= 2")
    for name, ms in (("s", s), ("m", m), ("p", p)):
        if not ms.is_radical():
            raise ValueError(f"{name} must be a subset in {mode} mode, got {ms}")
    neg, pos, well_formed = _spread(t, s.dim, t.mask(s.dim, s))
    if not well_formed:
        raise ValueError(f"s = {s} is not well-formed, required in {mode} mode")
    return _moves(neg, pos, m_mask, p_mask, mode == "strict")


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
        """The seven axiom flags, the fields up to the classification, by name."""
        return dict(zip(self._fields[:7], self))

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


def _order_or_cycle(axiom, levels, failures, witnesses):
    """Run the per-level acyclicity checks and record witness/failure.

    Each level is (label, rows, names): ``_lex_sort`` sorts the rows, and
    ``names[node]`` names a node in orders and cycles.

    A Steiner level's rows are only the edges through its dimension-n
    generators, and this search names the cycle that the same search
    along its defining relation names.  The relation adds edges x -> y
    only from a node x above dimension n to another such y, which sorts
    after x's dimension-n successors and is a successor of one of them,
    f.  By the time the search reaches y in x's row it has explored f
    without finding a cycle, so y is already finished (black) and the
    extra edge is skipped: both searches take the same steps.
    """
    orders = []
    for level, rows, names in levels:
        order, cycle = _lex_sort(rows)
        if cycle is not None:
            cycle = tuple(map(names.__getitem__, cycle))
            witnesses[axiom] = CycleWitness(level, cycle)
            failures.append(
                AxiomFailure(axiom, cycle, f"directed cycle at level {level}: {CycleWitness(level, cycle)}")
            )
            return False
        orders.append((level, tuple(map(names.__getitem__, order))))
    witnesses[axiom] = OrderWitness(tuple(orders))
    return True


def _lex_sort(rows: list) -> tuple[list[int], None] | tuple[None, list[int]]:
    """(order, None) or (None, cycle) for the digraph on the int nodes
    0..len(rows)-1 where ``rows[node]`` lists a node's distinct successors
    other than itself.  The order is the lexicographically least
    topological one, which depends only on what reaches what.  A cycle is
    the first one a depth-first search finds from the least node the sort
    leaves, along the rows in ascending order."""
    indegree = [0] * len(rows)
    for row in rows:
        for dst in row:
            indegree[dst] += 1
    heap = [x for x, k in enumerate(indegree) if not k]  # ascending, so a heap
    order: list[int] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for dst in rows[node]:
            indegree[dst] -= 1
            if not indegree[dst]:
                heapq.heappush(heap, dst)
    if len(order) == len(rows):
        return order, None
    return None, _find_cycle(order, [sorted(row) for row in rows])


def _find_cycle(order: list[int], out: list[list[int]]) -> list[int]:
    """A directed cycle [v0, ..., vk], k >= 1, among the nodes that a
    stalled sort left out of ``order``: a depth-first search over them,
    from the least and along ``out`` in row order, with gray/black
    colouring."""
    alive = set(range(len(out))).difference(order)
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    for start in sorted(alive):
        if start in color:
            continue
        color[start] = GRAY
        path = [start]
        stack = [iter([d for d in out[start] if d in alive])]
        while stack:
            for dst in stack[-1]:
                if color.get(dst) == GRAY:
                    return path[path.index(dst):]
                if dst not in color:
                    color[dst] = GRAY
                    path.append(dst)
                    stack.append(iter([d for d in out[dst] if d in alive]))
                    break
            else:
                color[path.pop()] = BLACK
                stack.pop()
    raise AssertionError("stalled topological sort without a cycle")


def _meets(negs: list[tuple], poss: list[tuple]) -> list[list[int]]:
    """Successor rows on the nodes 0..len(poss)-1, without self-loops:
    x -> y when the face row poss[x] meets the face row negs[y]."""
    users: dict[int, list[int]] = {}
    for y, row in enumerate(negs):
        for f, _ in row:
            users.setdefault(f, []).append(y)
    rows = []
    for x, row in enumerate(poss):
        succ = {y for f, _ in row for y in users.get(f, ())}
        succ.discard(x)
        rows.append(list(succ))
    return rows


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
    t = struct._table
    gens, negs, poss = t.gens, t.neg, t.pos
    nodes = [g for row in gens for g in row]
    is_parity_input = isinstance(struct, ParityStructure)

    failures: list[AxiomFailure] = []
    witnesses: dict[str, OrderWitness | CycleWitness] = {}
    notes: list[str] = []

    def fail(axiom: str, g: GeneratorId | None, detail: str) -> bool:
        failures.append(AxiomFailure(axiom, (g.name,) if g else (), detail))
        return False

    # Disjointness of each generator's face pair.
    disjoint = True
    for d in range(1, len(gens)):
        for i, g in enumerate(gens[d]):
            if t.neg_mask[d][i] & t.pos_mask[d][i]:
                pos = dict(poss[d][i])
                overlap = t.text(d - 1, {j: min(c, pos[j]) for j, c in negs[d][i] if j in pos})
                disjoint = fail("disjoint", g, f"negative and positive faces of {g.name} share {overlap}")

    # Globularity, one form per class.  A parity input compares the
    # unmatched remainders of the face unions of its two face rows; an
    # additive input asks for dd = 0, read from the table.  Where both rows
    # are well-formed the two forms agree, as the note says; the tests
    # check that theorem.
    globular, unequal = True, []
    if is_parity_input:
        for d in range(2, len(gens)):
            for i in range(len(gens[d])):
                (n1, p1, _), (n2, p2, _) = (_spread(t, d - 1, rows[d][i]) for rows in (t.neg_mask, t.pos_mask))
                if (n1 & ~p1, p1 & ~n1) != (n2 & ~p2, p2 & ~n2):
                    unequal.append((d, i))
    else:
        unequal = [(d, i) for d, i, _ in t.dd_defects()]
    for d, i in unequal:
        globular = fail("globular", gens[d][i], f"face boundaries of the two rows of {gens[d][i].name} differ")
    if t.subset and globular:
        notes.append("globularity agrees in subset and additive form on all well-formed faces")

    # Normality: faces of 1-generators are singleton subsets.
    normal = True
    for g, neg, pos in _non_normal(t):
        normal = fail("normal", g, f"faces of {g.name} are {t.text(0, neg)} and {t.text(0, pos)}, not singletons")

    # Unitality.  Parity inputs: every level of every atom is well-formed.
    # Additive inputs: the structure is normal and iterated boundaries of
    # every generator bottom out in singletons (augmentation 1).
    unital = True
    if is_parity_input:
        for g in nodes:
            sides = tuple(zip(("negative", "positive"), t.atom(g)))
            for k in range(g.dim + 1):
                bad = [f"{side} level {k} = {[gens[k][j].name for j in _bits(masks[k])]}"
                       for side, (masks, flags, _) in sides if not flags[k]]
                if bad:
                    unital = fail("unital", g, f"atom of {g.name}: {'; '.join(bad)} not well-formed")
    elif not normal:
        unital = fail("unital", None, "structure is not normal, so no augmentation is available")
    else:
        for g, neg, pos in _non_unital(t):
            unital = fail(
                "unital", g, f"iterated boundaries of {g.name} reach {t.text(0, neg)} and {t.text(0, pos)}, "
                "not augmentation 1",
            )

    # Weak loop-freeness: one digraph per dimension n >= 1 on that
    # dimension's generators, x -> y when pos faces of x meet neg faces of y.
    weak = [(n, _meets(negs[n], poss[n]), [g.name for g in gens[n]]) for n in range(1, len(gens)) if gens[n]]
    weakly_loop_free = _order_or_cycle("weakly_loop_free", weak, failures, witnesses)

    # Steiner loop-freeness: one digraph per level n >= 0 on all
    # generators, whose defining relation has x -> y when the positive
    # atom counts of x at level n meet the negative atom counts of y at
    # level n.  A generator f of dimension n has the level-n counts {f} on
    # both sides, so the relation holds from each x with f among its
    # positive counts to f, and from f to each y with f among its negative
    # counts; its other edges, x -> y between generators above dimension n
    # that share such an f, are the paths x -> f -> y.  Level n's digraph
    # keeps only the edges through its own dimension-n generators (the
    # nodes from offset[n] on, higher ones from offset[n + 1]): one step
    # per generator and face, not per edge.  It has the relation's
    # reachability, so its acyclicity, its lex-least order and, as
    # _order_or_cycle says, its cycle; the relation itself is never built.
    atoms, names = [t.atom(g) for g in nodes], [g.name for g in nodes]

    def steiner():
        for n in range(len(gens)):
            low, high = t.offset[n], t.offset[n + 1]
            rows: list = [()] * low + [[] for _ in range(high - low)]
            for x in range(high, len(nodes)):
                (_, _, neg), (_, _, pos) = atoms[x]
                rows.append([low + f for f in pos[n]])
                for f in neg[n]:
                    rows[low + f].append(x)
            yield n, rows, names

    steiner_loop_free = _order_or_cycle("steiner_loop_free", steiner(), failures, witnesses)

    # Strong loop-freeness: a single digraph on all generators,
    # x -> y when x is a negative face of y or y is a positive face of x.
    strong: list[list[int]] = [[] for _ in nodes]
    for d in range(1, len(gens)):
        for i in range(len(gens[d])):
            x, below = t.offset[d] + i, t.offset[d - 1]
            for f, _ in negs[d][i]:
                strong[below + f].append(x)
            strong[x] += [below + f for f, _ in poss[d][i]]
    strongly_loop_free = _order_or_cycle("strongly_loop_free", [(None, strong, names)], failures, witnesses)

    if disjoint and globular and unital and t.subset and strongly_loop_free:
        classification = CLASS_PARITY_COMPLEX
    elif disjoint and globular and unital and t.subset and weakly_loop_free:
        classification = CLASS_WEAK
    elif disjoint and globular:
        classification = CLASS_ADDITIVE
    else:
        classification = CLASS_PARITY_STRUCTURE
    if not t.subset:
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
    _check_int(n, "skeleton dimension")
    t = struct._table
    keep = max((d + 1 for d, gs in enumerate(t.gens[: max(n + 1, 0)]) if gs), default=0)
    return type(struct)._of(_FaceTable(t.gens[:keep], t.neg[:keep], t.pos[:keep]))
