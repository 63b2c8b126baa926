"""Cell tables of the omega-category generated by a parity structure.

An n-cell is a double row of positive chains (M_0..M_n; P_0..P_n) with
equal top columns, each higher column's boundary moving the column
below.  Over a weak parity complex every column of every valid cell is
a well-formed subset, the cells of each dimension are finitely
enumerable, and every cell decomposes into singleton-top slices and is
reachable from atoms and identities under composition.

Enumeration grows cells from their source cells: an n-cell is an
(n-1)-cell plus a top that moves the source's top column, and the top
is added one generator at a time.  This is complete because every
prefix of an excision order of a top is itself the top of a cell with
the same source, so each growth step passes through cells only.

Cells are handled on bitmask columns: one int per column over that
dimension's sorted generators, which is exact because every column is a
subset.  Enumeration grows each level of pairs of mask rows from the
level below and sorts it before the next one grows from it, with no
final sort, and atom closure composes, faces and lifts them.  The
subset tables they return, and those of atom, excision, apply_to_cell
and the cell operations, keep the mask rows and a face table; a
column's Multiset is built, once per face table, only when a caller
reads it or hashes the table.  On subset faces validate_cell accepts
such a table by face unions, as a well-formed subset's chain equation
is its movement; a refusal, and a table over Multisets, are read as
chains.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Sequence

from .chain import AugmentationMissingError, FreeDirectedComplex
from .multiset import GeneratorId, Multiset, _check_int, _format_entries
from .parity_core import (
    CLASS_WEAK,
    MAX_DIM,
    ParityStructure,
    Structure,
    StructureError,
    _bits,
    _boundary,
    _FaceTable,
    _lex_sort,
    _mask,
    _meets,
    _moves,
    _signed,
    _spread,
    validate,
)

#: Environment variable capping the cells enumerated, or reached by atom closure.
MAX_CELLS_ENV = "PARITYKIT_MAX_CELLS"
DEFAULT_MAX_CELLS = 10**6


class NotComposableError(ValueError):
    """The requested source/target faces do not match."""


class InternalCheckError(RuntimeError):
    """A consequence the theory guarantees failed to hold; inputs are suspect."""


class EnumerationCapError(RuntimeError):
    """Cell enumeration or atom closure exceeded the configured cap."""


class CellTable:
    """Immutable double row of chains; dimension = number of columns - 1.

    Construction checks only the shape (equal row lengths, column k a
    pair of Multisets graded by dimension k); the cell conditions are
    validate_cell's job.

    A subset table that comes from a structure -- from enumeration,
    atom closure, atom (a point's atom is its 0-cell), excision,
    apply_to_cell and the cell operations -- keeps its columns as (neg,
    pos) rows of masks over the structure's face table, and reads a
    column's Multiset from that table's cache of its dimension's columns
    only when neg, pos, top or str asks for it; sort_key reads the masks'
    set bits.  Two tables over one face table compare their masks, any
    other pair their columns.  The hash reads the negative row's column
    hashes alone, as a cell's negative row fixes its positive one
    (P_k = M_k + dM_{k+1}, P_n = M_n); so a table over masks and an equal
    one over Multisets stand for each other as dict keys, and two tables
    that are not both cells may hash equal yet differ.  Tables pickle and
    copy through the constructor.
    """

    __slots__ = ("_rows", "_faces")

    def __init__(self, neg: Sequence[Multiset], pos: Sequence[Multiset]):
        neg = tuple(neg)
        pos = tuple(pos)
        if not neg or len(neg) != len(pos):
            raise ValueError("cell table needs equal, nonempty rows")
        for k, (m, p) in enumerate(zip(neg, pos)):
            if not (isinstance(m, Multiset) and isinstance(p, Multiset)):
                bad = p if isinstance(m, Multiset) else m
                raise ValueError(f"column {k} must hold Multisets, got {type(bad).__name__}")
            if m.dim != k or p.dim != k:
                raise ValueError(f"column {k} must be graded by dimension {k}")
        _set_rows(self, (neg, pos))
        _set_faces(self, None)

    @classmethod
    def _of(cls, faces: _FaceTable | None, rows: tuple[tuple, tuple]) -> CellTable:
        """A table without the shape check: (neg, pos) rows of subset
        masks over faces, or of Multisets when faces is None."""
        out = object.__new__(cls)
        _set_rows(out, rows)
        _set_faces(out, faces)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("CellTable is immutable")

    def __reduce__(self):
        return CellTable, (self.neg, self.pos)

    @property
    def dim(self) -> int:
        return len(self._rows[0]) - 1

    @property
    def neg(self) -> tuple[Multiset, ...]:
        return self._multisets(self._rows[0])

    @property
    def pos(self) -> tuple[Multiset, ...]:
        return self._multisets(self._rows[1])

    def _multisets(self, row: tuple) -> tuple[Multiset, ...]:
        if self._faces is None:
            return row
        columns = self._faces.columns
        return tuple([columns[k][mask][0] for k, mask in enumerate(row)])

    @property
    def top(self) -> Multiset:
        top = self._rows[0][-1]
        return top if self._faces is None else self._faces.columns[self.dim][top][0]

    def is_identity(self) -> bool:
        """True iff the top column is empty (the lift of a lower cell)."""
        neg, pos = self._rows
        return len(neg) > 1 and not neg[-1] and not pos[-1]  # an empty Multiset is false, as is mask 0

    def is_subset_columned(self) -> bool:
        return self._faces is not None or all(c.is_radical() for row in self._rows for c in row)

    def sort_key(self) -> tuple:
        if self._faces is None:
            return (self.dim, *(tuple([c.sort_key() for c in row]) for row in self._rows))
        gens = self._faces.gens  # a mask's (name, count) pairs, read off its set bits
        return (self.dim, *(tuple([tuple([(gens[k][j].name, 1) for j in _bits(mask)])
                                   for k, mask in enumerate(row)]) for row in self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellTable):
            return NotImplemented
        if self._faces is other._faces:  # masks over one face table, or Multisets on both sides
            return self._rows == other._rows
        return self.neg == other.neg and self.pos == other.pos

    def __hash__(self) -> int:
        if self._faces is None:
            return hash(tuple([hash(c) for c in self._rows[0]]))
        columns = self._faces.columns
        return hash(tuple([columns[k][mask][1] for k, mask in enumerate(self._rows[0])]))

    def __repr__(self) -> str:
        return f"CellTable({self!s})"

    def __str__(self) -> str:
        row = lambda cols: ", ".join(str(c) for c in cols)
        return f"({row(self.neg)}; {row(self.pos)})"


_set_rows, _set_faces = (getattr(CellTable, slot).__set__ for slot in CellTable.__slots__)


def _table_on(t: _FaceTable, rows: Sequence[Sequence[dict[int, int]]]) -> CellTable:
    """The table of (neg, pos) rows of index -> count columns over face
    table t: on mask rows over t when every count is 1, else on Multisets."""
    if all(c == 1 for row in rows for column in row for c in column.values()):
        return CellTable._of(t, tuple(tuple(_mask(column.items()) for column in row) for row in rows))
    return CellTable._of(None, tuple(tuple(t.multiset(k, column) for k, column in enumerate(row)) for row in rows))


def validate_cell(
    source: Structure | FreeDirectedComplex, table: CellTable, mode: str | None = None
) -> tuple[bool, str | None]:
    """Check the cell conditions; returns (ok, reason-if-not).

    Mode "rho" checks the boundary conditions and top equality; mode
    "nu" additionally requires augmentation 1 in dimension 0 (an error
    if the complex has no augmentation).  The default is "nu" when the
    complex is augmented (its basis is normal) and "rho" otherwise: the
    one rule every cell entry point checks by.  A table over masks of
    the structure's subset faces whose higher columns are well-formed is
    accepted by face unions.  Any other table, and every refusal, is
    checked on the columns as index -> count chains over the face table,
    which a structure and its complex share, each boundary summed from
    its signed rows and written from its row, so a reason never outgrows
    a machine word.
    """
    t = source._table
    if mode is None:
        mode = "nu" if t.normal else "rho"
    elif mode not in ("rho", "nu"):
        raise ValueError(f"unknown cell mode {mode!r}")
    if table._faces is t and t.subset and _accepted_by_unions(t, table._rows, mode == "nu"):
        return True, None
    neg, pos = _chains(t, table)
    if neg[-1] != pos[-1]:
        return False, f"top columns differ: {table.top} vs {table.pos[-1]}"
    for k in range(table.dim):
        want = _signed(neg[k].items(), pos[k].items())
        for label, column in (("negative", neg[k + 1]), ("positive", pos[k + 1])):
            got = _boundary(t, k + 1, column.items())
            if got != want:
                return False, (f"{label} column {k + 1} has boundary {t.text(k, got, _format_entries)}, "
                               f"expected {t.text(k, want, _format_entries)}")
    if mode == "nu":
        if not t.normal:
            raise AugmentationMissingError("complex has no augmentation (basis is not normal)")
        for label, column in (("negative", neg[0]), ("positive", pos[0])):
            total = sum(column.values())
            if total != 1:
                return False, f"{label} column 0 has augmentation {total}, expected 1"
    return True, None


def _accepted_by_unions(t: _FaceTable, rows: _MaskCell, nu: bool) -> bool:
    """Whether mask rows over subset face table t are a cell by face unions:
    equal tops, each higher column a well-formed subset that moves the pair
    below (its chain equation there) and, for nu, a normal complex and one
    point in M_0, which P_0 then has too (a boundary has augmentation 0);
    False leaves the verdict to the chain reading."""
    neg, pos = rows
    if neg[-1] != pos[-1] or nu and not (t.normal and _spread(t, 0, neg[0])[2]):
        return False
    for k in range(len(neg) - 1):
        for column in {neg[k + 1], pos[k + 1]}:  # the top column once
            n, p, well_formed = _spread(t, k + 1, column)
            if not (well_formed and _moves(n, p, neg[k], pos[k], False)):
                return False
    return True


def _chains(t: _FaceTable, table: CellTable) -> tuple[list[dict[int, int]], ...]:
    """The (neg, pos) rows of a table as index -> count chains over face
    table t; a generator t lacks raises UnknownGeneratorError."""
    if table._faces is t:
        return tuple([dict.fromkeys(_bits(mask), 1) for mask in row] for row in table._rows)
    index = t.index
    return tuple([{index[g]: c for g, c in column.items()} for column in row] for row in (table.neg, table.pos))


def face(table: CellTable, k: int, sign: str) -> CellTable:
    """The k-source or k-target: first k columns kept, then the chosen row."""
    _check_int(k, "face index")
    if not 0 <= k < table.dim:
        raise ValueError(f"face index {k} out of range for a {table.dim}-cell")
    if sign not in ("source", "target"):
        raise ValueError(f"sign must be 'source' or 'target', got {sign!r}")
    neg, pos = table._rows
    last = neg[k] if sign == "source" else pos[k]
    return CellTable._of(table._faces, (neg[:k] + (last,), pos[:k] + (last,)))


def identity(table: CellTable) -> CellTable:
    """The identity one dimension up: same columns plus a pair of zeros."""
    neg, pos = table._rows
    zero = Multiset(table.dim + 1) if table._faces is None else 0
    return CellTable._of(table._faces, (neg + (zero,), pos + (zero,)))


def compose(x: CellTable, y: CellTable, k: int) -> CellTable:
    """The k-composite: shared columns up to k, sums above.

    When both operands have subset columns the sums are guaranteed to be
    disjoint unions; a violation means the inputs were not cells of a
    weak parity complex and raises InternalCheckError.
    """
    _check_int(k, "composition index")
    if x.dim != y.dim:
        raise NotComposableError(f"dimensions differ: {x.dim} vs {y.dim}")
    if not 0 <= k < x.dim:
        raise NotComposableError(f"composition index {k} out of range for {x.dim}-cells")
    same = x._faces is y._faces  # masks over one face table, or Multisets on both sides
    (x_neg, x_pos), (y_neg, y_pos) = (x._rows, y._rows) if same else ((x.neg, x.pos), (y.neg, y.pos))
    # the k-target of x against the k-source of y, column by column
    if x_pos[k] != y_neg[k] or x_neg[:k] != y_neg[:k] or x_pos[:k] != y_pos[:k]:
        raise NotComposableError(f"{k}-target of the first is not the {k}-source of the second")
    if same and x._faces is not None:
        return CellTable._of(x._faces, _composite(x._rows, y._rows, k))
    check_subsets = x.is_subset_columned() and y.is_subset_columned()
    neg = list(x_neg[: k + 1])
    pos = list(y_pos[: k + 1])
    for j in range(k + 1, x.dim + 1):
        m = x_neg[j] + y_neg[j]
        p = x_pos[j] + y_pos[j]
        if check_subsets and not (m.is_radical() and p.is_radical()):
            raise _not_disjoint(j)
        neg.append(m)
        pos.append(p)
    return CellTable._of(None, (tuple(neg), tuple(pos)))


def _not_disjoint(j: int) -> InternalCheckError:
    """The error of a composite of subset-columned cells whose column j sums overlapping subsets."""
    return InternalCheckError(f"column {j} of a composite of subset-columned cells is not a subset")


def atom(struct: Structure, gen: GeneratorId) -> CellTable:
    """The atom of a generator: its iterated face levels as a table (for
    a point, its 0-cell).

    For parity structures the rows are the subset face levels; for
    additive structures the iterated multiset boundaries, which are the
    same subsets on subset faces while every level above is well-formed.
    The result is a valid nu-cell exactly when the structure is unital at
    the generator.
    """
    t = struct._table
    if isinstance(struct, ParityStructure):
        return CellTable._of(t, tuple(tuple(masks) for masks, _, _ in t.atom(gen)))
    return _table_on(t, [counts for _, _, counts in t.atom(gen)])


# ---------------------------------------------------------------------------
# enumeration


def _max_cells() -> int:
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError:
        raise EnumerationCapError(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise EnumerationCapError(f"{MAX_CELLS_ENV} must be positive, got {value}")
    return value


def _check_search(struct: Structure, max_dim: int, task: str) -> None:
    """The gate of every search: a max_dim that is not an int in
    0..MAX_DIM raises ValueError, then a structure that is not a weak
    parity complex StructureError naming its classification."""
    _check_int(max_dim, "max_dim", 0)
    if max_dim > MAX_DIM:  # each level above a structure's top is identities a column wider
        raise ValueError(f"max_dim must be at most {MAX_DIM}, got {max_dim}")
    report = validate(struct)
    if not report.meets(CLASS_WEAK):
        raise StructureError(f"{task} needs a weak parity complex, got {report.classification}")


#: A cell as its (neg, pos) rows of column masks.
_MaskCell = tuple[tuple[int, ...], tuple[int, ...]]


def _mask_rows(t: _FaceTable, table: CellTable) -> _MaskCell:
    """The (neg, pos) mask rows of a table over the structure with face
    table t; a column that is not a subset raises InternalCheckError."""
    if table._faces is not t:
        table = _table_on(t, _chains(t, table))
    if table._faces is None:
        column = next(c for row in table._rows for c in row if not c.is_radical())
        raise InternalCheckError(f"column {column} of a cell over a weak parity complex is not a subset")
    return table._rows


def enumerate_cells(struct: Structure, max_dim: int) -> list[CellTable]:
    """The complete, duplicate-free list of valid nu-cells up to max_dim.

    Requires the structure to classify as a weak parity complex, which
    guarantees every cell's columns are well-formed subsets.  Cells are
    grown bottom-up: the 0-cells are the points, and the n-cells with a
    given (n-1)-cell S as source are S plus a top T that moves S's top
    column M to the target column M + dT.  T is grown from the empty
    set (the identity on S) one generator b at a time, where neg(b) lies
    in the current column C and pos(b) misses it, and C becomes
    (C minus neg b) plus pos b.  This reaches every cell because every
    prefix of an excision order of a top is such a growth step (see
    excision_decompose); each T is kept once per source.

    The search runs on mask cells, and each level is sorted before the
    next one grows from it, so the cells come out in canonical order with
    no final sort; each cell's table is made on its mask rows.  Every
    search state is an emitted cell, so the PARITYKIT_MAX_CELLS cap
    bounds the work as well as the output.
    """
    t, table = struct._table, CellTable._of
    return [table(t, cell) for cell in _mask_cells(struct, max_dim)]


def _mask_cells(struct: Structure, max_dim: int) -> list[_MaskCell]:
    """The cells of enumerate_cells as mask cells, capped and gated as it is.

    A cell grown from a source S by a top T to the column C has the rows
    (S.neg + (T,), S.pos[:-1] + (C, T)), where S.pos[-1] = S.neg[-1] and C
    follows from S and T.  So once S's level is sorted, the cells sort on
    (first, T's bits, S's position), with first the position of the first
    source whose negative row is S's.
    """
    _check_search(struct, max_dim, "enumeration")
    cap = _max_cells()
    message = f"enumeration exceeded {cap} cells (set {MAX_CELLS_ENV} to raise)"
    level: list[_MaskCell] = [((1 << i,), (1 << i,)) for i in range(len(struct.generators(0)))]
    if len(level) > cap:
        raise EnumerationCapError(message)
    out: list[_MaskCell] = []
    bits: dict[int, tuple[int, ...]] = {}
    faces = struct._table
    for d in range(1, max_dim + 1):
        if not level:  # no cell to grow: every higher level is empty too
            break
        out += level
        moves = [(1 << i, faces.neg_mask[d][i], faces.pos_mask[d][i]) for i in range(len(struct.generators(d)))]
        room, grown, first = cap - len(out), [], 0
        for index, (head_neg, source_pos) in enumerate(level):
            if head_neg != level[first][0]:
                first = index
            head_pos = source_pos[:-1]
            seen = {0}
            stack = [(0, source_pos[-1])]
            while stack:
                top, current = stack.pop()
                key = bits.get(top)
                if key is None:
                    key = bits[top] = tuple(_bits(top))
                grown.append((first, key, index, (head_neg + (top,), head_pos + (current, top))))
                if len(grown) > room:
                    raise EnumerationCapError(message)
                outside = ~current
                for bit, neg, pos in moves:
                    if neg & outside or pos & current or top & bit:
                        continue
                    nxt = top | bit
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, current ^ neg ^ pos))
        grown.sort()  # no two cells share a key, so cells are never compared
        level = [keyed[3] for keyed in grown]
        del grown  # the keys, before the next level grows
    return out + level


# ---------------------------------------------------------------------------
# excision


def excision_decompose(
    source: Structure | FreeDirectedComplex, table: CellTable
) -> list[CellTable]:
    """Split a cell into singleton-top slices composing back to it.

    The top's members are ordered so that the positive faces of an
    earlier (or equal) member never meet the negative faces of a later
    one reversed -- i.e. pos(b_i) meet neg(b_j) is empty whenever
    i >= j -- and the slices' (n-1)-composite, left to right, equals the
    input.  The order is the lexicographically least one of the weak
    relation on the members, built and sorted as validate builds and
    sorts it on a whole dimension.  Identity cells decompose into the
    empty list.

    The column below the top moves by each member's signed row, its
    boundary p - m, as index -> count dicts over the face table.

    A cell naming a generator the structure lacks raises
    UnknownGeneratorError before the structure is checked.  Requires a
    globular, weakly loop-free structure and a valid cell of
    dimension >= 1; intermediate columns failing positivity mean the
    hypotheses were violated and raise InternalCheckError.
    """
    faces = source._table
    neg_row, pos_row = _chains(faces, table)  # a generator the structure lacks is refused first
    struct = source.structure if isinstance(source, FreeDirectedComplex) else source
    # additive globularity is dd = 0; weak loop-freeness reads only supports
    globular, weakly_loop_free = not faces.dd_defects(), validate(struct).weakly_loop_free
    if not (globular and weakly_loop_free):
        raise StructureError(
            "excision needs a globular, weakly loop-free structure, got "
            f"globular={globular}, weakly_loop_free={weakly_loop_free}"
        )
    if table.dim < 1:
        raise ValueError("excision applies to cells of dimension >= 1")
    ok, reason = validate_cell(source, table)
    if not ok:
        raise ValueError(f"not a valid cell: {reason}")

    n = table.dim
    top = sorted(neg_row[-1].items())
    if not top:
        return []
    if len(top) == 1 and top[0][1] == 1:
        return [table]

    members = [i for i, _ in top]
    order, cycle = _lex_sort(_meets([faces.neg[n][i] for i in members], [faces.pos[n][i] for i in members]))
    if cycle is not None:
        names = [faces.gens[n][members[i]] for i in cycle]
        raise InternalCheckError(f"cycle among top members of a weakly loop-free structure: {names}")

    heads = [row[:-2] for row in (neg_row, pos_row)]
    slices: list[CellTable] = []
    current = neg_row[-2]
    for i in [top[k][0] for k in order for _ in range(top[k][1])]:
        nxt = dict(current)
        for j, c in faces.signed[n][i].items():
            nxt[j] = nxt.get(j, 0) + c
        nxt = {j: c for j, c in nxt.items() if c}
        if min(nxt.values(), default=0) < 0:
            text = faces.text(n - 1, nxt, _format_entries)
            raise InternalCheckError(f"intermediate column {text} is not positive; excision order failed")
        slices.append(_table_on(faces, (heads[0] + [current, {i: 1}], heads[1] + [nxt, {i: 1}])))
        current = nxt
    if current != pos_row[-2]:
        raise InternalCheckError("excision slices do not close up to the target column")
    return slices


# ---------------------------------------------------------------------------
# generation by atoms


class AtomExpression:
    """Expression tree over atoms, identity lifts, and k-composites.

    Subexpressions may be shared, as the witnesses of atom_closure
    share them; evaluation builds each shared one once.
    """

    __slots__ = ()

    def evaluate(self, struct: Structure) -> CellTable:
        return self._evaluate(struct, {})

    def _evaluate(self, struct: Structure, memo: dict[AtomExpression, CellTable]) -> CellTable:
        """evaluate, reusing the table of every subexpression in memo
        (keyed by identity) and adding those it builds."""
        table = memo.get(self)
        if table is None:
            table = memo[self] = self._build(struct, memo)
        return table

    def _build(self, struct: Structure, memo: dict[AtomExpression, CellTable]) -> CellTable:
        raise NotImplementedError

    def to_payload(self) -> list:
        raise NotImplementedError


class AtomLeaf(AtomExpression):
    __slots__ = ("gen",)

    def __init__(self, gen: GeneratorId):
        self.gen = gen

    def _build(self, struct: Structure, memo: dict[AtomExpression, CellTable]) -> CellTable:
        return atom(struct, self.gen)

    def to_payload(self) -> list:
        return ["atom", self.gen.name]

    def __repr__(self):
        return f"AtomLeaf({self.gen.name})"


class IdentityLift(AtomExpression):
    __slots__ = ("inner",)

    def __init__(self, inner: AtomExpression):
        self.inner = inner

    def _build(self, struct: Structure, memo: dict[AtomExpression, CellTable]) -> CellTable:
        return identity(self.inner._evaluate(struct, memo))

    def to_payload(self) -> list:
        return ["id", self.inner.to_payload()]

    def __repr__(self):
        return f"IdentityLift({self.inner!r})"


class Composite(AtomExpression):
    __slots__ = ("level", "left", "right")

    def __init__(self, level: int, left: AtomExpression, right: AtomExpression):
        self.level, self.left, self.right = level, left, right

    def _build(self, struct: Structure, memo: dict[AtomExpression, CellTable]) -> CellTable:
        left = self.left._evaluate(struct, memo)
        return compose(left, self.right._evaluate(struct, memo), self.level)

    def to_payload(self) -> list:
        return ["compose", self.level, self.left.to_payload(), self.right.to_payload()]

    def __repr__(self):
        return f"Composite({self.level}, {self.left!r}, {self.right!r})"


def atom_closure(struct: Structure, max_dim: int) -> dict[CellTable, AtomExpression]:
    """Breadth-first closure of atoms and identities under composition.

    Returns a witness expression for every cell reached, in the order
    the cells are reached; over a parity complex this covers every cell
    of each dimension <= max_dim.  Requires a weak parity complex, as
    enumerate_cells does, so that every column is a subset: the search
    runs on the enumerator's bitmask columns, and tables are built only
    for the returned dict, on the mask rows.  The PARITYKIT_MAX_CELLS
    cap applies to the cells reached.  Identities are units for every
    k-composite, so a cell whose columns above k are zero (the identity
    on its k-face) is never composed at level k: the composite would be
    the other operand, which was reached before.
    """
    _check_search(struct, max_dim, "atom closure")
    t, table = struct._table, CellTable._of
    return {table(t, cell): expr for cell, expr in _closure(struct, max_dim).items()}


def _composite(x: _MaskCell, y: _MaskCell, k: int) -> _MaskCell:
    """The k-composite of mask cells whose k-faces match: the shared
    columns up to k, then unions, which must be disjoint."""
    x_neg, x_pos = x
    y_neg, y_pos = y
    neg = list(x_neg[: k + 1])
    pos = list(y_pos[: k + 1])
    for j in range(k + 1, len(x_neg)):
        m, n, p, q = x_neg[j], y_neg[j], x_pos[j], y_pos[j]
        if m & n or p & q:
            raise _not_disjoint(j)
        neg.append(m | n)
        pos.append(p | q)
    return tuple(neg), tuple(pos)


def _closure(
    struct: Structure, max_dim: int, goal: _MaskCell | None = None
) -> dict[_MaskCell, AtomExpression]:
    """The closure on mask cells, in the order reached; stops as soon as
    goal, if given, is reached.

    An identity appends a pair of zero columns, a k-face is an id of the
    rows below k and column k, and a k-composite ORs the columns above k.
    """
    cap = _max_cells()
    known: dict[_MaskCell, AtomExpression] = {}
    queue: deque[_MaskCell] = deque()
    # (prefix, column k) -> cells with that k-source / k-target, in the order they left the queue,
    # where prefix is the id of (dim, neg[:k], pos[:k]), interned a column at a time from the root ~dim
    prefixes: dict[tuple[int, int, int], int] = {}
    by_source: dict[tuple[int, int], list[_MaskCell]] = {}
    by_target: dict[tuple[int, int], list[_MaskCell]] = {}

    def add(cell: _MaskCell, expr: AtomExpression) -> bool:
        """Record a cell not yet known; True iff it is the goal."""
        known[cell] = expr
        queue.append(cell)
        if len(known) > cap:
            raise EnumerationCapError(
                f"atom closure reached {len(known)} cells, more than {cap} "
                f"(set {MAX_CELLS_ENV} to raise)"
            )
        return cell == goal

    def search() -> None:
        for g in struct.all_generators():  # in id order
            if g.dim <= max_dim:
                leaf = AtomLeaf(g)
                cell = _mask_rows(struct._table, leaf.evaluate(struct))
                if cell not in known and add(cell, leaf):
                    return
        while queue:
            cell = queue.popleft()
            neg, pos = cell
            dim = len(neg) - 1
            expr = known[cell]
            if dim < max_dim:
                lifted = (neg + (0,), pos + (0,))
                if lifted not in known and add(lifted, IdentityLift(expr)):
                    return
            # unit law: above its last nonzero column the cell is an
            # identity, whose k-composite with y is y, already known
            top = dim
            while top and not (neg[top] or pos[top]):
                top -= 1
            prefix = ~dim
            for k in range(top):
                src, tgt = (prefix, neg[k]), (prefix, pos[k])
                by_source.setdefault(src, []).append(cell)
                by_target.setdefault(tgt, []).append(cell)
                # when src == tgt both lists now end with the cell itself
                for y in by_source.get(tgt, ()):
                    composite = _composite(cell, y, k)
                    if composite not in known and add(composite, Composite(k, expr, known[y])):
                        return
                for x in by_target.get(src, ()):
                    if x is not cell:
                        composite = _composite(x, cell, k)
                        if composite not in known and add(composite, Composite(k, known[x], expr)):
                            return
                prefix = prefixes.setdefault((prefix, neg[k], pos[k]), len(prefixes))

    search()
    return known


def generated_by_atoms(struct: Structure, table: CellTable) -> AtomExpression | None:
    """A witness that the cell is generated by atoms, if one exists.

    The witness evaluates back to the cell exactly, and is the one
    atom_closure(struct, table.dim) gives; absence means that closure
    does not contain the cell.  Requires what atom_closure(struct,
    table.dim) requires, checked by the same gate; the closure stops
    once it reaches the cell, and is capped as in atom_closure.
    """
    _check_search(struct, table.dim, "atom closure")
    ok, reason = validate_cell(struct, table)
    if not ok:
        raise ValueError(f"not a valid cell: {reason}")
    goal = _mask_rows(struct._table, table)
    return _closure(struct, table.dim, goal).get(goal)
