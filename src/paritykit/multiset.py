"""Finite multisets and signed integer vectors over graded generators.

Multisets are the elements of the free commutative monoid on one
dimension's generators; signed vectors are the elements of the free
abelian group.  A multiset is a positive chain, so both classes share
one base, ``_Chain``, for storage, entry checks, equality, hashing and
pointwise operations, and differ only in the least entry they accept
and in their own operations.
Everything here is immutable and pure, so values can be shared freely
between threads, reused as dictionary keys, pickled and copied.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from operator import add, itemgetter, sub

#: Counts at or beyond one machine word are rejected instead of accepted.
MAX_COUNT = 2**63 - 1


class DimensionMismatchError(ValueError):
    """Operands are graded by different dimensions."""


class GeneratorId(tuple):
    """A named generator in a fixed dimension.

    An id is the tuple ``(dim, name)``, so hashing, equality and ordering
    run in C and an id equals the plain tuple ``(dim, name)``.  Ids order
    by (dim, name); this is the canonical order used for all
    deterministic output.
    """

    __slots__ = ()

    def __new__(cls, dim: int, name: str) -> GeneratorId:
        _check_int(dim, "generator dimension", 0)
        # A printable character is whitespace only if it is the space itself.
        if not isinstance(name, str) or not name or not name.isprintable() or " " in name:
            raise ValueError(
                f"generator name must be a non-empty printable token, got {name!r}"
            )
        return tuple.__new__(cls, (dim, name))

    dim = property(itemgetter(0))
    name = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[int, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"GeneratorId(dim={self[0]!r}, name={self[1]!r})"

    def __str__(self) -> str:
        return self.name


def _check_int(value: object, what: str, least: int | None = None) -> None:
    """Refuse a dimension, size or index whose type is not int, booleans
    included, or that is below ``least``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def _check_gen(gen: object) -> None:
    """Refuse a key of a value, or a generator argument, that is not a GeneratorId."""
    if not isinstance(gen, GeneratorId):
        raise ValueError(f"generator must be a GeneratorId, got {gen!r}")


def _pair(entry: object) -> tuple | list:
    """Refuse an entry of an iterable that is not a 2-item tuple or list."""
    if not isinstance(entry, (tuple, list)) or isinstance(entry, GeneratorId) or len(entry) != 2:
        raise ValueError(f"entries must be (generator, count) pairs, got {entry!r}")
    return entry


def _entries(dim: int, counts: Mapping | Iterable, word: str) -> Iterator[tuple[GeneratorId, int]]:
    """Check the dimension and the shape of every entry of an iterable (a
    mapping's items are pairs), then yield each entry in the given order
    once its id, its grading, its repeat (a dropped zero entry included),
    its type and its upper bound are checked; the lower bound is the
    caller's."""
    _check_int(dim, "dimension", 0)
    seen: set[GeneratorId] = set()
    for gen, count in counts.items() if isinstance(counts, Mapping) else [_pair(e) for e in counts]:
        _check_gen(gen)
        if gen[0] != dim:
            raise DimensionMismatchError(f"generator {gen.name!r} has dimension {gen.dim}, expected {dim}")
        if gen in seen:
            raise ValueError(f"duplicate generator {gen.name!r}")
        seen.add(gen)
        if type(count) is not int:
            raise ValueError(f"{word} for {gen.name!r} must be an integer, got {count!r}")
        if count > MAX_COUNT:
            raise OverflowError(f"{word} for {gen.name!r} exceeds {MAX_COUNT}")
        yield gen, count


def _same_dim(a: _Chain, b: _Chain) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"operands graded by dimensions {a.dim} and {b.dim}"
        )


class _Chain:
    """What the two value classes share: a dimension and a sparse,
    nonzero generator -> count mapping, fixed at construction.

    ``_entries`` checks every entry but its lower bound, which each
    class's constructor adds before ``_fill`` writes the four slots;
    ``_combine`` builds every pointwise operation of two values.  Values
    are immutable, pickle and copy through their constructor, and equal
    only values of their own class.
    """

    __slots__ = ("_dim", "_counts", "_items", "_hash")

    def _fill(self, dim: int, counts: dict[GeneratorId, int]) -> None:
        items = tuple(sorted(counts.items()))
        _set_dim(self, dim)
        _set_counts(self, counts)
        _set_items(self, items)
        _set_hash(self, hash((dim, items)))

    def _combine(self, other, op):
        """The value of ``op`` on each pair of counts, 0 standing for a
        missing key, over self's keys and then other's new ones; zero
        results are dropped."""
        _same_dim(self, other)
        a, b = self._counts, other._counts
        return type(self)(self._dim, {g: c for g in a | b if (c := op(a.get(g, 0), b.get(g, 0)))})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self._dim, self._counts)

    @property
    def dim(self) -> int:
        return self._dim

    def items(self) -> tuple[tuple[GeneratorId, int], ...]:
        return self._items

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, add)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._dim == other._dim and self._counts == other._counts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dim}, {dict((g.name, c) for g, c in self._items)!r})"


_set_dim, _set_counts, _set_items, _set_hash = (getattr(_Chain, slot).__set__ for slot in _Chain.__slots__)


class Multiset(_Chain):
    """Finite multiset of generators, all of one dimension.

    The zero element is the empty multiset, which still remembers its
    dimension; mixed-dimension operands are an error, never a coercion.
    A multiset with all counts equal to 1 is a subset (equivalently, it
    is radical: a sum of distinct generators).
    """

    __slots__ = ()

    def __init__(self, dim: int, counts: Mapping[GeneratorId, int] | Iterable[tuple[GeneratorId, int]] = ()):
        clean: dict[GeneratorId, int] = {}
        for gen, count in _entries(dim, counts, "count"):
            if count <= 0:
                raise ValueError(f"count for {gen.name!r} must be positive, got {count}")
            clean[gen] = count
        self._fill(dim, clean)

    @classmethod
    def of(cls, *gens: GeneratorId) -> Multiset:
        """Tally of one or more generators; the dimension is taken from the first."""
        if not gens:
            raise ValueError("Multiset.of needs at least one generator; use Multiset(dim)")
        _check_gen(gens[0])  # the constructor checks the rest
        counts: dict[GeneratorId, int] = {}
        for g in gens:
            counts[g] = counts.get(g, 0) + 1
        return cls(gens[0].dim, counts)

    def sort_key(self) -> tuple:
        return tuple((g.name, c) for g, c in self._items)

    def total(self) -> int:
        """Sum of all counts (the augmentation of a dimension-0 chain)."""
        return sum(self._counts.values())

    def is_radical(self) -> bool:
        """True iff every count is 1, i.e. the multiset is a subset."""
        return all(c == 1 for c in self._counts.values())

    def difference(self, other: Multiset) -> Multiset:
        """Truncated difference: pointwise max(count - other, 0)."""
        return self._combine(other, lambda c, d: max(c - d, 0))

    __sub__ = difference

    def meet(self, other: Multiset) -> Multiset:
        """Pointwise min."""
        return self._combine(other, min)

    __and__ = meet

    def join(self, other: Multiset) -> Multiset:
        """Pointwise max."""
        return self._combine(other, max)

    __or__ = join

    def disjoint(self, other: Multiset) -> bool:
        """True iff the meet is empty."""
        _same_dim(self, other)
        small, large = (self, other) if len(self._counts) <= len(other._counts) else (other, self)
        return all(g not in large._counts for g in small._counts)

    def __le__(self, other: Multiset) -> bool:
        _same_dim(self, other)
        return all(c <= other._counts.get(g, 0) for g, c in self._counts.items())

    def to_vector(self) -> SignedVector:
        return SignedVector(self._dim, self._counts)

    def __iter__(self) -> Iterator[GeneratorId]:
        return iter(g for g, _ in self._items)

    def __len__(self) -> int:
        return len(self._counts)

    def __str__(self) -> str:
        return _format_counts((g.name, c) for g, c in self._items)


class SignedVector(_Chain):
    """Element of the free abelian group on one dimension's generators.

    Stored sparsely: only nonzero entries are kept.  The negative and
    positive parts are disjoint multisets whose difference reconstructs
    the vector.
    """

    __slots__ = ()

    def __init__(self, dim: int, entries: Mapping[GeneratorId, int] | Iterable[tuple[GeneratorId, int]] = ()):
        clean: dict[GeneratorId, int] = {}
        for gen, value in _entries(dim, entries, "entry"):
            if value < -MAX_COUNT:
                raise OverflowError(f"entry for {gen.name!r} exceeds {MAX_COUNT}")
            if value:
                clean[gen] = value
        self._fill(dim, clean)

    def is_zero(self) -> bool:
        return not self._counts

    def parts(self) -> tuple[Multiset, Multiset]:
        """(negative part, positive part): disjoint multisets with pos - neg = self."""
        neg = {g: -v for g, v in self._counts.items() if v < 0}
        pos = {g: v for g, v in self._counts.items() if v > 0}
        return Multiset(self._dim, neg), Multiset(self._dim, pos)

    def __sub__(self, other: SignedVector) -> SignedVector:
        return self._combine(other, sub)

    def __neg__(self) -> SignedVector:
        return SignedVector(self._dim, {g: -v for g, v in self._counts.items()})

    def __str__(self) -> str:
        return _format_entries((g.name, v) for g, v in self._items)


def _format_counts(pairs: Iterable[tuple[str, int]]) -> str:
    """Text of a multiset from its (name, count) pairs in id order."""
    return "{" + ", ".join(name if c == 1 else f"{name}:{c}" for name, c in pairs) + "}"


def _format_entries(pairs: Iterable[tuple[str, int]]) -> str:
    """Text of a signed vector from its nonzero (name, entry) pairs in id order."""
    terms = [f"{'+' if v > 0 else '-'}{'' if abs(v) == 1 else abs(v)}{name}" for name, v in pairs]
    return " ".join(terms) or "0"
