"""Finite multisets and signed integer vectors over graded generators.

Multisets are the elements of the free commutative monoid on one
dimension's generators; signed vectors are the elements of the free
abelian group.  A multiset is a positive chain, so both classes share
one base, ``_Chain``, for storage, equality, hashing and addition, and
differ only in the entries they accept and in their own operations.
Everything here is immutable and pure, so values can be shared freely
between threads, reused as dictionary keys, pickled and copied.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from operator import itemgetter

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
    """Refuse a key of a Multiset or SignedVector that is not a GeneratorId."""
    if not isinstance(gen, GeneratorId):
        raise ValueError(f"generator must be a GeneratorId, got {gen!r}")


def _same_dim(a: _Chain, b: _Chain) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"operands graded by dimensions {a.dim} and {b.dim}"
        )


class _Chain:
    """What the two value classes share: a dimension and a sparse,
    nonzero generator -> count mapping, fixed at construction.

    Each class checks its entries in its own constructor, which writes
    the four slots; everything built from them lives here.  Values are
    immutable, pickle and copy through their constructor, and equal only
    values of their own class.
    """

    __slots__ = ("_dim", "_counts", "_items", "_hash")

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
        _same_dim(self, other)
        counts = dict(self._counts)
        for g, c in other._counts.items():
            counts[g] = counts.get(g, 0) + c
        return type(self)(self._dim, counts)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._dim == other._dim and self._counts == other._counts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dim}, {dict((g.name, c) for g, c in self._items)!r})"


class Multiset(_Chain):
    """Finite multiset of generators, all of one dimension.

    The zero element is the empty multiset, which still remembers its
    dimension; mixed-dimension operands are an error, never a coercion.
    A multiset with all counts equal to 1 is a subset (equivalently, it
    is radical: a sum of distinct generators).
    """

    __slots__ = ()

    def __init__(self, dim: int, counts: Mapping[GeneratorId, int] | Iterable[tuple[GeneratorId, int]] = ()):
        _check_int(dim, "dimension", 0)
        pairs = counts.items() if isinstance(counts, Mapping) else list(counts)
        clean: dict[GeneratorId, int] = {}
        for gen, count in pairs:
            _check_gen(gen)
            if gen.dim != dim:
                raise DimensionMismatchError(
                    f"generator {gen.name!r} has dimension {gen.dim}, expected {dim}"
                )
            if gen in clean:
                raise ValueError(f"duplicate generator {gen.name!r}")
            if type(count) is not int:
                raise ValueError(f"count for {gen.name!r} must be an integer, got {count!r}")
            if count <= 0:
                raise ValueError(f"count for {gen.name!r} must be positive, got {count}")
            if count > MAX_COUNT:
                raise OverflowError(f"count for {gen.name!r} exceeds {MAX_COUNT}")
            clean[gen] = count
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_counts", clean)
        object.__setattr__(self, "_items", tuple(sorted(clean.items())))
        object.__setattr__(self, "_hash", hash((dim, self._items)))

    @classmethod
    def of(cls, *gens: GeneratorId) -> Multiset:
        """Tally of one or more generators; the dimension is taken from the first."""
        if not gens:
            raise ValueError("Multiset.of needs at least one generator; use Multiset(dim)")
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
        _same_dim(self, other)
        counts = {}
        for g, c in self._counts.items():
            d = c - other._counts.get(g, 0)
            if d > 0:
                counts[g] = d
        return Multiset(self._dim, counts)

    __sub__ = difference

    def meet(self, other: Multiset) -> Multiset:
        """Pointwise min."""
        _same_dim(self, other)
        counts = {}
        for g, c in self._counts.items():
            d = min(c, other._counts.get(g, 0))
            if d > 0:
                counts[g] = d
        return Multiset(self._dim, counts)

    __and__ = meet

    def join(self, other: Multiset) -> Multiset:
        """Pointwise max."""
        _same_dim(self, other)
        counts = dict(self._counts)
        for g, c in other._counts.items():
            if c > counts.get(g, 0):
                counts[g] = c
        return Multiset(self._dim, counts)

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

    def __contains__(self, gen: GeneratorId) -> bool:
        return gen in self._counts

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
        _check_int(dim, "dimension", 0)
        pairs = entries.items() if isinstance(entries, Mapping) else list(entries)
        clean: dict[GeneratorId, int] = {}
        zeros: set[GeneratorId] = set()  # dropped, but a repeat of one is still a repeat
        for gen, value in pairs:
            _check_gen(gen)
            if gen.dim != dim:
                raise DimensionMismatchError(
                    f"generator {gen.name!r} has dimension {gen.dim}, expected {dim}"
                )
            if gen in clean or (zeros and gen in zeros):
                raise ValueError(f"duplicate generator {gen.name!r}")
            if type(value) is not int:
                raise ValueError(f"entry for {gen.name!r} must be an integer, got {value!r}")
            if value == 0:
                zeros.add(gen)
                continue
            if abs(value) > MAX_COUNT:
                raise OverflowError(f"entry for {gen.name!r} exceeds {MAX_COUNT}")
            clean[gen] = value
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_counts", clean)
        object.__setattr__(self, "_items", tuple(sorted(clean.items())))
        object.__setattr__(self, "_hash", hash((dim, self._items)))

    def is_zero(self) -> bool:
        return not self._counts

    def parts(self) -> tuple[Multiset, Multiset]:
        """(negative part, positive part): disjoint multisets with pos - neg = self."""
        neg = {g: -v for g, v in self._counts.items() if v < 0}
        pos = {g: v for g, v in self._counts.items() if v > 0}
        return Multiset(self._dim, neg), Multiset(self._dim, pos)

    def __sub__(self, other: SignedVector) -> SignedVector:
        _same_dim(self, other)
        entries = dict(self._counts)
        for g, v in other._counts.items():
            entries[g] = entries.get(g, 0) - v
        return SignedVector(self._dim, entries)

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
