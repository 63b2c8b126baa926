"""Constructors for the standard families: globes, orientals, parity cubes.

Cubes and orientals come from two products of face rows (name, dim,
neg, pos), which name x ⊗ y and x ⋆ y by concatenating names:

* tensor, with the Koszul sign: neg(x ⊗ y) = neg(x) ⊗ y ∪
  x ⊗ (neg(y) if |x| is even else pos(y)), and dually for pos;
* join, of dimension |x| + |y| + 1, with ∅ ⋆ y = y, a point's boundary
  its augmentation ∅, and the sign (-1)^(|x|+1) on x ⋆ ∂y:
  neg(x ⋆ y) = neg(x) ⋆ y ∪ x ⋆ (neg(y) if |x| is odd else pos(y)).

cube(n) is the n-fold tensor power of the interval "*": "0" → "1", and
oriental(n) the join of the points "0", ..., "n".  Two forcing cases
pin the orientation: "*" and "01" have source {"0"}.  A globally
reversed convention would validate identically; this one is the
contract, locked by snapshot tests.
"""

from __future__ import annotations

from functools import reduce

from .multiset import _check_int
from .parity_core import ParityStructure

#: Family size bounds; the corpora grow quickly past these.
GLOBE_MAX = 16
ORIENTAL_MAX = 7
CUBE_MAX = 6

FAMILIES = ("globe", "oriental", "cube")


def _check_bound(family: str, n: int, limit: int) -> None:
    _check_int(n, f"{family} size", 0)
    if n > limit:
        raise ValueError(f"{family}({n}) exceeds the bound {limit}")


def globe(n: int) -> ParityStructure:
    """The n-globe: two generators per dimension below n and a single top.

    Generators are named "e<k>-", "e<k>+" for k < n and "top"; every
    face set is a singleton, so all validator flags hold trivially.
    """
    _check_bound("globe", n, GLOBE_MAX)
    rows: list[tuple[str, int, list[str], list[str]]] = []
    for k in range(n):
        neg = [f"e{k - 1}-"] if k > 0 else []
        pos = [f"e{k - 1}+"] if k > 0 else []
        rows.append((f"e{k}-", k, neg, pos))
        rows.append((f"e{k}+", k, neg, pos))
    top_neg = [f"e{n - 1}-"] if n > 0 else []
    top_pos = [f"e{n - 1}+"] if n > 0 else []
    rows.append(("top", n, top_neg, top_pos))
    return ParityStructure.build(rows)


_Rows = list[tuple[str, int, list[str], list[str]]]


def _tensor(a: _Rows, b: _Rows, shift: int = 0) -> _Rows:
    """The tensor product of two sets of rows, every dimension raised by
    shift: rows x + y with faces of x times y, then x times the faces of
    y, swapped when |x| + shift is odd."""
    rows = []
    for x, p, x_neg, x_pos in a:
        for y, q, y_neg, y_pos in b:
            if (p + shift) % 2:
                y_neg, y_pos = y_pos, y_neg
            neg = [f + y for f in x_neg] + [x + f for f in y_neg]
            pos = [f + y for f in x_pos] + [x + f for f in y_pos]
            rows.append((x + y, p + q + shift, neg, pos))
    return rows


def _join(a: _Rows, b: _Rows) -> _Rows:
    """The join of two sets of rows: a, b, and every x ⋆ y as the tensor
    of the augmented rows raised by one.  A list, so that build rejects
    factors sharing a generator name."""
    def augmented(rows: _Rows) -> _Rows:
        return [(x, p, neg, pos) if p else (x, 0, [], [""]) for x, p, neg, pos in rows]

    return [*a, *b, *_tensor(augmented(a), augmented(b), 1)]


def oriental(n: int) -> ParityStructure:
    """The parity n-simplex underlying the n-th oriental.

    Vertices are named by the digits "0", ..., "n", single digits since
    n is at most ORIENTAL_MAX.
    """
    _check_bound("oriental", n, ORIENTAL_MAX)
    return ParityStructure.build(reduce(_join, ([(str(v), 0, [], [])] for v in range(n + 1))))


def cube(n: int) -> ParityStructure:
    """The parity n-cube.

    The empty word of cube(0) is named "e" (names must be non-empty).
    """
    _check_bound("cube", n, CUBE_MAX)
    interval = [("0", 0, [], []), ("1", 0, [], []), ("*", 1, ["0"], ["1"])]
    return ParityStructure.build(reduce(_tensor, [interval] * n) if n else [("e", 0, [], [])])


def family(name: str, n: int) -> ParityStructure:
    """Dispatch on a family name ("globe", "oriental", or "cube")."""
    if name == "globe":
        return globe(n)
    if name == "oriental":
        return oriental(n)
    if name == "cube":
        return cube(n)
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
