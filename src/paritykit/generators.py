"""Constructors for the standard families: globes, orientals, parity cubes.

Orientation conventions are pinned by two forcing cases plus an
alternating-sign rule, and locked by snapshot tests:

* oriental(n): dimension-k generators are the strictly increasing
  (k+1)-letter words over 0..n; omitting the i-th letter gives a
  positive face for even i and a negative face for odd i.  This is
  forced up to global reversal by giving the 1-simplex "01" source
  {"0"}.
* cube(n): dimension-k generators are the length-n words over {0,1,*}
  with exactly k stars; replacing the j-th star (counting stars from
  the left, starting at 1) by 1 gives a positive face for odd j and a
  negative face for even j, and replacing it by 0 gives the opposite.
  Forced for n = 1 by giving "*" source {"0"}.  A globally reversed
  convention would validate identically; this one is the contract.
"""

from __future__ import annotations

from itertools import combinations

from .parity_core import ParityStructure

#: Default family size bounds; the corpora grow quickly past these.
GLOBE_MAX = 16
ORIENTAL_MAX = 7
CUBE_MAX = 6

FAMILIES = ("globe", "oriental", "cube")


def _check_bound(family: str, n: int, bound: int, override: int | None) -> None:
    limit = bound if override is None else override
    if n < 0:
        raise ValueError(f"{family} size must be >= 0, got {n}")
    if n > limit:
        raise ValueError(f"{family}({n}) exceeds the bound {limit}")


def globe(n: int, *, bound: int | None = None) -> ParityStructure:
    """The n-globe: two generators per dimension below n and a single top.

    Generators are named "e<k>-", "e<k>+" for k < n and "top"; every
    face set is a singleton, so all validator flags hold trivially.
    """
    _check_bound("globe", n, GLOBE_MAX, bound)
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


def oriental(n: int, *, bound: int | None = None) -> ParityStructure:
    """The parity n-simplex underlying the n-th oriental.

    Vertices are named by single digits, so n is at most 9 whatever the
    bound; a larger n raises ValueError.
    """
    _check_bound("oriental", n, ORIENTAL_MAX, bound)
    digits = "0123456789"
    if n >= len(digits):
        raise ValueError(f"oriental({n}) needs {n + 1} vertices, but vertex names are single digits")
    rows = []
    letters = digits[: n + 1]
    for k in range(n + 1):
        for word in combinations(letters, k + 1):
            name = "".join(word)
            neg, pos = [], []
            for i in range(len(word)):
                face = name[:i] + name[i + 1:]
                if not face:
                    continue
                (pos if i % 2 == 0 else neg).append(face)
            rows.append((name, k, neg, pos))
    return ParityStructure.build(rows)


def cube(n: int, *, bound: int | None = None) -> ParityStructure:
    """The parity n-cube.

    The empty word of cube(0) is named "e" (names must be non-empty).
    """
    _check_bound("cube", n, CUBE_MAX, bound)

    def name_of(word: str) -> str:
        return word if word else "e"

    def words(length: int):
        if length == 0:
            yield ""
            return
        for rest in words(length - 1):
            for ch in "01*":
                yield ch + rest

    rows = []
    for word in words(n):
        k = word.count("*")
        neg, pos = [], []
        star_index = 0
        for pos_i, ch in enumerate(word):
            if ch != "*":
                continue
            star_index += 1
            for bit in "01":
                face = word[:pos_i] + bit + word[pos_i + 1:]
                # odd star: 1 is positive; even star: 1 is negative
                positive = (bit == "1") == (star_index % 2 == 1)
                (pos if positive else neg).append(name_of(face))
        rows.append((name_of(word), k, neg, pos))
    return ParityStructure.build(rows)


def family(name: str, n: int, *, bound: int | None = None) -> ParityStructure:
    """Dispatch on a family name ("globe", "oriental", or "cube")."""
    if name == "globe":
        return globe(n, bound=bound)
    if name == "oriental":
        return oriental(n, bound=bound)
    if name == "cube":
        return cube(n, bound=bound)
    raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
