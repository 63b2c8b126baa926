"""Partial-order extension by topological sorting, with cycle witnesses.

A finite relation extends to a partial order iff its digraph has no
directed cycle through two or more distinct nodes (self-loops are
harmless: partial orders are reflexive).  On success we return the
lexicographically least topological linearization, so output is
deterministic; on failure, an explicit directed cycle.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping


def lex_topological_order(
    n: int, successors: Mapping[int, Iterable[int]]
) -> tuple[list[int] | None, list[int] | None]:
    """Return (order, None) if acyclic, else (None, cycle).

    The nodes are 0..n-1, and the least available node is emitted
    first.  ``successors`` maps a node to its distinct successors among
    them; nodes it leaves out have none, and self-loops are ignored.  A
    returned cycle [v0, ..., vk] has edges v0 -> v1 -> ... -> vk -> v0
    with k >= 1.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    for src, dsts in successors.items():
        out[src] = [dst for dst in dsts if dst != src]
    order = _lex_order(out)
    if len(order) == n:
        return order, None
    return None, _find_cycle(order, out)


def _lex_order(out: list[list[int]]) -> list[int]:
    """The lexicographically least topological order of the digraph whose
    node x has the distinct successors ``out[x]``, none of them x; where a
    cycle stalls the sort, the nodes emitted so far."""
    indegree = [0] * len(out)
    for row in out:
        for dst in row:
            indegree[dst] += 1
    heap = [x for x, k in enumerate(indegree) if not k]  # ascending, so a heap
    order: list[int] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for dst in out[node]:
            indegree[dst] -= 1
            if not indegree[dst]:
                heapq.heappush(heap, dst)
    return order


def _find_cycle(order: list[int], out: list[list[int]]) -> list[int]:
    """A directed cycle among the nodes a stalled ``_lex_order`` left out of
    ``order``: a depth-first search over them, from the least and along
    ``out`` in row order, with gray/black colouring."""
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
            advanced = False
            for dst in stack[-1]:
                if color.get(dst) == GRAY:
                    return path[path.index(dst):]
                if dst not in color:
                    color[dst] = GRAY
                    path.append(dst)
                    stack.append(iter([d for d in out[dst] if d in alive]))
                    advanced = True
                    break
            if not advanced:
                color[path.pop()] = BLACK
                stack.pop()
    raise AssertionError("stalled topological sort without a cycle")
