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
    indegree = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for src, dsts in successors.items():
        out[src] = row = [dst for dst in dsts if dst != src]
        for dst in row:
            indegree[dst] += 1

    heap = [x for x in range(n) if not indegree[x]]  # ascending, so a heap
    order: list[int] = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for dst in out[node]:
            indegree[dst] -= 1
            if not indegree[dst]:
                heapq.heappush(heap, dst)
    if len(order) == n:
        return order, None
    return None, _find_cycle([x for x in range(n) if indegree[x]], out)


def _find_cycle(remaining: list[int], out: list[list[int]]) -> list[int]:
    # DFS with gray/black colouring over the stalled subgraph.
    alive = set(remaining)
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    for start in remaining:
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
