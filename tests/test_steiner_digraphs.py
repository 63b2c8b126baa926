"""Steiner loop-freeness through each level's own generators.

`validate` sorts level n's Steiner digraph with only the edges between
the dimension-n generators and the generators above them, and never
builds the defining relation (x -> y when the positive level-n atom
counts of x meet the negative ones of y).  Here a test-side copy of that
relation and of the heap sort that ran on it checks the flag and the
witness, order or cycle, on the families, the structure fixtures and
seeded random draws; counting tests pin that each level's sort gets one
entry per generator and face, and that no relation is built.
"""

import heapq
import random

import pytest

import randstruct
from conftest import FIXTURE_DIR
from test_report_digests import _raw_overlapping
from paritykit import fixtures
from paritykit import parity_core
from paritykit.generators import CUBE_MAX, GLOBE_MAX, ORIENTAL_MAX, cube, globe, oriental
from paritykit.parity_core import (
    AdditiveParityStructure,
    CycleWitness,
    OrderWitness,
    ParityStructure,
    iterated_boundaries,
    validate,
)


# ---------------------------------------------------------------------------
# the defining relation and the sort, as they ran on every edge


def _meets(negs: dict, poss: dict) -> dict[int, list[int]]:
    """Successors on int nodes: x -> y when the faces poss[x] meet the faces negs[y]."""
    users: dict[int, list[int]] = {}
    for y, faces in negs.items():
        for f in faces:
            users.setdefault(f, []).append(y)
    return {x: sorted({y for f in faces for y in users.get(f, ())}) for x, faces in poss.items()}


def _lex_topological_order(n, successors):
    """(order, None) with the least available node first, or (None, cycle)
    from a depth-first search over the nodes the sort leaves."""
    indegree = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for src, dsts in successors.items():
        out[src] = row = [dst for dst in dsts if dst != src]
        for dst in row:
            indegree[dst] += 1
    heap = [x for x in range(n) if not indegree[x]]
    order = []
    while heap:
        node = heapq.heappop(heap)
        order.append(node)
        for dst in out[node]:
            indegree[dst] -= 1
            if not indegree[dst]:
                heapq.heappush(heap, dst)
    if len(order) == n:
        return order, None
    remaining = [x for x in range(n) if indegree[x]]
    alive, color = set(remaining), {}
    for start in remaining:
        if start in color:
            continue
        color[start], path = 1, [start]
        stack = [iter([d for d in out[start] if d in alive])]
        while stack:
            for dst in stack[-1]:
                if color.get(dst) == 1:
                    return None, path[path.index(dst):]
                if dst not in color:
                    color[dst] = 1
                    path.append(dst)
                    stack.append(iter([d for d in out[dst] if d in alive]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    raise AssertionError("stalled sort without a cycle")


def dense_relation(struct, n):
    """The defining level-n Steiner relation on all generators, in
    ``all_generators`` order, with the atom counts read from the public
    iterated boundaries: a successor mapping, self-loops included."""
    additive = struct.to_additive() if isinstance(struct, ParityStructure) else struct
    nodes = list(struct.all_generators())
    atoms = {x: iterated_boundaries(additive, g) for x, g in enumerate(nodes) if g.dim >= n}
    return _meets({y: [f for f, _ in neg[n].items()] for y, (neg, _) in atoms.items()},
                  {x: [f for f, _ in pos[n].items()] for x, (_, pos) in atoms.items()})


def dense_steiner(struct):
    """(flag, witness, levels sorted, cyclic level or None) of Steiner
    loop-freeness, sorting the defining relation level by level."""
    names = [g.name for g in struct.all_generators()]
    orders = []
    for n in range(struct.max_dim + 1):
        order, cycle = _lex_topological_order(len(names), dense_relation(struct, n))
        if cycle is not None:
            return False, CycleWitness(n, tuple(names[x] for x in cycle)), n, n
        orders.append((n, tuple(names[x] for x in order)))
    return True, OrderWitness(tuple(orders)), len(orders), None


# ---------------------------------------------------------------------------
# the populations


def _families():
    return ([globe(n) for n in range(GLOBE_MAX + 1)] + [oriental(n) for n in range(ORIENTAL_MAX + 1)]
            + [cube(n) for n in range(CUBE_MAX + 1)])


def _fixture_structures():
    out = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        value = fixtures.load_path(path).value
        if isinstance(value, (ParityStructure, AdditiveParityStructure)):
            out.append(value)
    return out


def _seeded(seed, make, count=40):
    rng = random.Random(seed)
    return [make(rng) for _ in range(count)]


POPULATIONS = {
    "families": _families,
    "fixtures": _fixture_structures,
    "structured_parity": lambda: _seeded(11, randstruct.random_structured_parity),
    "random_additive": lambda: _seeded(12, randstruct.random_additive_structure),
    "random_additive_dim4": lambda: _seeded(
        13, lambda rng: randstruct.random_additive_structure(rng, max_gens=16, max_dim=4)),
    "random_additive_dim6": lambda: _seeded(
        21, lambda rng: randstruct.random_additive_structure(rng, max_gens=24, max_dim=6), count=200),
    "raw_parity": lambda: _seeded(14, lambda rng: randstruct.random_raw_parity(rng, rng.randint(1, 14))),
    "overlapping_parity": lambda: _seeded(15, lambda rng: _raw_overlapping(rng, ParityStructure)),
    "overlapping_additive": lambda: _seeded(16, lambda rng: _raw_overlapping(rng, AdditiveParityStructure)),
}


@pytest.mark.parametrize("population", sorted(POPULATIONS))
def test_matches_the_defining_relation(population):
    structs = POPULATIONS[population]()
    for struct in structs:
        report = validate(struct)
        flag, witness, _, _ = dense_steiner(struct)
        assert report.steiner_loop_free is flag
        assert report.witnesses["steiner_loop_free"] == witness
        if not flag:
            failure, = (f for f in report.failures if f.axiom == "steiner_loop_free")
            assert failure.generators == witness.cycle
            assert failure.detail == f"directed cycle at level {witness.level}: {witness}"


def _out_of_order(struct, n):
    """Does a generator above dimension n list its positive level-n atom
    counts out of index order?  The search must sort them to name the
    relation's cycle."""
    t = struct._table
    counts = [t.atom(g)[1][2][n] for row in t.gens[n + 1:] for g in row]
    return any(list(pos) != sorted(pos) for pos in counts)


def test_acyclic_and_cyclic_levels_occur():
    """Over the populations, many levels sort and the cyclic ones fall at
    level 0 and above, in parity and multiset-faced structures alike, and
    at one of them atom counts come out of index order."""
    acyclic, cyclic, out_of_order = 0, set(), False
    for make in POPULATIONS.values():
        for struct in make():
            _, _, sorted_levels, level = dense_steiner(struct)
            acyclic += sorted_levels
            if level is not None:
                subset = isinstance(struct, ParityStructure) or struct.is_subset_valued()
                cyclic.add((level > 0, subset))
                out_of_order = out_of_order or _out_of_order(struct, level)
    assert acyclic > 100
    assert cyclic == {(False, False), (False, True), (True, False), (True, True)}
    assert out_of_order


# ---------------------------------------------------------------------------
# one sort entry per generator and face, and no relation built


@pytest.fixture
def sorted_rows(monkeypatch):
    """The rows of every digraph `validate` sorts, in call order: the
    weak levels, then the Steiner levels, then the strong digraph."""
    calls = []

    def recording(rows, _sort=parity_core._lex_sort):
        calls.append(rows)
        return _sort(rows)

    monkeypatch.setattr(parity_core, "_lex_sort", recording)
    return calls


@pytest.mark.parametrize("make", [lambda: cube(CUBE_MAX), lambda: oriental(ORIENTAL_MAX)], ids=["cube", "oriental"])
def test_steiner_sorts_one_entry_per_generator_and_face(sorted_rows, make):
    """Level n's sort gets |neg| + |pos| of the level-n atom counts of each
    generator above dimension n, fewer than the relation's edges."""
    struct = make()
    assert validate(struct).steiner_loop_free
    weak = sum(1 for d in struct.dims() if d >= 1)
    steiner = sorted_rows[weak:weak + struct.max_dim + 1]
    assert len(sorted_rows) == weak + len(steiner) + 1
    faces, edges = [], []
    for n, rows in enumerate(steiner):
        faces.append(sum(len(neg[n]) + len(pos[n]) for g in struct.all_generators() if g.dim > n
                         for neg, pos in [iterated_boundaries(struct.to_additive(), g)]))
        edges.append(sum(len(set(dsts) - {x}) for x, dsts in dense_relation(struct, n).items()))
        assert sum(map(len, rows)) == faces[n]
    assert sum(faces) < sum(edges)


def test_no_relation_is_built(monkeypatch):
    """`_meets` builds the weak digraphs, one per dimension from 1 on, and
    nothing else, on cyclic and acyclic draws alike."""
    calls = []

    def counting(negs, poss, _meets=parity_core._meets):
        calls.append(len(negs))
        return _meets(negs, poss)

    monkeypatch.setattr(parity_core, "_meets", counting)
    for make in POPULATIONS.values():
        for struct in make():
            calls.clear()
            validate(struct)
            assert calls == [len(struct.generators(d)) for d in struct.dims() if d >= 1]
