from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))  # test helpers (randstruct)

from paritykit import fixtures
from paritykit.generators import cube, globe, oriental

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> fixtures.Fixture:
    return fixtures.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def lift(table, dim: int):
    """A cell table lifted by identities up to the given dimension."""
    from paritykit.cells import identity

    while table.dim < dim:
        table = identity(table)
    return table


def overflow_map():
    """u, v; a, c: u -> v; b: v -> u; x: a a b => c, mapped to itself by
    the identity except a -> MAX_COUNT a: the image of the faces of x
    counts a twice MAX_COUNT times."""
    from paritykit.morphisms import GradedMorphism
    from paritykit.multiset import MAX_COUNT, Multiset
    from paritykit.parity_core import AdditiveParityStructure

    s = AdditiveParityStructure.build([
        ("u", 0, [], []), ("v", 0, [], []),
        ("a", 1, ["u"], ["v"]), ("c", 1, ["u"], ["v"]), ("b", 1, ["v"], ["u"]),
        ("x", 2, ["a", "a", "b"], ["c"]),
    ])
    images = {g: Multiset.of(g) for g in s.all_generators()}
    images[s.gen("a")] = Multiset(1, {s.gen("a"): MAX_COUNT})
    return GradedMorphism(s, s, images, "additive")


def overflow_path():
    """A map of overflow_map's structure to itself sending the composable
    edges a: u -> v and b: v -> u each to MAX_COUNT a, and the nu-cell
    (u; a + b; u) through both, whose image counts a twice MAX_COUNT times."""
    from paritykit.cells import CellTable
    from paritykit.morphisms import GradedMorphism
    from paritykit.multiset import MAX_COUNT, Multiset

    s = overflow_map().source
    u, a, b = (s.gen(n) for n in "uab")
    images = {g: Multiset.of(g) for g in s.all_generators()}
    images[a] = images[b] = Multiset(1, {a: MAX_COUNT})
    path = CellTable([Multiset.of(u), Multiset.of(a, b)], [Multiset.of(u), Multiset.of(a, b)])
    return GradedMorphism(s, s, images, "additive"), path


@pytest.fixture(scope="session")
def oriental2():
    return oriental(2)


@pytest.fixture(scope="session")
def oriental3():
    return oriental(3)


@pytest.fixture(scope="session")
def globe1():
    return globe(1)


@pytest.fixture(scope="session")
def globe2():
    return globe(2)


@pytest.fixture(scope="session")
def cube2():
    return cube(2)


@pytest.fixture(scope="session")
def circle():
    return load_fixture("circle").value


@pytest.fixture(scope="session")
def weak_not_strong():
    return load_fixture("weak_not_strong").value
