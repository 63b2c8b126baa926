"""Seeded cross-check of weak parity complexes against their additive views.

A parity structure and its count-1 additive view must give the same
cells, the same movement verdicts and errors, and the same morphism
reports.  The additive side is built fresh with ``to_additive`` so that
it computes its own face table instead of sharing the parity one.
"""

import random

import pytest

import randstruct
from conftest import load_fixture
from paritykit.cells import enumerate_cells
from paritykit.morphisms import (
    GradedMorphism,
    check_strict_movement,
    identity_morphism,
    validate_morphism,
)
from paritykit.multiset import GeneratorId, Multiset
from paritykit.parity_core import CLASS_WEAK, moves, validate


def _weak_pairs():
    """(parity, additive view) for the weak parity complexes among 60
    seeded structured builds."""
    rng = random.Random(5)
    structs = [randstruct.random_structured_parity(rng, max_gens=8) for _ in range(60)]
    return [(s, s.to_additive()) for s in structs if validate(s).meets(CLASS_WEAK)]


WEAK_PAIRS = _weak_pairs()


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _rebuilt(f: GradedMorphism, source, target) -> GradedMorphism:
    return GradedMorphism(source, target, {x: f.image(x) for x in f.source.all_generators()}, f.mode)


def _reports(f: GradedMorphism):
    return (
        outcome(validate_morphism, f, "additive"),
        outcome(validate_morphism, f, "weak_parity"),
        outcome(check_strict_movement, f),
    )


def test_the_seeded_population():
    assert len(WEAK_PAIRS) == 57


@pytest.mark.parametrize("k", range(len(WEAK_PAIRS)))
def test_same_cells_at_full_dimension(k):
    parity, additive = WEAK_PAIRS[k]
    assert enumerate_cells(additive, additive.max_dim) == enumerate_cells(parity, parity.max_dim)


def test_same_movement_verdicts_and_errors():
    rng = random.Random(7)
    unknown = [GeneratorId(d, "zz") for d in range(3)]

    def draw(struct, dim):
        counts = {g: 1 for g in struct.generators(dim) if rng.random() < 0.4}
        roll = rng.random()
        if counts and roll < 0.1:
            counts[next(iter(counts))] = 2  # not a subset
        elif roll < 0.2:
            counts[unknown[dim]] = 1
        return Multiset(dim, counts)

    errors = set()
    for parity, additive in WEAK_PAIRS:
        for d in range(1, parity.max_dim + 1):
            for _ in range(12):
                s, m, p = draw(parity, d), draw(parity, d - 1), draw(parity, d - 1)
                if rng.random() < 0.5 and all(g in parity for g in s):
                    # the target that s would move m to, if it moves m at all
                    neg = {f for g in s for f in parity.neg(g)}
                    pos = {f for g in s for f in parity.pos(g)}
                    p = Multiset.subset(d - 1, (frozenset(m) - neg) | pos)
                for mode in ("additive", "subset", "strict"):
                    got = outcome(moves, parity, s, m, p, mode=mode)
                    assert outcome(moves, additive, s, m, p, mode=mode) == got
                    if not isinstance(got, bool):
                        errors.add(got[0].__name__)
    assert errors == {"UnknownGeneratorError", "ValueError"}


def test_same_reports_for_identity_morphisms():
    for parity, additive in WEAK_PAIRS:
        for mode in ("additive", "weak_parity"):
            assert _reports(identity_morphism(additive, mode)) == _reports(identity_morphism(parity, mode))


@pytest.mark.parametrize("name", ["morphism_globe1_to_oriental2", "morphism_collapse_globe1"])
def test_same_reports_for_the_frozen_morphisms(name):
    f = load_fixture(name).value
    g = _rebuilt(f, f.source.to_additive(), f.target.to_additive())
    assert _reports(g) == _reports(f)
    assert _reports(g)[2] is True


def test_same_failure_reports_for_seeded_assignments():
    # random images of the 1-globe in the triangle, most of them no morphism
    f = load_fixture("morphism_globe1_to_oriental2").value
    source, target = f.source, f.target
    views = source.to_additive(), target.to_additive()
    rng = random.Random(4)
    invalid = 0
    for _ in range(40):
        assignment = {
            g: Multiset(g.dim, {h: 1 for h in target.generators(g.dim) if rng.random() < 0.4})
            for g in source.all_generators()
        }
        h = GradedMorphism(source, target, assignment, "additive")
        reports = _reports(h)
        assert _reports(_rebuilt(h, *views)) == reports
        invalid += not reports[1].valid
    assert 0 < invalid < 40
