"""Frozen validation and chain reports, and frozen family fixtures.

Each report digest is the SHA-256 of the canonical JSON of a
population's `validate` and `check_complex` payloads, recorded from the
Multiset implementation of both checks.  Many of the random structures
fail an axiom, so failure texts, cycle witnesses and notes are locked
along with the flags and orders.

Each family digest is the SHA-256 of the fixture text of every family
member up to its bound, recorded from the word-and-star constructors,
so `generate` output is pinned byte for byte.
"""

import hashlib
import json
import random

import pytest

import randstruct
from paritykit import fixtures
from paritykit.chain import check_complex, from_structure
from paritykit.generators import CUBE_MAX, GLOBE_MAX, ORIENTAL_MAX, cube, family, globe, oriental
from paritykit.parity_core import AdditiveParityStructure, ParityStructure, validate

pytestmark = pytest.mark.frozen

COUNT = 40


def _raw_overlapping(rng, cls, max_dim=3):
    """Random face rows whose negative and positive faces may overlap, so
    that disjointness and subset unitality fail too (randstruct keeps the
    two rows apart)."""
    rows, below = [], []
    for dim in range(max_dim + 1):
        names = [f"d{dim}x{i}" for i in range(rng.randint(1, 4))]
        for name in names:
            neg = [(f, rng.randint(1, 2)) for f in below if rng.random() < 0.4]
            pos = [(f, rng.randint(1, 2)) for f in below if rng.random() < 0.4]
            if cls is ParityStructure:
                neg, pos = [f for f, _ in neg], [f for f, _ in pos]
            rows.append((name, dim, neg, pos))
        below = names
    return cls.build(rows)


def _seeded(seed, make):
    rng = random.Random(seed)
    return [make(rng) for _ in range(COUNT)]


def _with_additive_views(structs):
    return [view for s in structs for view in (s, s.to_additive())]


POPULATIONS = {
    "random_structure-parity": lambda: _seeded(1, lambda rng: randstruct.random_structure("parity", rng)),
    "random_structure-additive": lambda: _seeded(2, lambda rng: randstruct.random_structure("additive", rng)),
    "random_additive_structure-dim4": lambda: _seeded(
        3, lambda rng: randstruct.random_additive_structure(rng, max_gens=16, max_dim=4)
    ),
    "random_structured_parity": lambda: _with_additive_views(
        _seeded(4, randstruct.random_structured_parity)
    ),
    "raw-parity": lambda: _with_additive_views(
        _seeded(5, lambda rng: _raw_overlapping(rng, ParityStructure))
    ),
    "raw-additive": lambda: _seeded(6, lambda rng: _raw_overlapping(rng, AdditiveParityStructure)),
    "families": lambda: _with_additive_views(
        [globe(n) for n in range(GLOBE_MAX + 1)]
        + [oriental(n) for n in range(ORIENTAL_MAX + 1)]
        + [cube(n) for n in range(CUBE_MAX + 1)]
    ),
}

DIGESTS = {
    "random_structure-parity": "7487f77a647f1ab2b0e7f6577e64ece0cf76b96ee6b050755abb592fc9bba05d",
    "random_structure-additive": "62b9dc202b30d8a2a51536d4ebc92236fa61ac060cb8587428fe64c3ee7091fb",
    "random_additive_structure-dim4": "d1d323495aa5765e5b7c950ba36f126165c0036f178fb6d628b0f296aa60b022",
    "random_structured_parity": "37894e83a6abb4d2ee790f76482379168552d664f0c2e6fdd062123274b4d6dd",
    "raw-parity": "4c597470d42796b1620219a29e390308ff8c4ccff4dab4b77b59594ea4367810",
    "raw-additive": "d0b64e83e2b06c27d80fc3eacdb865e1774f310297362107ac006aff3c779012",
    "families": "418c409cbe257e44c06e092dc661540343f7cd6c866cbe9fefc16755e8fa513b",
}


def _digest(structs):
    payloads = [
        [validate(s).to_payload(), check_complex(from_structure(s)).to_payload()]
        for s in structs
    ]
    return hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("population", sorted(POPULATIONS))
def test_reports_unchanged(population):
    assert _digest(POPULATIONS[population]()) == DIGESTS[population]


FAMILY_BOUNDS = {"globe": GLOBE_MAX, "oriental": ORIENTAL_MAX, "cube": CUBE_MAX}

FAMILY_DIGESTS = {
    "globe": "16491d75e304cd9ac6be8e1c74e652ab7c6b2d773f22365c61632428cb0a9c0f",
    "oriental": "8561557502fe2c9d36320379d73450e7faf262860c029d2b063584588c90b27f",
    "cube": "90ee3948aafbb0764be9450e9c31c19d33a5bdffc6b05214725345bcfdf17e29",
}


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_fixtures_unchanged(name):
    digest = hashlib.sha256()
    for n in range(FAMILY_BOUNDS[name] + 1):
        digest.update(fixtures.dumps(family(name, n), name=f"{name}-{n}").encode())
    assert digest.hexdigest() == FAMILY_DIGESTS[name]


def test_populations_reach_the_failure_paths():
    reports = [validate(s) for make in POPULATIONS.values() for s in make()]
    failed = {f.axiom for r in reports for f in r.failures}
    assert failed >= {"disjoint", "globular", "unital", "normal", "weakly_loop_free",
                      "steiner_loop_free", "strongly_loop_free"}
