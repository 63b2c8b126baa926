"""The two readings of an atom, and the two forms of globularity.

A generator's atom has a subset reading (Street's face levels,
``atom_faces``) and a multiset reading (Steiner's iterated boundaries,
``iterated_boundaries``).  On subset faces they agree at a level
whenever every level above it is well-formed; ``parting_atom.json``
freezes a smallest structure where they part.  Globularity likewise has a subset form, which
``validate`` checks on parity inputs, and the form dd = 0, which it
checks on additive inputs; where both face rows of a generator are
well-formed the two agree.  ``validate`` used to compare the two forms
at run time; the comparison lives here, over the families, the seeded
``randstruct`` draws and the report-digest populations, with the
additive and parity views of every subset-faced member.
"""

import random
from itertools import product

import pytest

import randstruct
import test_report_digests
from conftest import load_fixture
from paritykit.cells import atom
from paritykit.chain import from_structure
from paritykit.parity_core import (
    ParityStructure,
    atom_faces,
    is_well_formed,
    iterated_boundaries,
    subset_faces,
    validate,
)


def names(level):
    return sorted(g.name for g in level)


# ---------------------------------------------------------------------------
# a smallest atom whose readings part


@pytest.fixture(scope="module")
def parting():
    return load_fixture("parting_atom").value


class TestPartingAtom:
    """u; a, b: u => {}; x: {a, b} => {}.  Level 1 of the negative row of
    x is {a, b}, which is not well-formed (a and b share the negative face
    u), and below it the subset reading is {u} while the multiset reading
    is 2u."""

    def test_the_search_finds_the_frozen_structure(self, parting):
        found = randstruct.search_parting_atom(6, seed=0)
        assert found == parting and len(found) == 4
        assert randstruct.parting_levels(parting) == [("d2x0", 2, "negative", 0)]

    def test_no_structure_of_at_most_three_generators_parts(self):
        # every face one dimension down is negative, positive, both or neither
        shapes = [[3], [2, 1], [1, 2], [1, 1, 1]]
        tried = 0
        for sizes in shapes:
            gens = [(f"g{d}{i}", d) for d, size in enumerate(sizes) for i in range(size)]
            slots = [(g, f) for g in gens for f in gens if f[1] == g[1] - 1]
            for sides in product(range(4), repeat=len(slots)):
                faces = {g: ([], []) for g in gens}
                for (g, f), side in zip(slots, sides):
                    for row in (0, 1):
                        if side >> row & 1:
                            faces[g][row].append(f[0])
                struct = ParityStructure.build([(name, d, *faces[name, d]) for name, d in gens])
                assert randstruct.parting_levels(struct) == []
                tried += 1
        assert tried == 1 + 16 + 16 + 16

    def test_levels(self, parting):
        x = parting.gen("d2x0")
        neg, pos = atom_faces(parting, x)
        assert [names(level) for level in neg] == [["d0x0"], ["d1x0", "d1x1"], ["d2x0"]]
        assert [names(level) for level in pos] == [[], [], ["d2x0"]]
        neg, pos = iterated_boundaries(parting.to_additive(), x)
        assert [str(level) for level in neg] == ["{d0x0:2}", "{d1x0, d1x1}", "{d2x0}"]
        assert [str(level) for level in pos] == ["{}", "{}", "{d2x0}"]
        assert not is_well_formed(parting, 1, neg[1])

    def test_atom_in_both_classes(self, parting):
        x = parting.gen("d2x0")
        subset, multiset = atom(parting, x), atom(parting.to_additive(), x)
        assert str(subset) == "({d0x0}, {d1x0, d1x1}, {d2x0}; {}, {}, {d2x0})"
        assert str(multiset) == "({d0x0:2}, {d1x0, d1x1}, {d2x0}; {}, {}, {d2x0})"
        for gen in parting.all_generators():
            if gen is not x:
                assert atom(parting, gen) == atom(parting.to_additive(), gen)

    def payload(self, unital_failures):
        order = ["d0x0", "d1x0", "d1x1", "d2x0"]
        return {
            "flags": {
                "disjoint": True,
                "globular": False,
                "unital": False,
                "normal": False,
                "weakly_loop_free": True,
                "steiner_loop_free": True,
                "strongly_loop_free": True,
            },
            "classification": "parity structure only",
            "witnesses": {
                "steiner_loop_free": {
                    "kind": "order",
                    "orders": [{"level": level, "order": order} for level in (0, 1, 2)],
                },
                "strongly_loop_free": {"kind": "order", "orders": [{"level": None, "order": order}]},
                "weakly_loop_free": {
                    "kind": "order",
                    "orders": [{"level": 1, "order": ["d1x0", "d1x1"]}, {"level": 2, "order": ["d2x0"]}],
                },
            },
            "failures": [
                {"axiom": "globular", "generators": ["d2x0"],
                 "detail": "face boundaries of the two rows of d2x0 differ"},
                *({"axiom": "normal", "generators": [g],
                   "detail": f"faces of {g} are {{d0x0}} and {{}}, not singletons"} for g in ("d1x0", "d1x1")),
                *({"axiom": "unital", "generators": gens, "detail": detail} for gens, detail in unital_failures),
            ],
            "notes": [],
        }

    def test_parity_payload(self, parting):
        assert validate(parting).to_payload() == self.payload([
            (["d1x0"], "atom of d1x0: positive level 0 = [] not well-formed"),
            (["d1x1"], "atom of d1x1: positive level 0 = [] not well-formed"),
            (["d2x0"], "atom of d2x0: positive level 0 = [] not well-formed"),
            (["d2x0"], "atom of d2x0: negative level 1 = ['d1x0', 'd1x1'] not well-formed"),
        ])

    def test_additive_payload(self, parting):
        assert validate(parting.to_additive()).to_payload() == self.payload([
            ([], "structure is not normal, so no augmentation is available"),
        ])


# ---------------------------------------------------------------------------
# globularity in subset form equals dd = 0 on well-formed face rows


def seeded_draws():
    rng = random.Random(21)
    yield from (randstruct.random_structured_parity(rng) for _ in range(100))
    yield from (randstruct.random_structure("additive", rng) for _ in range(100))
    yield from (randstruct.random_additive_structure(rng, max_gens=16, max_dim=4) for _ in range(100))
    yield from (randstruct.random_raw_parity(rng, rng.randint(4, 12)) for _ in range(100))


@pytest.fixture(scope="module")
def population():
    """(source, parity view, additive view) of every subset-faced member;
    the source is "digest" for the report-digest populations."""
    structs = [("digest", s) for make in test_report_digests.POPULATIONS.values() for s in make()]
    structs += (("draw", s) for s in seeded_draws())
    structs += (("fixture", load_fixture(name).value)
                for name in ("circle", "weak_not_strong", "self_loop", "parting_atom"))
    return [
        (source, s, s.to_additive()) if isinstance(s, ParityStructure) else (source, s.as_parity(), s)
        for source, s in structs
        if isinstance(s, ParityStructure) or s.is_subset_valued()
    ]


def globularity_forms(parity: ParityStructure):
    """(both face rows well-formed, subset form holds, dd = 0) at every
    generator of dimension >= 2, from the public face helpers."""
    complex_ = from_structure(parity)
    for gen in parity.all_generators():
        if gen.dim >= 2:
            rows = parity.neg(gen), parity.pos(gen)
            a, b = (subset_faces(parity, gen.dim - 1, row) for row in rows)
            well_formed = all(is_well_formed(parity, gen.dim - 1, row) for row in rows)
            subset = (a.neg_only, a.pos_only) == (b.neg_only, b.pos_only)
            yield well_formed, subset, complex_.boundary(complex_.boundary_of(gen)).is_zero()


def test_globularity_forms_agree_on_well_formed_faces(population):
    checked = 0
    for _, parity, additive in population:
        forms = list(globularity_forms(parity))
        for well_formed, subset, dd_zero in forms:
            if well_formed:
                assert subset == dd_zero
                checked += 1
        # validate returns on both views and reads each class's own form
        assert validate(parity).globular == all(subset for _, subset, _ in forms)
        assert validate(additive).globular == all(dd_zero for _, _, dd_zero in forms)
    assert (len(population), checked) == (583, 3307)


def test_readings_part_only_below_a_level_that_is_not_well_formed(population):
    parted = total = 0
    for source, parity, _ in population:
        parting = randstruct.parting_levels(parity)
        for name, dim, side, k in parting:
            levels = atom_faces(parity, parity.gen(name, dim))[side == "positive"]
            assert not all(is_well_formed(parity, j, levels[j]) for j in range(k + 1, dim + 1))
        if source == "digest":
            parted += len({(name, dim) for name, dim, _, _ in parting})
            total += len(parity)
    assert (parted, total) == (41, 5740)
