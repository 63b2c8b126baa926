"""The complex of a parity structure equals that of its count-1 additive view.

`from_structure` builds the complex of a parity structure from its face
table directly.  These tests compare it, population by population, with
the complex of the additive view built by `to_additive`: boundaries,
augmentation, `check_complex` payloads and the recovered structure agree.
Induced chain maps over parity structures and over their views are equal
and compose with each other.
"""

import pytest

from paritykit.chain import FreeDirectedComplex, check_complex, extract_structure, from_structure
from paritykit.generators import oriental
from paritykit.morphisms import GradedMorphism, compose_morphisms, induced_chain_map
from paritykit.multiset import Multiset
from paritykit.parity_core import ParityStructure
from test_report_digests import POPULATIONS

#: The report-digest populations that hold parity structures.
PARITY_POPULATIONS = ("families", "random_structure-parity", "random_structured_parity", "raw-parity")


@pytest.mark.parametrize("population", PARITY_POPULATIONS)
def test_parity_complex_equals_the_complex_of_its_additive_view(population):
    structs = [s for s in POPULATIONS[population]() if isinstance(s, ParityStructure)]
    assert structs
    for p in structs:
        new, old = from_structure(p), FreeDirectedComplex(p.to_additive())
        gens = [g for g in p.all_generators() if g.dim]
        assert [new.boundary_of(g) for g in gens] == [old.boundary_of(g) for g in gens]
        assert new.augmented == old.augmented
        assert check_complex(new).to_payload() == check_complex(old).to_payload()
        assert extract_structure(new) == extract_structure(old)


def coface(source, target, skip, mode="weak_parity"):
    """The coface map of orientals skipping vertex `skip` of the target."""

    def shift(name):
        return "".join(str(int(v) + (int(v) >= skip)) for v in name)

    images = {g: Multiset.of(target.gen(shift(g.name), g.dim)) for g in source.all_generators()}
    return GradedMorphism(source, target, images, mode)


def over_views(f):
    """The same assignment between the additive views of f's structures."""
    source, target = f.source.to_additive(), f.target.to_additive()
    return GradedMorphism(source, target, {g: f.image(g) for g in source.all_generators()}, f.mode)


@pytest.mark.parametrize("mode", ["weak_parity", "additive"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_maps_over_parity_structures_and_views_agree(n, mode):
    for skip in range(n + 1):
        f = coface(oriental(n - 1), oriental(n), skip, mode)
        g = coface(oriental(n), oriental(n + 1), (skip + 1) % (n + 2), mode)
        f_cm, g_cm = induced_chain_map(f), induced_chain_map(g)
        f_view, g_view = induced_chain_map(over_views(f)), induced_chain_map(over_views(g))
        assert f_cm == f_view and f_view == f_cm
        composite = induced_chain_map(compose_morphisms(f, g))
        assert f_cm.then(g_view) == composite
        assert f_view.then(g_cm) == composite
        assert f_view.then(g_view) == f_cm.then(g_cm)
