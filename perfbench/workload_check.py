"""`check`: verdict requests, done in-process.

Each structure request does the work of `paritykit validate`, `chain
--check` and `roundtrip` on one fixture text; each morphism request does
the work of `morphism validate` and `morphism compose`.  The sizes run
from 3 to 729 generators, and the random additive structures mostly fail
an axiom, so the early-exit and cycle-witness paths stay in the mix.
"""

from __future__ import annotations

import json
import random

from paritykit import GradedMorphism, ParityStructure, fixtures
from paritykit.parity_core import CLASS_PARITY_COMPLEX, CLASS_WEAK

import corpus
from harness import Request, shuffled

FAMILY_SIZES = {"globe": range(1, 17), "oriental": range(1, 8), "cube": range(1, 7)}
#: Largest target of the coface (oriental) and bit-insertion (cube) maps.
MAP_MAX = {"oriental": 6, "cube": 5}
#: (family, source size, target size) of each morphism request: one map
#: into every size, then chains of two or three maps.  The seed picks which
#: coface or bit-insertion map makes each step; the sizes stay fixed, so
#: the cost of the mix does not depend on the seed.
SPANS = (
    *(("oriental", n - 1, n) for n in range(1, MAP_MAX["oriental"] + 1)),
    *(("cube", n - 1, n) for n in range(1, MAP_MAX["cube"] + 1)),
    ("oriental", 0, 2), ("oriental", 1, 4), ("oriental", 2, 5), ("oriental", 3, 6),
    ("cube", 0, 2), ("cube", 1, 3), ("cube", 2, 5),
)
#: Small random structures: besides keeping the failure paths in the mix,
#: they put the median among small requests and the 90th percentile
#: inside the group of mid-sized requests rather than at the gap below
#: the largest ones.
RANDOM_ADDITIVE = 60
RANDOM_PATHS = 50


class StructureRequest(Request):
    """loads -> validate -> from_structure + check_complex ->
    extract_structure -> dumps."""

    kind = "structure"

    def __init__(self, key, text, original, expect):
        super().__init__(key)
        self.text = text
        self.original = original
        self.additive = original.to_additive() if isinstance(original, ParityStructure) else original
        self.expect = expect

    def call(self, api):
        fixture = api.loads(self.text)
        report = api.validate(fixture.value)
        complex_ = api.from_structure(fixture.value)
        chain_report = api.check_complex(complex_)
        recovered = api.extract_structure(complex_)
        return fixture, report, chain_report, recovered, api.dumps(recovered, fixture.name)

    def check(self, out, args):
        fixture, report, chain_report, recovered, text = out
        if fixture.value != self.original:
            return "parsed structure differs from the generated one"
        if report.globular != chain_report.dd_zero:
            return f"globular={report.globular} but dd_zero={chain_report.dd_zero}"
        kind, detail = self.expect
        if kind == "family":
            flags_ok = all(report.flags().values())
            chain_ok = chain_report.dd_zero and chain_report.normal and chain_report.unital
            if report.classification != CLASS_PARITY_COMPLEX or not (flags_ok and chain_ok):
                return f"family member classified {report.classification!r}"
            if len(self.original) != detail:
                return f"{len(self.original)} generators, expected {detail}"
        elif kind == "circle":
            witness = report.witnesses.get("weakly_loop_free")
            if report.meets(CLASS_WEAK) or getattr(witness, "cycle", None) != ("a", "b"):
                return f"circle: {report.classification}, weak witness {witness}"
        elif kind == "weak_not_strong":
            if not report.meets(CLASS_WEAK) or report.meets(CLASS_PARITY_COMPLEX) or report.strongly_loop_free:
                return f"weak_not_strong classified {report.classification!r}"
        elif kind == "paths" and not report.globular:
            return "a parallel-path structure is not globular"
        if recovered != self.additive:
            return "round trip does not recover the structure"
        if fixtures.loads(text).value != recovered:
            return "emitted text does not parse back to the recovered structure"
        return None

    def summary(self, out):
        _, report, chain_report, _, text = out
        payload = {"report": report.to_payload(), "chain": chain_report.to_payload()}
        return json.dumps(payload, sort_keys=True) + text


class MorphismRequest(Request):
    """loads -> validate_morphism in both modes -> check_strict_movement ->
    induced_chain_map -> compose_morphisms with the next map."""

    kind = "morphism"

    def __init__(self, key, first_text, second_text, expected: GradedMorphism):
        super().__init__(key)
        self.first_text = first_text
        self.second_text = second_text
        self.expected = expected

    def call(self, api):
        f = api.loads(self.first_text).value
        g = api.loads(self.second_text).value
        additive = api.validate_morphism(f, "additive")
        weak = api.validate_morphism(f, "weak_parity")
        strict = api.check_strict_movement(f)
        chain_map = api.induced_chain_map(f)
        return f, additive, weak, strict, chain_map, api.compose_morphisms(f, g)

    def check(self, out, args):
        f, additive, weak, strict, chain_map, composite = out
        if not (additive.valid and weak.valid and additive.normal and strict):
            return f"map rejected: {additive.failures} {weak.failures} strict={strict}"
        for g in f.source.all_generators():
            if chain_map.image(g) != f.image(g).to_vector():
                return f"induced chain map sends {g.name} to {chain_map.image(g)}"
        if composite != self.expected:
            return "composite differs from the composed name map"
        return None

    def summary(self, out):
        f, additive, weak, strict, _, composite = out
        images = [
            f"{g.dim}:{g.name}->{composite.image(g)}" for g in composite.source.all_generators()
        ]
        reports = [additive.to_payload(), weak.to_payload(), strict]
        return json.dumps(reports, sort_keys=True) + " ".join(images)


def _same(name: str) -> str:
    return name


def setup(api, seed: int) -> dict:
    rng = random.Random(seed)
    fam = {
        (name, n): api.build(name, n)
        for name, sizes in FAMILY_SIZES.items()
        for n in (0, *sizes)
    }
    structures = [
        (f"{name}-{n}", fam[name, n], ("family", corpus.generator_count(name, n)))
        for name, sizes in FAMILY_SIZES.items()
        for n in sizes
    ]
    for name in ("circle", "weak_not_strong"):
        structures.append((name, api.loads(corpus.frozen_text(name)).value, (name, None)))
    for i in range(RANDOM_ADDITIVE):
        structures.append((f"random-additive-{i}", corpus.random_additive(rng), ("additive", None)))
    for i in range(RANDOM_PATHS):
        structures.append((f"random-paths-{i}", corpus.random_paths(rng), ("paths", None)))
    texts = [(key, api.dumps(struct, key), struct, expect) for key, struct, expect in structures]

    def single(name, n):
        """A seeded map into size n + 1, or the identity at the largest size."""
        if n == MAP_MAX[name]:
            return corpus.name_morphism(fam[name, n], fam[name, n], _same), _same
        _, names = rng.choice(corpus.family_maps(name, n + 1))
        return corpus.name_morphism(fam[name, n], fam[name, n + 1], names), names

    morphisms = []  # (key, first map text, second map text, expected composite)
    for name, lo, hi in SPANS:
        steps = [rng.choice(corpus.family_maps(name, n)) for n in range(lo + 1, hi + 1)]
        key = f"{name}-{lo}-{hi}-" + "".join(label for label, _ in steps)
        names = corpus.compose_names(*(names for _, names in steps))
        first = corpus.name_morphism(fam[name, lo], fam[name, hi], names)
        second, second_names = single(name, hi)
        expected = corpus.name_morphism(
            first.source, second.target, corpus.compose_names(names, second_names)
        )
        morphisms.append(
            (key, api.dumps(first, f"{key}-f"), api.dumps(second, f"{key}-g"), expected)
        )
    return {"structures": texts, "morphisms": morphisms}


def requests(data: dict, seed: int) -> list[Request]:
    out: list[Request] = [
        StructureRequest(key, text, struct, expect) for key, text, struct, expect in data["structures"]
    ]
    out += [MorphismRequest(key, f, g, expected) for key, f, g, expected in data["morphisms"]]
    return out


pass_order = shuffled


def close(data) -> None:
    pass
