"""One rule checks a cell wherever one enters: ``cells.validate_cell``'s default,
augmentation 1 in column 0 when the structure's complex is augmented and
only the boundary conditions otherwise.  Every entry point that checks
a cell is fed the same tables, and each must refuse a table exactly when
``validate_cell`` does, with its reason.

Excision and ``decompose`` refuse a 0-cell for its dimension, and
``generated_by_atoms`` a structure that is not a weak parity complex,
before they read the cell; there they are not fed the table.

A table over masks is checked by face unions and a table over Multisets
by chains; the two readings give one verdict, reason and error.
"""

from __future__ import annotations

import random
import re

import pytest

import randstruct
from paritykit import cells, fixtures
from paritykit.chain import AugmentationMissingError
from paritykit.cli import main
from paritykit.generators import oriental
from paritykit.morphisms import apply_to_cell, identity_morphism
from paritykit.multiset import Multiset
from paritykit.parity_core import CLASS_WEAK, AdditiveParityStructure, validate

#: oriental(1), 0 -> 1 by the edge 01, whose complex is augmented; and
#: u, v; a: u -> 2v, which is not normal, so its complex is not.
STRUCTURES = {
    "oriental1": oriental(1),
    "not_normal": AdditiveParityStructure.build([("u", 0, [], []), ("v", 0, [], []), ("a", 1, ["u"], [("v", 2)])]),
}

#: Per structure, tables by name as (neg, pos) rows of columns, each a
#: list of names and (name, count) pairs.
TABLES = {
    "oriental1": {
        "empty point": ([[]], [[]]),
        "two points": ([["0", "1"]], [["0", "1"]]),
        "a point twice": ([[("0", 2)]], [[("0", 2)]]),
        "a point": ([["0"]], [["0"]]),
        "empty identity": ([[], []], [[], []]),
        "identity on two points": ([["0", "1"], []], [["0", "1"], []]),
        "edge beside a point": ([["0", "1"], ["01"]], [[("1", 2)], ["01"]]),
        "edge": ([["0"], ["01"]], [["1"], ["01"]]),
        "edge to its source": ([["0"], ["01"]], [["0"], ["01"]]),
        "points differ": ([["0"]], [["1"]]),
    },
    "not_normal": {
        "empty point": ([[]], [[]]),
        "two points": ([["u", "v"]], [["u", "v"]]),
        "a point": ([["u"]], [["u"]]),
        "empty identity": ([[], []], [[], []]),
        "edge beside a point": ([["u", "v"], ["a"]], [[("v", 3)], ["a"]]),
        "edge": ([["u"], ["a"]], [[("v", 2)], ["a"]]),
        "edge to one v": ([["u"], ["a"]], [["v"], ["a"]]),
        "points differ": ([["u"]], [["v"]]),
    },
}


def build(struct, rows) -> cells.CellTable:
    def column(k, entries):
        pairs = [(e, 1) if isinstance(e, str) else e for e in entries]
        return Multiset(k, [(struct.gen(name, k), count) for name, count in pairs])

    return cells.CellTable(*([column(k, c) for k, c in enumerate(row)] for row in rows))


def refused(pattern: str, text: str) -> str | None:
    """The reason in a refusal text of this pattern, or None if it is not one."""
    match = re.fullmatch(pattern + "(.*)", text.rstrip("\n"))
    return match and match.group(1)


def library(call, pattern):
    """An entry point of the library: the reason of the ValueError it
    raises for an invalid cell, or None if it gets past the check."""
    def run(struct, table, files, capsys):
        try:
            call(struct, table)
        except ValueError as exc:
            reason = refused(pattern, str(exc))
            if reason is None:
                raise
            return reason
        return None
    return run


def command(argv, pattern):
    """A CLI command: the reason it prints for an invalid cell with exit 1,
    or None if it gets past the check."""
    def run(struct, table, files, capsys):
        code = main([arg.format(**files) for arg in argv])
        out, err = capsys.readouterr()
        assert code in (0, 1) and err == "", (argv, code, err)
        return refused(pattern, out) if code == 1 else None
    return run


ENTRY_POINTS = {
    "validate_cell": lambda struct, table, files, capsys: cells.validate_cell(struct, table)[1],
    "excision_decompose": library(cells.excision_decompose, "not a valid cell: "),
    "apply_to_cell": library(lambda s, t: apply_to_cell(identity_morphism(s, "additive"), t),
                             "not a valid cell over the source: "),
    "generated_by_atoms": library(cells.generated_by_atoms, "not a valid cell: "),
    "face": command(["face", "{file}", "--cell", "{cell}", "-k", "0", "--sign", "source"], "invalid cell: "),
    "compose": command(["compose", "{file}", "--cells", "{cell}", "{cell}", "-k", "0"], "invalid first cell: "),
    "decompose": command(["decompose", "{file}", "--cell", "{cell}"], "cannot decompose: not a valid cell: "),
    "morphism apply": command(["morphism", "apply", "{morphism}", "--cell", "{cell}"],
                              "cannot apply: not a valid cell over the source: "),
}


def reaches_the_cell(entry: str, struct, table) -> bool:
    if entry in ("excision_decompose", "decompose"):
        return table.dim >= 1
    if entry == "generated_by_atoms":
        return validate(struct).meets(CLASS_WEAK)
    return True


@pytest.mark.parametrize(
    "name, label", [(name, label) for name, tables in TABLES.items() for label in tables],
    ids=[f"{name}-{label}" for name, tables in TABLES.items() for label in tables],
)
def test_every_entry_point_checks_a_cell_alike(tmp_path, capsys, name, label):
    struct = STRUCTURES[name]
    table = build(struct, TABLES[name][label])
    files = {"file": tmp_path / "s.json", "cell": tmp_path / "c.json", "morphism": tmp_path / "id.json"}
    files["file"].write_text(fixtures.dumps(struct, name=name))
    files["cell"].write_text(fixtures.dumps(table, name="c"))
    files["morphism"].write_text(fixtures.dumps(identity_morphism(struct, "additive"), name="id"))
    expected = cells.validate_cell(struct, table)[1]
    reasons = {entry: run(struct, table, files, capsys) for entry, run in ENTRY_POINTS.items()
               if reaches_the_cell(entry, struct, table)}
    assert reasons == dict.fromkeys(reasons, expected)



def verdict(struct, table, mode):
    try:
        return cells.validate_cell(struct, table, mode)
    except AugmentationMissingError as exc:
        return "raises", str(exc)


def twin_sample():
    """Seeded structures, each with its mask tables: the enumerated cells of
    a weak parity complex, every generator's atom, and bit flips of both."""
    rng = random.Random(35)
    structs = [oriental(3), STRUCTURES["not_normal"]]
    structs += [randstruct.random_structured_parity(rng) for _ in range(6)]
    structs += [randstruct.random_raw_parity(rng, rng.randint(3, 7)) for _ in range(6)]
    structs += [randstruct.random_additive_structure(rng) for _ in range(6)]
    for struct in structs:
        t = struct._table
        sample = cells.enumerate_cells(struct, len(t.gens)) if validate(struct).meets(CLASS_WEAK) else []
        sample += [cells.atom(struct, g) for row in t.gens for g in row]
        masks = [table for table in sample if table._faces is t]
        for table in list(masks):
            rows = [list(row) for row in table._rows]
            k = rng.randrange(len(rows[0]))
            if k < len(t.gens):
                for side in rng.choice([(0,), (1,), (0, 1)]):
                    rows[side][k] ^= 1 << rng.randrange(len(t.gens[k]))
                masks.append(cells.CellTable._of(t, tuple(map(tuple, rows))))
        yield struct, masks


def test_a_mask_table_and_its_multiset_twin_check_alike():
    kinds, verdicts = set(), set()
    for struct, sample in twin_sample():
        report = validate(struct)
        if sample:
            kinds.add((report.meets(CLASS_WEAK), report.normal, struct._table.subset))
        for table in sample:
            twin = cells.CellTable(table.neg, table.pos)
            for mode in (None, "rho", "nu"):
                got = verdict(struct, table, mode)
                assert got == verdict(struct, twin, mode), (struct, table, mode)
                verdicts.add(got[0])
    assert {(True, True, True), (False, True, True), (False, False, True), (False, False, False)} <= kinds
    assert verdicts == {True, False, "raises"}


def test_masks_over_multiset_faces_are_read_as_chains():
    # a: u -> 2v, so the rows (u; a) and (v; a) move u to v by face unions,
    # but the boundary of a counts v twice
    struct = STRUCTURES["not_normal"]
    t = struct._table
    u, v, a = (1 << t.index[struct.gen(name)] for name in "uva")
    table = cells.CellTable._of(t, ((u, a), (v, a)))
    assert cells.validate_cell(struct, table) == (False, "negative column 1 has boundary -u +2v, expected -u +v")
