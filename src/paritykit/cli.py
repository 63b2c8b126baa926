"""Command-line interface for batch validation, generation, and checks.

Exit codes: 0 on success (or a passed check), 1 when well-formed input
fails the requested check (report on stdout), 2 for usage errors or
malformed input (message on stderr).  `-` means stdin for inputs and
stdout for outputs.  Output bytes are deterministic for identical
inputs and flags.

Each subcommand imports the modules it runs, so a call loads only the
code its subcommand needs (fixtures and the structure core always).
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures
from .parity_core import (
    CLASS_ADDITIVE,
    CLASS_PARITY_COMPLEX,
    CLASS_WEAK,
    CycleWitness,
    ParityStructure,
    UnknownGeneratorError,
    ValidationReport,
    validate,
)

REQUIRE_LEVELS = {
    "apc": CLASS_ADDITIVE,
    "wpc": CLASS_WEAK,
    "pc": CLASS_PARITY_COMPLEX,
}

_STRUCTURE_KINDS = (fixtures.KIND_PARITY, fixtures.KIND_ADDITIVE)


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(str(exc))


def _load(path: str, *kinds: str) -> fixtures.Fixture:
    fixture = fixtures.loads(_read_text(path))
    if kinds and fixture.kind not in kinds:
        raise _UsageError(
            f"{path}: fixture kind {fixture.kind!r} not usable here (expected {' or '.join(kinds)})"
        )
    return fixture


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(str(exc))


def _emit_structured(payload: dict) -> None:
    sys.stdout.write(fixtures._text(payload) + "\n")


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _print_report(name: str, report: ValidationReport) -> None:
    if name:
        print(f"name: {name}")
    print(f"classification: {report.classification}")
    for flag, value in report.flags().items():
        print(f"{flag.replace('_', ' ')}: {_flag(value)}")
    for failure in report.failures:
        gens = ", ".join(failure.generators)
        print(f"FAIL {failure.axiom}" + (f" at {gens}" if gens else "") + f": {failure.detail}")
    for axiom, witness in report.witnesses.items():
        if isinstance(witness, CycleWitness):
            where = "" if witness.level is None else f" (level {witness.level})"
            print(f"cycle witness for {axiom}{where}: {witness}")
    for note in report.notes:
        print(f"note: {note}")


def _cell_out(args, table, name: str) -> None:
    if args.format == "structured":
        sys.stdout.write(fixtures.dumps(table, name=name))
    else:
        print(f"dim: {table.dim}")
        print(f"neg: {', '.join(str(c) for c in table.neg)}")
        print(f"pos: {', '.join(str(c) for c in table.pos)}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    report = validate(fixture.value)
    if args.format == "structured":
        _emit_structured({"name": fixture.name, **report.to_payload()})
    else:
        _print_report(fixture.name, report)
    if args.require is not None:
        return 0 if report.meets(REQUIRE_LEVELS[args.require]) else 1
    return 0


def _cmd_classify(args) -> int:
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    report = validate(fixture.value)
    if args.format == "structured":
        _emit_structured({"name": fixture.name, "classification": report.classification})
    else:
        print(report.classification)
    return 0


def _cmd_generate(args) -> int:
    from .generators import family
    struct = family(args.family, args.n)
    name = f"{args.family}-{args.n}"
    _write_out(fixtures.dumps(struct, name=name), args.output)
    return 0


def _cmd_chain(args) -> int:
    from .chain import check_complex, from_structure
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    complex_ = from_structure(fixture.value)
    report = check_complex(complex_)
    # by dimension, then name, as a morphism fixture's assignment: names are unique only per dimension
    boundaries = {} if args.check else {
        str(d): {g.name: str(complex_.boundary_of(g)) for g in complex_.generators(d)}
        for d in fixture.value.dims() if d
    }
    if args.format == "structured":
        payload = {"name": fixture.name, **report.to_payload()}
        if not args.check:
            payload["boundaries"] = boundaries
        _emit_structured(payload)
    else:
        for by_name in boundaries.values():
            for name, boundary in by_name.items():
                print(f"d({name}) = {boundary}")
        for flag, value in zip(report._fields[:4], report):  # dd_zero, normal, unital, augmented
            print(f"{flag.replace('_', ' ')}: {_flag(value)}")
        for check, gen, detail in report.failures:
            print(f"FAIL {check}" + (f" at {gen}" if gen else "") + f": {detail}")
    if args.check:
        return 0 if (report.dd_zero and report.normal and report.unital) else 1
    return 0


def _cmd_atom(args) -> int:
    from .cells import atom
    struct = _load(args.file, *_STRUCTURE_KINDS).value
    gen = struct.gen(args.generator)
    _cell_out(args, atom(struct, gen), name=f"atom-{gen.name}")
    return 0


def _cmd_cells(args) -> int:
    from .cells import MAX_CELLS_ENV, EnumerationCapError, _mask_cells, _max_cells, enumerate_cells
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    if args.count_only:  # the search's mask cells: no table is built
        enumerated, dims = [], [len(neg) - 1 for neg, _ in _mask_cells(fixture.value, args.max_dim)]
    else:
        enumerated = enumerate_cells(fixture.value, args.max_dim)
        dims = [c.dim for c in enumerated]
    # a structure with a point has a cell in every dimension, so only one
    # without points gets here with more counts than the cap allows cells
    if args.max_dim + 1 > (cap := _max_cells()):
        raise EnumerationCapError(
            f"--max-dim {args.max_dim} asks for {args.max_dim + 1} counts, more than the cap of "
            f"{cap} cells (set {MAX_CELLS_ENV} to raise)"
        )
    counts = [0] * (args.max_dim + 1)
    for d in dims:
        counts[d] += 1
    if args.format == "structured":
        payload = {"name": fixture.name, "counts": counts}
        if not args.count_only:
            payload["cells"] = [fixtures.cell_payload(c) for c in enumerated]
        _emit_structured(payload)
    else:
        print(" ".join(str(c) for c in counts))
        for c in enumerated:
            print(c)
    return 0


def _cmd_face(args) -> int:
    from .cells import _check_cell, face
    if args.k < 0:
        raise _UsageError(f"k must be >= 0, got {args.k}")
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    cell_fixture = _load(args.cell, fixtures.KIND_CELL)
    table = cell_fixture.value
    ok, reason = _check_cell(fixture.value, table)
    if not ok:
        print(f"invalid cell: {reason}")
        return 1
    try:
        result = face(table, args.k, args.sign)
    except ValueError as exc:  # k at or above the cell's dimension; argparse checks the sign
        print(f"cannot take face: {exc}")
        return 1
    _cell_out(args, result, name=f"{cell_fixture.name}-{args.sign}-{args.k}")
    return 0


def _cmd_compose(args) -> int:
    from .cells import NotComposableError, _check_cell, compose
    if args.k < 0:
        raise _UsageError(f"k must be >= 0, got {args.k}")
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    first = _load(args.cells[0], fixtures.KIND_CELL)
    second = _load(args.cells[1], fixtures.KIND_CELL)
    for label, cf in (("first", first), ("second", second)):
        ok, reason = _check_cell(fixture.value, cf.value)
        if not ok:
            print(f"invalid {label} cell: {reason}")
            return 1
    try:
        result = compose(first.value, second.value, args.k)
    except NotComposableError as exc:
        print(f"not composable: {exc}")
        return 1
    _cell_out(args, result, name=f"{first.name}-o{args.k}-{second.name}")
    return 0


def _cmd_decompose(args) -> int:
    from .cells import excision_decompose
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    cell_fixture = _load(args.cell, fixtures.KIND_CELL)
    try:
        slices = excision_decompose(fixture.value, cell_fixture.value)
    except UnknownGeneratorError:
        raise  # malformed input: exit 2, as face, compose and atom do
    except ValueError as exc:
        print(f"cannot decompose: {exc}")
        return 1
    if args.format == "structured":
        _emit_structured(
            {
                "name": cell_fixture.name,
                "slices": [fixtures.cell_payload(s) for s in slices],
            }
        )
    else:
        print(f"slices: {len(slices)}")
        for s in slices:
            print(s)
    return 0


def _cmd_roundtrip(args) -> int:
    from .chain import extract_structure, from_structure
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    struct = fixture.value
    additive = struct.to_additive() if isinstance(struct, ParityStructure) else struct
    same = extract_structure(from_structure(struct)) == additive
    if args.format == "structured":
        _emit_structured({"name": fixture.name, "isomorphic": same})
    else:
        print(f"roundtrip isomorphic: {_flag(same)}")
    return 0 if same else 1


def _cmd_freeness(args) -> int:
    from .cells import atom_closure, enumerate_cells
    fixture = _load(args.file, *_STRUCTURE_KINDS)
    struct = fixture.value
    closure = atom_closure(struct, args.max_dim)
    enumerated = enumerate_cells(struct, args.max_dim)
    missing = [c for c in enumerated if c not in closure]
    # one memo for every witness, so that the subexpressions they share
    # are evaluated once, through the public atom, identity and compose
    memo: dict = {}
    bad = [c for c in enumerated if c in closure and closure[c]._evaluate(struct, memo) != c]
    if args.format == "structured":
        _emit_structured(
            {
                "name": fixture.name,
                "cells": len(enumerated),
                "reached": len(enumerated) - len(missing),
                "witnesses_reevaluate": not bad,
                "missing": [fixtures.cell_payload(c) for c in missing],
            }
        )
    else:
        print(f"cells: {len(enumerated)}")
        print(f"reached from atoms: {len(enumerated) - len(missing)}")
        for c in missing:
            print(f"unreached: {c}")
    return 0 if not missing and not bad else 1


def _cmd_morphism_validate(args) -> int:
    from .morphisms import check_strict_movement, validate_morphism
    fixture = _load(args.morphism, fixtures.KIND_MORPHISM)
    f = fixture.value
    mode = args.mode or f.mode
    report = validate_morphism(f, mode)
    strict = check_strict_movement(f) if report.valid and mode == "weak_parity" else None
    if args.format == "structured":
        payload = {"name": fixture.name, **report.to_payload()}
        if strict is not None:
            payload["strict_movement"] = strict
        _emit_structured(payload)
    else:
        print(f"valid: {_flag(report.valid)}")
        print(f"normal: {_flag(report.normal)}")
        if strict is not None:
            print(f"strict movement: {_flag(strict)}")
        for failure in report.failures:
            print(f"FAIL: {failure}")
    return 0 if report.valid else 1


def _cmd_morphism_compose(args) -> int:
    from .morphisms import MorphismError, compose_morphisms
    first = _load(args.morphism, fixtures.KIND_MORPHISM)
    second = _load(args.second, fixtures.KIND_MORPHISM)
    try:
        composed = compose_morphisms(first.value, second.value)
    except (MorphismError, OverflowError) as exc:
        print(f"not composable: {exc}")
        return 1
    _write_out(fixtures.dumps(composed, name=f"{first.name}-then-{second.name}"), args.output)
    return 0


def _cmd_morphism_apply(args) -> int:
    from .morphisms import apply_to_cell
    fixture = _load(args.morphism, fixtures.KIND_MORPHISM)
    cell_fixture = _load(args.cell, fixtures.KIND_CELL)
    try:
        result = apply_to_cell(fixture.value, cell_fixture.value)
    except UnknownGeneratorError:
        raise  # malformed input: exit 2, as face, compose and atom do
    except (ValueError, OverflowError) as exc:
        print(f"cannot apply: {exc}")
        return 1
    _cell_out(args, result, name=f"{fixture.name}-{cell_fixture.name}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given a command name, one that
    fills in only that subcommand's arguments: a call runs one, and the
    others are needed only by name and help line (usage, `--help` and
    errors read nothing else)."""
    parser = argparse.ArgumentParser(
        prog="paritykit",
        description="Validate, generate, and explore parity complexes at desk scale.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output style (structured = canonical JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        """The subparser to fill in, or None for one that is only listed."""
        if command in (None, name):
            return sub.add_parser(name, parents=[common], help=help)
        sub.add_parser(name, help=help)
        return None

    if p := add("validate", "run every axiom check on a structure fixture"):
        p.add_argument("file")
        p.add_argument("--require", choices=sorted(REQUIRE_LEVELS))
        p.set_defaults(func=_cmd_validate)

    if p := add("classify", "print the classification only"):
        p.add_argument("file")
        p.set_defaults(func=_cmd_classify)

    if p := add("generate", "emit a standard family fixture"):
        from .generators import FAMILIES
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("-o", "--output", default="-")
        p.set_defaults(func=_cmd_generate)

    if p := add("chain", "boundary report and chain-level checks"):
        p.add_argument("file")
        p.add_argument("--check", action="store_true", help="exit 1 unless dd=0, normal, and unital")
        p.set_defaults(func=_cmd_chain)

    if p := add("atom", "the atom cell of a generator"):
        p.add_argument("file")
        p.add_argument("generator")
        p.set_defaults(func=_cmd_atom)

    if p := add("cells", "enumerate the cells up to a dimension"):
        p.add_argument("file")
        p.add_argument("--max-dim", type=int, required=True)
        p.add_argument("--count-only", action="store_true")
        p.set_defaults(func=_cmd_cells)

    if p := add("face", "source or target face of a cell"):
        p.add_argument("file")
        p.add_argument("--cell", required=True)
        p.add_argument("-k", type=int, required=True)
        p.add_argument("--sign", choices=("source", "target"), required=True)
        p.set_defaults(func=_cmd_face)

    if p := add("compose", "k-composite of two cells"):
        p.add_argument("file")
        p.add_argument("--cells", nargs=2, required=True, metavar=("FIRST", "SECOND"))
        p.add_argument("-k", type=int, required=True)
        p.set_defaults(func=_cmd_compose)

    if p := add("decompose", "excision decomposition of a cell"):
        p.add_argument("file")
        p.add_argument("--cell", required=True)
        p.set_defaults(func=_cmd_decompose)

    if p := add("morphism", "validate, compose, or apply morphism fixtures"):
        action = p.add_subparsers(dest="action", required=True)
        q = action.add_parser("validate", parents=[common])
        q.add_argument("morphism")
        q.add_argument("--mode", choices=("additive", "weak_parity"))
        q.set_defaults(func=_cmd_morphism_validate)
        q = action.add_parser("compose", parents=[common])
        q.add_argument("morphism")
        q.add_argument("second")
        q.add_argument("-o", "--output", default="-")
        q.set_defaults(func=_cmd_morphism_compose)
        q = action.add_parser("apply", parents=[common])
        q.add_argument("morphism")
        q.add_argument("--cell", required=True)
        q.set_defaults(func=_cmd_morphism_apply)

    if p := add("roundtrip", "structure -> chain complex -> structure"):
        p.add_argument("file")
        p.set_defaults(func=_cmd_roundtrip)

    if p := add("freeness", "check atoms generate all cells up to a dimension"):
        p.add_argument("file")
        p.add_argument("--max-dim", type=int, required=True)
        p.set_defaults(func=_cmd_freeness)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ValueError, OverflowError) as exc:
        # FixtureError, StructureError, DimensionMismatchError and
        # MorphismError are all ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # Only `cells` raises these, so it is loaded already; an internal
        # check fails when a structure breaks a cell operation's hypotheses.
        from .cells import EnumerationCapError, InternalCheckError
        if not isinstance(exc, (EnumerationCapError, InternalCheckError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
