"""Fixture file format: versioned JSON for structures, cells, and morphisms.

Face data serializes as a sorted array of names when every count is 1,
and as sorted [name, count] pairs otherwise; parsers accept either form
(and mixtures).  A key written twice in one JSON object is refused.
Emission is canonical, so parse(print(x)) == x and output bytes are
deterministic: they are those of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline.  Structure elements, of a structure
document or a morphism's source and target, are written straight from
the face table's rows; ``_text`` writes cells, assignments and reports.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _encode
from typing import TYPE_CHECKING, Any, NamedTuple

from .multiset import MAX_COUNT, GeneratorId, Multiset
from .parity_core import MAX_DIM, AdditiveParityStructure, ParityStructure, Structure

if TYPE_CHECKING:
    from .cells import CellTable
    from .morphisms import GradedMorphism

SCHEMA_VERSION = 1

KIND_PARITY = "parity_structure"
KIND_ADDITIVE = "additive_parity_structure"
KIND_CELL = "cell"
KIND_MORPHISM = "morphism"
KINDS = (KIND_PARITY, KIND_ADDITIVE, KIND_CELL, KIND_MORPHISM)


class FixtureError(ValueError):
    """The text is not a well-formed fixture of a supported schema."""


class Fixture(NamedTuple):
    kind: str
    name: str
    value: Any  # structure, CellTable, or GradedMorphism


# ---------------------------------------------------------------------------
# reading
#
# Values built from the payload (generators, multisets, structures) raise
# ValueError or OverflowError on bad data; each such failure is re-raised
# as a FixtureError naming where in the document it happened.


def _check_faces(data: Any, where: str) -> bool:
    """Check face entries (names, or [name, count] pairs); true when all are names."""
    if type(data) is not list:
        raise FixtureError(f"{where}: faces must be an array")
    names = True
    for entry in data:
        if type(entry) is str:
            continue
        if type(entry) is not list or len(entry) != 2 or type(entry[0]) is not str or type(entry[1]) is not int:
            raise FixtureError(f"{where}: face entries must be names or [name, count] pairs")
        if not 1 <= entry[1] <= MAX_COUNT:
            raise FixtureError(
                f"{where}: count of {entry[0]!r} must be between 1 and {MAX_COUNT}, got {entry[1]}"
            )
        names = False
    return names


def _parse_elements(payload: dict, where: str) -> tuple[list[tuple[str, int, list, list]], bool]:
    """The (name, dim, neg, pos) rows of a structure payload, and whether
    every face entry is a name."""
    elements = payload.get("elements")
    if type(elements) is not list:
        raise FixtureError(f"{where}: payload needs an 'elements' array")
    rows, names = [], True
    for el in elements:
        if type(el) is not dict:
            raise FixtureError(f"{where}: elements must be objects")
        try:
            name = el["id"]
            dim = el["dim"]
        except KeyError as exc:
            raise FixtureError(f"{where}: element missing {exc}")
        if type(name) is not str or type(dim) is not int:
            raise FixtureError(f"{where}: element id must be a string and dim an integer")
        if not 0 <= dim <= MAX_DIM:
            bound = ">= 0" if dim < 0 else f"at most {MAX_DIM}"
            raise FixtureError(f"{where}/{name}: dim must be {bound}, got {dim}")
        neg, pos, at = el.get("neg", []), el.get("pos", []), f"{where}/{name}"
        names &= _check_faces(neg, at) & _check_faces(pos, at)
        rows.append((name, dim, neg, pos))
    return rows, names


def _structure_from_payload(kind: str, payload: dict, where: str) -> Structure:
    rows, names = _parse_elements(payload, where)
    if kind == KIND_PARITY and not names:
        # subset faces: a [name, count] pair must count 1, and becomes its name
        for name, _, neg, pos in rows:
            for faces in (neg, pos):
                for k, entry in enumerate(faces):
                    if type(entry) is list:
                        if entry[1] != 1:
                            raise FixtureError(
                                f"{where}/{name}: parity structures have subset faces; "
                                f"{entry[0]!r} has count {entry[1]}"
                            )
                        faces[k] = entry[0]
    try:
        return (ParityStructure if kind == KIND_PARITY else AdditiveParityStructure).build(rows)
    except (ValueError, OverflowError) as exc:
        raise FixtureError(f"{where}: {exc}")


def _cell_from_payload(payload: dict, where: str) -> CellTable:
    from .cells import CellTable
    dim = payload.get("dim")
    neg = payload.get("neg")
    pos = payload.get("pos")
    if type(dim) is not int or type(neg) is not list or type(pos) is not list:
        raise FixtureError(f"{where}: cell payload needs integer 'dim' and 'neg'/'pos' arrays")
    if dim < 0:
        raise FixtureError(f"{where}: cell dimension must be >= 0, got {dim}")
    if len(neg) != dim + 1 or len(pos) != dim + 1:
        raise FixtureError(f"{where}: a {dim}-cell needs {dim + 1} columns per row")

    def column(k: int, data: Any, row: str) -> Multiset:
        at = f"{where}/{row}[{k}]"
        _check_faces(data, at)
        counts: dict[GeneratorId, int] = {}
        try:
            for entry in data:
                name, count = (entry, 1) if type(entry) is str else entry
                g = GeneratorId(k, name)
                counts[g] = counts.get(g, 0) + count
            return Multiset(k, counts)
        except (ValueError, OverflowError) as exc:
            raise FixtureError(f"{at}: {exc}")

    return CellTable(
        [column(k, c, "neg") for k, c in enumerate(neg)],
        [column(k, c, "pos") for k, c in enumerate(pos)],
    )


def _morphism_from_payload(payload: dict, where: str) -> GradedMorphism:
    from .morphisms import GradedMorphism, _image_rows
    for key in ("source", "target", "assignment"):
        if key not in payload:
            raise FixtureError(f"{where}: morphism payload needs {key!r}")
    mode = payload.get("mode", "weak_parity")

    def sub_structure(key: str) -> Structure:
        sub = payload[key]
        if type(sub) is not dict:
            raise FixtureError(f"{where}/{key}: must be an object")
        kind = sub.get("kind", KIND_PARITY)
        if kind not in (KIND_PARITY, KIND_ADDITIVE):
            raise FixtureError(f"{where}/{key}: unknown structure kind {kind!r}")
        return _structure_from_payload(kind, sub, f"{where}/{key}")

    source = sub_structure("source")
    target = sub_structure("target")
    raw = payload["assignment"]
    if type(raw) is not dict:
        raise FixtureError(f"{where}: assignment must map dimensions to objects")
    # each image a row over the target's face table, whose index takes (dim, name) as an id
    t, images = target._table, []
    for dim_key, per_dim in raw.items():
        try:
            dim = int(dim_key)
        except ValueError:
            dim = None
        # only str(dim) itself, so that no two keys name one dimension
        if dim is None or str(dim) != dim_key:
            raise FixtureError(f"{where}: assignment keys must be dimensions, got {dim_key!r}")
        if type(per_dim) is not dict:
            raise FixtureError(f"{where}: assignment[{dim_key}] must be an object")
        for name, faces in per_dim.items():
            at = f"{where}/assignment/{dim_key}/{name}"
            _check_faces(faces, at)
            row: dict[int, int] = {}
            try:
                g = source.gen(name, dim)
                for entry in faces:
                    fname, count = (entry, 1) if type(entry) is str else entry
                    j = t.index.get((dim, fname))
                    if j is None:
                        target.gen(fname, dim)  # raises the unknown name's error
                    row[j] = row.get(j, 0) + count
                if max(row.values(), default=0) > MAX_COUNT:
                    t.multiset(dim, row)  # raises the first overflowing count's error
            except (ValueError, OverflowError) as exc:
                raise FixtureError(f"{at}: {exc}")
            images.append((g, dim, source._table.index[g], row))
    try:
        rows = _image_rows(source, target, mode, {g for g, _, _, _ in images}, images)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}")
    return GradedMorphism._of(source, target, rows, mode)


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object; a key written twice is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise FixtureError(f"key {key!r} is repeated in one JSON object")
            seen.add(key)
    return obj


def loads(text: str) -> Fixture:
    """Parse a fixture document."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"not valid JSON: {exc}")
    if type(doc) is not dict:
        raise FixtureError("fixture must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FixtureError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FixtureError(f"unknown fixture kind {kind!r}")
    name = doc.get("name", "")
    if type(name) is not str:
        raise FixtureError("fixture name must be a string")
    payload = doc.get("payload")
    if type(payload) is not dict:
        raise FixtureError("fixture needs a 'payload' object")
    where = name or kind
    if kind in (KIND_PARITY, KIND_ADDITIVE):
        value: Any = _structure_from_payload(kind, payload, where)
    elif kind == KIND_CELL:
        value = _cell_from_payload(payload, where)
    else:
        value = _morphism_from_payload(payload, where)
    return Fixture(kind=kind, name=name, value=value)


def load_path(path) -> Fixture:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# writing


def _faces_payload(names, row) -> list:
    """A row of (key, count) pairs in name order, written as names, or as
    [name, count] pairs if a count is 2 or more; ``names[key]`` is the name."""
    if all(c == 1 for _, c in row):
        return [names[j] for j, _ in row]
    return [[names[j], c] for j, c in row]


def _multiset_payload(faces: Multiset) -> list:
    return _faces_payload({g: g.name for g in faces}, faces.items())


def cell_payload(table: CellTable) -> dict:
    return {
        "dim": table.dim,
        "neg": [_multiset_payload(c) for c in table.neg],
        "pos": [_multiset_payload(c) for c in table.pos],
    }


def _assignment(f: GradedMorphism) -> dict[str, dict[str, list]]:
    """A morphism's images by dimension, then source name."""
    assignment: dict[str, dict[str, list]] = {}
    for d, (gens, rows) in enumerate(zip(f.source._table.gens, f._rows)):
        names = [h.name for h in f.target.generators(d)]
        if gens:
            assignment[str(d)] = {g.name: _faces_payload(names, sorted(row.items())) for g, row in zip(gens, rows)}
    return assignment


def _structure_text(struct: Structure, indent: str, with_kind: bool = False) -> str:
    """``_text`` of a structure's payload, with its ``kind`` if asked,
    written straight from its face table's rows with each dimension's
    names encoded once; ``indent`` as in ``_text``."""
    t, (i1, i2, i3, i4, i5) = struct._table, (indent + "  " * k for k in range(1, 6))
    sep, elements, names = "," + i4, [], []

    def faces(row: tuple) -> str:
        if not row:
            return "[]"
        if t.subset or all(c == 1 for _, c in row):
            return f"[{i4}{sep.join([names[j] for j, _ in row])}{i3}]"
        return f"[{i4}{sep.join([f'[{i5}{names[j]},{i5}{c}{i4}]' for j, c in row])}{i3}]"

    for d, gens in enumerate(t.gens):
        head, neg, pos, end = f'{{{i3}"dim": {d},{i3}"id": ', f',{i3}"neg": ', f',{i3}"pos": ', f"{i2}}}"
        encoded = [_encode(g.name) for g in gens]
        for name, n, p in zip(encoded, t.neg[d], t.pos[d]):
            elements.append(f"{head}{name}{neg}{faces(n)}{pos}{faces(p)}{end}")
        names = encoded
    text = f'{{{i1}"elements": [{i2}{("," + i2).join(elements)}{i1}]' if elements else f'{{{i1}"elements": []'
    kind = KIND_PARITY if isinstance(struct, ParityStructure) else KIND_ADDITIVE
    return f'{text},{i1}"kind": {_encode(kind)}{indent}}}' if with_kind else f"{text}{indent}}}"


def _payload_text(value: Any) -> tuple[str, str]:
    """A value's fixture kind and the ``_text`` of its payload in a document."""
    if isinstance(value, ParityStructure):
        return KIND_PARITY, _structure_text(value, "\n  ")
    if isinstance(value, AdditiveParityStructure):
        return KIND_ADDITIVE, _structure_text(value, "\n  ")
    # A cell or a morphism exists only once its module is loaded, so
    # writing one never imports the other's module.
    cells = sys.modules.get(f"{__package__}.cells")
    if cells is not None and isinstance(value, cells.CellTable):
        return KIND_CELL, _text(cell_payload(value), "\n  ")
    morphisms = sys.modules.get(f"{__package__}.morphisms")
    if morphisms is not None and isinstance(value, morphisms.GradedMorphism):
        i = "\n    "
        source, target = (_structure_text(s, i, True) for s in (value.source, value.target))
        assignment, mode = _text(_assignment(value), i), _encode(value.mode)
        return KIND_MORPHISM, (f'{{{i}"assignment": {assignment},{i}"mode": {mode},'
                               f'{i}"source": {source},{i}"target": {target}\n  }}')
    raise TypeError(f"no fixture form for {type(value).__name__}")


def _text(value: Any, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the values a
    fixture or report holds (dicts with string keys, lists, strings,
    ints, booleans and None), with every line break followed by
    ``indent``'s spaces."""
    if type(value) is str:
        return _encode(value)
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if type(value) is dict:
        items, brackets = [f"{_encode(k)}: {_text(value[k], inner)}" for k in sorted(value)], "{}"
    else:
        items, brackets = [_text(v, inner) for v in value], "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def dumps(value: Any, name: str = "") -> str:
    """Serialize to the canonical fixture text (stable bytes)."""
    kind, payload = _payload_text(value)
    return (f'{{\n  "kind": {_encode(kind)},\n  "name": {_encode(name)},\n  "payload": {payload},'
            f'\n  "schema_version": {SCHEMA_VERSION}\n}}\n')
