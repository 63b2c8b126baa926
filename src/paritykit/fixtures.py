"""Fixture file format: versioned JSON for structures, cells, and morphisms.

Face data serializes as a sorted array of names when every count is 1,
and as sorted [name, count] pairs otherwise; parsers accept either form
(and mixtures).  Emission is canonical, so parse(print(x)) == x and
output bytes are deterministic.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from .multiset import MAX_COUNT, GeneratorId, Multiset
from .parity_core import AdditiveParityStructure, ParityStructure, Structure

if TYPE_CHECKING:
    from .cells import CellTable
    from .morphisms import GradedMorphism

SCHEMA_VERSION = 1

KIND_PARITY = "parity_structure"
KIND_ADDITIVE = "additive_parity_structure"
KIND_CELL = "cell"
KIND_MORPHISM = "morphism"
KINDS = (KIND_PARITY, KIND_ADDITIVE, KIND_CELL, KIND_MORPHISM)

#: Largest dimension of a structure element, four times globe(16)'s: the
#: work and output of validation grow with the largest dimension.
MAX_DIM = 64


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


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _face_counts(data: Any, where: str) -> list[tuple[str, int]]:
    if not isinstance(data, list):
        raise FixtureError(f"{where}: faces must be an array")
    out: list[tuple[str, int]] = []
    for entry in data:
        if isinstance(entry, str):
            out.append((entry, 1))
        elif (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and _is_int(entry[1])
        ):
            if not 1 <= entry[1] <= MAX_COUNT:
                raise FixtureError(
                    f"{where}: count of {entry[0]!r} must be between 1 and {MAX_COUNT}, got {entry[1]}"
                )
            out.append((entry[0], entry[1]))
        else:
            raise FixtureError(f"{where}: face entries must be names or [name, count] pairs")
    return out


def _parse_elements(payload: Mapping, where: str) -> list[tuple[str, int, list, list]]:
    elements = payload.get("elements")
    if not isinstance(elements, list):
        raise FixtureError(f"{where}: payload needs an 'elements' array")
    rows = []
    for el in elements:
        if not isinstance(el, Mapping):
            raise FixtureError(f"{where}: elements must be objects")
        try:
            name = el["id"]
            dim = el["dim"]
        except KeyError as exc:
            raise FixtureError(f"{where}: element missing {exc}")
        if not isinstance(name, str) or not _is_int(dim):
            raise FixtureError(f"{where}: element id must be a string and dim an integer")
        if not 0 <= dim <= MAX_DIM:
            bound = ">= 0" if dim < 0 else f"at most {MAX_DIM}"
            raise FixtureError(f"{where}/{name}: dim must be {bound}, got {dim}")
        neg = _face_counts(el.get("neg", []), f"{where}/{name}")
        pos = _face_counts(el.get("pos", []), f"{where}/{name}")
        rows.append((name, dim, neg, pos))
    return rows


def _structure_from_payload(kind: str, payload: Mapping, where: str) -> Structure:
    rows = _parse_elements(payload, where)
    if kind == KIND_PARITY:
        for name, _, neg, pos in rows:
            for fname, count in neg + pos:
                if count != 1:
                    raise FixtureError(
                        f"{where}/{name}: parity structures have subset faces; "
                        f"{fname!r} has count {count}"
                    )
    try:
        if kind == KIND_PARITY:
            return ParityStructure.build(
                [(n, d, [f for f, _ in neg], [f for f, _ in pos]) for n, d, neg, pos in rows]
            )
        return AdditiveParityStructure.build(rows)
    except (ValueError, OverflowError) as exc:
        raise FixtureError(f"{where}: {exc}")


def _cell_from_payload(payload: Mapping, where: str) -> CellTable:
    from .cells import CellTable
    dim = payload.get("dim")
    neg = payload.get("neg")
    pos = payload.get("pos")
    if not _is_int(dim) or not isinstance(neg, list) or not isinstance(pos, list):
        raise FixtureError(f"{where}: cell payload needs integer 'dim' and 'neg'/'pos' arrays")
    if dim < 0:
        raise FixtureError(f"{where}: cell dimension must be >= 0, got {dim}")
    if len(neg) != dim + 1 or len(pos) != dim + 1:
        raise FixtureError(f"{where}: a {dim}-cell needs {dim + 1} columns per row")

    def column(k: int, data: Any, row: str) -> Multiset:
        at = f"{where}/{row}[{k}]"
        pairs = _face_counts(data, at)
        counts: dict[GeneratorId, int] = {}
        try:
            for name, count in pairs:
                g = GeneratorId(k, name)
                counts[g] = counts.get(g, 0) + count
            return Multiset(k, counts)
        except (ValueError, OverflowError) as exc:
            raise FixtureError(f"{at}: {exc}")

    return CellTable(
        [column(k, c, "neg") for k, c in enumerate(neg)],
        [column(k, c, "pos") for k, c in enumerate(pos)],
    )


def _morphism_from_payload(payload: Mapping, where: str) -> GradedMorphism:
    from .morphisms import GradedMorphism
    for key in ("source", "target", "assignment"):
        if key not in payload:
            raise FixtureError(f"{where}: morphism payload needs {key!r}")
    mode = payload.get("mode", "weak_parity")

    def sub_structure(key: str) -> Structure:
        sub = payload[key]
        if not isinstance(sub, Mapping):
            raise FixtureError(f"{where}/{key}: must be an object")
        kind = sub.get("kind", KIND_PARITY)
        if kind not in (KIND_PARITY, KIND_ADDITIVE):
            raise FixtureError(f"{where}/{key}: unknown structure kind {kind!r}")
        return _structure_from_payload(kind, sub, f"{where}/{key}")

    source = sub_structure("source")
    target = sub_structure("target")
    raw = payload["assignment"]
    if not isinstance(raw, Mapping):
        raise FixtureError(f"{where}: assignment must map dimensions to objects")
    assignment: dict[GeneratorId, Multiset] = {}
    for dim_key, per_dim in raw.items():
        try:
            dim = int(dim_key)
        except ValueError:
            raise FixtureError(f"{where}: assignment keys must be dimensions, got {dim_key!r}")
        if not isinstance(per_dim, Mapping):
            raise FixtureError(f"{where}: assignment[{dim_key}] must be an object")
        for name, faces in per_dim.items():
            at = f"{where}/assignment/{dim_key}/{name}"
            pairs = _face_counts(faces, at)
            counts: dict[GeneratorId, int] = {}
            try:
                gen = source.gen(name, dim)
                for fname, count in pairs:
                    h = target.gen(fname, dim)
                    counts[h] = counts.get(h, 0) + count
                assignment[gen] = Multiset(dim, counts)
            except (ValueError, OverflowError) as exc:
                raise FixtureError(f"{at}: {exc}")
    try:
        return GradedMorphism(source, target, assignment, mode)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}")


def loads(text: str) -> Fixture:
    """Parse a fixture document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"not valid JSON: {exc}")
    if not isinstance(doc, Mapping):
        raise FixtureError("fixture must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FixtureError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FixtureError(f"unknown fixture kind {kind!r}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FixtureError("fixture name must be a string")
    payload = doc.get("payload")
    if not isinstance(payload, Mapping):
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


def _faces_payload(faces: Multiset | frozenset[GeneratorId]) -> list:
    """Names in name order, or [name, count] pairs if a count is 2 or more."""
    if isinstance(faces, frozenset):
        return sorted(g.name for g in faces)
    if faces.is_radical():
        return [g.name for g in faces]
    return [[g.name, c] for g, c in faces.items()]


def structure_payload(struct: Structure) -> dict:
    elements = []
    for g in struct.all_generators():
        neg = _faces_payload(struct.neg(g)) if g.dim else []
        pos = _faces_payload(struct.pos(g)) if g.dim else []
        elements.append({"id": g.name, "dim": g.dim, "neg": neg, "pos": pos})
    elements.sort(key=lambda el: (el["dim"], el["id"]))
    return {"elements": elements}


def cell_payload(table: CellTable) -> dict:
    return {
        "dim": table.dim,
        "neg": [_faces_payload(c) for c in table.neg],
        "pos": [_faces_payload(c) for c in table.pos],
    }


def morphism_payload(f: GradedMorphism) -> dict:
    assignment: dict[str, dict[str, list]] = {}
    for g in f.source.all_generators():
        assignment.setdefault(str(g.dim), {})[g.name] = _faces_payload(f.image(g))
    def side(struct: Structure) -> dict:
        kind = KIND_PARITY if isinstance(struct, ParityStructure) else KIND_ADDITIVE
        return {"kind": kind, **structure_payload(struct)}
    return {
        "mode": f.mode,
        "source": side(f.source),
        "target": side(f.target),
        "assignment": assignment,
    }


def payload_for(value: Any) -> tuple[str, dict]:
    if isinstance(value, ParityStructure):
        return KIND_PARITY, structure_payload(value)
    if isinstance(value, AdditiveParityStructure):
        return KIND_ADDITIVE, structure_payload(value)
    # A cell or a morphism exists only once its module is loaded, so
    # writing one never imports the other's module.
    cells = sys.modules.get(f"{__package__}.cells")
    if cells is not None and isinstance(value, cells.CellTable):
        return KIND_CELL, cell_payload(value)
    morphisms = sys.modules.get(f"{__package__}.morphisms")
    if morphisms is not None and isinstance(value, morphisms.GradedMorphism):
        return KIND_MORPHISM, morphism_payload(value)
    raise TypeError(f"no fixture form for {type(value).__name__}")


def dumps(value: Any, name: str = "") -> str:
    """Serialize to the canonical fixture text (stable bytes)."""
    kind, payload = payload_for(value)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "kind": kind,
        "payload": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
