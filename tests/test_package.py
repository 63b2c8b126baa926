"""The package namespace and the report value types."""

import ast
import inspect
from functools import cache
from importlib import import_module
from pathlib import Path
from types import FunctionType

import pytest

import paritykit
from conftest import load_fixture
from paritykit import check_complex, from_structure, validate, validate_morphism
from paritykit.chain import ChainReport
from paritykit.fixtures import Fixture
from paritykit.morphisms import MorphismReport
from paritykit.parity_core import AxiomFailure, CycleWitness, OrderWitness, ValidationReport

#: The names `paritykit` exports, by the submodule that defines them.
EXPORTS = {
    "multiset": ["DimensionMismatchError", "GeneratorId", "Multiset", "SignedVector"],
    "parity_core": [
        "AdditiveParityStructure", "AxiomFailure", "CycleWitness", "OrderWitness",
        "ParityStructure", "StructureError", "UnknownGeneratorError", "ValidationReport",
        "atom_faces", "is_well_formed", "iterated_boundaries", "moves", "skeleton",
        "subset_faces", "validate",
    ],
    "chain": [
        "AugmentationMissingError", "ChainReport", "FreeDirectedComplex", "check_complex",
        "extract_structure", "from_structure",
    ],
    "cells": [
        "AtomExpression", "AtomLeaf", "CellTable", "Composite", "EnumerationCapError",
        "IdentityLift", "InternalCheckError", "NotComposableError", "atom", "atom_closure",
        "compose", "enumerate_cells", "excision_decompose", "face", "generated_by_atoms",
        "identity", "validate_cell",
    ],
    "morphisms": [
        "ChainMap", "GradedMorphism", "MorphismError", "MorphismReport", "apply_to_cell",
        "check_strict_movement", "compose_morphisms", "identity_morphism",
        "induced_chain_map", "morphism_from_chain_map", "restrict_morphism",
        "validate_morphism",
    ],
    "generators": ["cube", "family", "globe", "oriental"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)

#: Exported names kept because each is a notion of Street 1991 or Steiner
#: 2004 that a user calls, whether or not other `src/` code reads it: skeleta and
#: restriction for the inductive arguments, Street's face unions, atoms,
#: well-formedness and movement, Steiner's iterated boundaries, the
#: chain-map functor and its inverse on hom-sets, identities, and
#: generation by atoms.
PAPER_NOTIONS = {
    "atom_faces", "generated_by_atoms", "identity_morphism", "induced_chain_map",
    "is_well_formed", "iterated_boundaries", "morphism_from_chain_map", "moves",
    "restrict_morphism", "skeleton", "subset_faces",
}
#: Public methods of exported classes kept for the same reason, by
#: `Class.method`: the chain complex's boundary and augmentation
#: (Steiner's augmented directed complexes), the parts of a chain, a
#: chain map's action and composite, a graded morphism's action on a
#: multiset, the parity view of an additive structure, Street's meet and
#: disjointness of face sets, and the zero test of dd = 0.
PAPER_METHODS = {
    "AdditiveParityStructure.as_parity", "ChainMap.apply", "ChainMap.then",
    "FreeDirectedComplex.augmentation", "FreeDirectedComplex.boundary",
    "GradedMorphism.apply_multiset", "Multiset.disjoint", "Multiset.meet",
    "SignedVector.is_zero", "SignedVector.parts",
}
REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "paritykit"


@cache
def _trees() -> dict[Path, ast.Module]:
    """The syntax tree of each module of the package and of `perfbench/`."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in [*SRC.glob("*.py"), *(REPO / "perfbench").rglob("*.py")]}


def _reached_in_src(name: str) -> bool:
    """True iff a module of the package other than `__init__` reads the
    exported name outside its own definition: the defining module, or one
    that imports the name from it."""
    home = paritykit._SUBMODULE[name]
    for path, tree in _trees().items():
        if path.parent != SRC or path.stem == "__init__":
            continue
        imports = (
            node.level == 1 and node.module == home and any(a.name == name and a.asname is None for a in node.names)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        )
        if path.stem != home and not any(imports):
            continue
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                continue
            if isinstance(node, ast.Name) and node.id == name:
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def public_methods() -> dict[str, type]:
    """Each public method, property and classmethod of an exported class,
    inherited ones included, as `Class.method`, with the package class
    that defines it."""
    out = {}
    for name in paritykit.__all__:
        cls = getattr(paritykit, name)
        if not inspect.isclass(cls):
            continue
        for home in cls.__mro__:
            if not home.__module__.startswith("paritykit."):
                continue
            for attr, value in vars(home).items():
                if attr.startswith("_") or attr in getattr(cls, "_fields", ()):
                    continue
                if isinstance(value, (FunctionType, property, classmethod, staticmethod)):
                    out.setdefault(f"{name}.{attr}", home)
    return out


@cache
def _attribute_reads() -> dict[str, set[str]]:
    """Each attribute read in the package or `perfbench/`, with where it
    is read: `module.Class.method` inside a method of a package class,
    the empty string elsewhere."""
    reads: dict[str, set[str]] = {}
    for path, tree in _trees().items():
        module = f"paritykit.{path.stem}" if path.parent == SRC else ""
        stack = [(tree, "")]
        while stack:
            node, where = stack.pop()
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(where)
            for child in ast.iter_child_nodes(node):
                method = module and isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
                stack.append((child, f"{module}.{node.name}.{child.name}" if method else where))
    return reads


def _read_as_attribute(attr: str, home: type) -> bool:
    """True iff a module of the package or of `perfbench/` reads the
    attribute, on any value, outside the definition of it in `home`."""
    return bool(_attribute_reads().get(attr, set()) - {f"{home.__module__}.{home.__name__}.{attr}"})


class TestPackageSurface:
    def test_all_lists_the_exported_names(self):
        assert len(ALL_NAMES) == 58
        assert sorted(paritykit.__all__) == ALL_NAMES
        assert len(paritykit.__all__) == len(set(paritykit.__all__))
        assert set(ALL_NAMES) <= set(dir(paritykit))

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_the_submodule_object(self, module):
        sub = import_module(f"paritykit.{module}")
        for name in EXPORTS[module]:
            assert getattr(paritykit, name) is getattr(sub, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from paritykit import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == ALL_NAMES
        assert namespace["validate"] is validate

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            paritykit.no_such_name
        assert not hasattr(paritykit, "no_such_name")
        with pytest.raises(ImportError):
            exec("from paritykit import no_such_name", {})

    def test_every_name_is_reached_or_a_paper_notion(self):
        unreached = {name for name in paritykit.__all__ if not _reached_in_src(name)}
        assert unreached <= PAPER_NOTIONS, sorted(unreached - PAPER_NOTIONS)
        assert PAPER_NOTIONS <= set(paritykit.__all__)

    def test_paper_notions_are_in_the_readme(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert [name for name in sorted(PAPER_NOTIONS | PAPER_METHODS) if f"`{name}`" not in readme] == []

    def test_every_public_method_is_read_or_a_paper_notion(self):
        methods = public_methods()
        unread = {name for name, home in methods.items() if not _read_as_attribute(name.split(".")[1], home)}
        assert unread <= PAPER_METHODS, sorted(unread - PAPER_METHODS)
        assert PAPER_METHODS <= set(methods)

    def test_renaming_methods_are_gone(self):
        gone = {"Multiset.disjoint_union", "Multiset.support", "Multiset.is_empty", "SignedVector.scale",
                "SignedVector.entry", "SignedVector.is_positive", "SignedVector.zero"}
        assert gone.isdisjoint(public_methods())

    def test_version(self):
        assert paritykit.__version__ == "0.1.0"


class TestReportTypes:
    def test_validation_report_repr_unchanged(self, circle):
        assert repr(validate(circle)) == (
            "ValidationReport(disjoint=True, globular=True, unital=True, normal=True, "
            "weakly_loop_free=False, steiner_loop_free=False, strongly_loop_free=False, "
            "classification='additive parity complex', witnesses=mappingproxy({"
            "'weakly_loop_free': CycleWitness(level=1, cycle=('a', 'b')), "
            "'steiner_loop_free': CycleWitness(level=0, cycle=('p', 'a', 'q', 'b')), "
            "'strongly_loop_free': CycleWitness(level=None, cycle=('p', 'a', 'q', 'b'))}), "
            "failures=(AxiomFailure(axiom='weakly_loop_free', generators=('a', 'b'), "
            "detail='directed cycle at level 1: a → b → a'), "
            "AxiomFailure(axiom='steiner_loop_free', generators=('p', 'a', 'q', 'b'), "
            "detail='directed cycle at level 0: p → a → q → b → p'), "
            "AxiomFailure(axiom='strongly_loop_free', generators=('p', 'a', 'q', 'b'), "
            "detail='directed cycle at level None: p → a → q → b → p')), "
            "notes=('globularity agrees in subset and additive form on all well-formed faces',))"
        )

    def test_order_witness_repr_unchanged(self, weak_not_strong):
        witness = validate(weak_not_strong).witnesses["weakly_loop_free"]
        assert repr(witness) == "OrderWitness(orders=((1, ('a0', 'a1', 'b0', 'b1')), (2, ('F',))))"

    def test_chain_and_morphism_report_reprs_unchanged(self, circle):
        assert repr(check_complex(from_structure(circle))) == (
            "ChainReport(dd_zero=True, normal=True, unital=True, augmented=True, failures=())"
        )
        collapse = load_fixture("morphism_collapse_globe1").value
        assert repr(validate_morphism(collapse)) == (
            "MorphismReport(valid=True, normal=True, failures=())"
        )
        assert repr(Fixture("cell", "x", None)) == "Fixture(kind='cell', name='x', value=None)"

    def test_notes_default_to_empty(self):
        report = ValidationReport(
            True, True, True, True, True, True, True, "parity complex", {}, ()
        )
        assert report.notes == ()

    @pytest.mark.parametrize(
        "value, field",
        [
            (OrderWitness(((1, ("a",)),)), "orders"),
            (CycleWitness(0, ("a", "b")), "cycle"),
            (AxiomFailure("normal", ("a",), "detail"), "detail"),
            (
                ValidationReport(True, True, True, True, True, True, True, "parity complex", {}, ()),
                "classification",
            ),
            (ChainReport(True, True, True, True, ()), "dd_zero"),
            (MorphismReport(True, True, ()), "valid"),
            (Fixture("cell", "x", None), "value"),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_fields_cannot_be_set(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None
