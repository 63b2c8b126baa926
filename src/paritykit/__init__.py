"""Parity complexes, additive parity complexes, and the free augmented
directed complexes they generate, with validators for every axiom, the
cell-table omega-category construction, excision, morphisms, and the
standard globe/oriental/cube families.

The names below are imported from their submodule on first use, so
`import paritykit` loads no submodule until one of them is needed.
"""

from importlib import import_module

#: Exported name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in (
        ("multiset", "DimensionMismatchError GeneratorId Multiset SignedVector"),
        (
            "parity_core",
            "AdditiveParityStructure AxiomFailure CycleWitness OrderWitness"
            " ParityStructure StructureError UnknownGeneratorError ValidationReport"
            " atom_faces is_well_formed iterated_boundaries moves"
            " skeleton subset_faces validate",
        ),
        (
            "chain",
            "AugmentationMissingError ChainReport FreeDirectedComplex check_complex"
            " extract_structure from_structure",
        ),
        (
            "cells",
            "AtomExpression AtomLeaf CellTable Composite EnumerationCapError"
            " IdentityLift InternalCheckError NotComposableError atom atom_closure"
            " compose enumerate_cells excision_decompose face"
            " generated_by_atoms identity validate_cell",
        ),
        (
            "morphisms",
            "ChainMap GradedMorphism MorphismError MorphismReport apply_to_cell"
            " check_strict_movement compose_morphisms identity_morphism"
            " induced_chain_map morphism_from_chain_map restrict_morphism"
            " validate_morphism",
        ),
        ("generators", "cube family globe oriental"),
    )
    for name in names.split()
}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
