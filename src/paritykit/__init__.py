"""Parity complexes, additive parity complexes, and the free augmented
directed complexes they generate, with validators for every axiom, the
cell-table omega-category construction, excision, morphisms, and the
standard globe/oriental/cube families."""

from .multiset import (
    DimensionMismatchError,
    GeneratorId,
    Multiset,
    SignedVector,
)
from .parity_core import (
    AdditiveParityStructure,
    AxiomFailure,
    CycleWitness,
    OrderWitness,
    ParityStructure,
    StructureError,
    UnknownGeneratorError,
    ValidationReport,
    atom_faces,
    face_images,
    is_well_formed,
    iterated_boundaries,
    moves,
    skeleton,
    subset_faces,
    validate,
)
from .chain import (
    AugmentationMissingError,
    ChainReport,
    FreeDirectedComplex,
    check_complex,
    extract_structure,
    from_structure,
    is_well_formed_element,
)
from .cells import (
    AtomExpression,
    AtomLeaf,
    CellTable,
    Composite,
    EnumerationCapError,
    IdentityLift,
    InternalCheckError,
    NotComposableError,
    atom,
    atom_closure,
    cell_zero,
    compose,
    enumerate_cells,
    excision_decompose,
    face,
    generated_by_atoms,
    identity,
    lift,
    validate_cell,
)
from .morphisms import (
    ChainMap,
    GradedMorphism,
    MorphismError,
    MorphismReport,
    apply_to_cell,
    check_strict_movement,
    compose_morphisms,
    identity_morphism,
    induced_chain_map,
    morphism_from_chain_map,
    restrict_morphism,
    validate_morphism,
)
from .generators import cube, family, globe, oriental

__version__ = "0.1.0"
