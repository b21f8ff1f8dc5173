"""Numerical laboratory for Dirichlet forms, Markov semigroups and
derivations on the tower of 2^n x 2^n matrix algebras."""

from .tower import (
    AlgebraElement,
    identity,
    matrix_unit,
    diagonal_projection,
    normalized_trace,
    gns_inner,
    gns_norm,
    embed,
    modular_conjugation,
    random_element,
    clamp_spectrum,
    element_to_json,
    element_from_json,
    save_element,
    load_element,
)
from .expectations import cond_expect, project_P, project_Q
from .superop import (
    SuperOperator,
    DiagonalComplement,
    SchurMultiplier,
    TransposeMap,
    DoubleCommutatorFamily,
    DenseMap,
    TowerProjection,
    ScaledMap,
    ComposedMap,
    BlockwiseMap,
    SemigroupMap,
    SpectralResolution,
    apply,
    densify,
    spectral_resolve,
    choi_matrix,
    choi_min_eigenvalue,
    markov_check,
    symmetry_conservativity_check,
)
from .forms import (
    CompatibleFamily,
    FamilyCompatibilityError,
    commutator_generator,
    eval_form,
    commutator_form_eval,
    wedge_one,
    dirichlet_check,
    amplified_form,
    build_from_family,
)
from .derivation import (
    BimoduleVector,
    derive,
    bimodule_left,
    bimodule_right,
    bimodule_inner,
)
from .report import PropertyReport
from .harness import RunConfig, run_suite, converge_table, evolve_table, SUITE_NAMES

__version__ = "0.1.0"
