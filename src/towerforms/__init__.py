"""Numerical laboratory for Dirichlet forms, Markov semigroups and
derivations on the tower of 2^n x 2^n matrix algebras."""

from .tower import (
    AlgebraElement,
    clamp_spectrum,
    element_from_json,
    load_element,
)
from .expectations import cond_expect
from .superop import (
    SuperOperator,
    DiagonalComplement,
    TransposeMap,
    DoubleCommutatorFamily,
    DenseMap,
    TowerProjection,
    ScaledMap,
    ComposedMap,
    SemigroupMap,
    SpectralResolution,
    densify,
    spectral_resolve,
    choi_matrix,
    choi_min_eigenvalue,
)
from .forms import (
    CompatibleFamily,
    FamilyCompatibilityError,
    commutator_generator,
    commutator_form_eval,
    dirichlet_check,
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
