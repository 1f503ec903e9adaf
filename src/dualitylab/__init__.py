"""Desk-scale duality lab for discrete groups.

Finite-group Hopf algebra duality with exact or floating scalars, weighted
word lengths on finitely generated groups, semicharacter weights, truncated
weighted convolution algebras, and the growth counterexample, all packaged
as checkable reports.
"""

from .groups import (
    DirectProductGroup,
    GeneratorSet,
    Group,
    GroupSpec,
    direct_product,
    element_from_payload,
    make_generator_set,
    make_group,
    standard_generators,
)
from .hopf import (
    CycleReport,
    HopfAlgebra,
    LinearMap,
    check_hopf_axioms,
    check_linear_hom,
    dual_group,
    dual_hopf,
    duality_cycle,
    fourier,
    function_algebra,
    group_algebra,
    group_part,
    hopf_equal,
    product_iso_check,
    tensor_hopf,
    unitarity_check,
)
from .length import (
    LengthReport,
    UnexploredError,
    WeightFunction,
    explore_ball,
    heisenberg_witness,
    nuclearity_witness,
    sphere_bound_check,
    subadditivity_check,
    summability_partial_sums,
)
from .reports import CheckResult, ConfigError, dump_json, leq, write_csv, write_json
from .scalars import ComplexFloatBackend, CyclotomicBackend, cyclotomic_poly, make_backend
from .semichar import (
    Constant,
    ExpLength,
    Inverse,
    Max,
    Product,
    Scale,
    Semicharacter,
    Sum,
    build_semicharacter,
    majorization_check,
    majorize,
    parse_recipe,
    sampled_submultiplicativity,
)
from .weighted import (
    Decomposition,
    SubmultiplicativeSeminorm,
    WeightedVector,
    absconv_decompose,
    convolve,
    domination_check,
    dual_norm_extremizer,
    pairing,
    rectangle_polar_contains,
    seminorm,
    seminorm_support_check,
    summability_check,
    weighted_property_trials,
)

__version__ = "0.1.0"
