"""Guarded smooth maps, jet towers with partition-sum composition, and the
law-checking harness for the differential and restriction axioms."""

from .config import DEFAULT_CONFIG, RunConfig
from .expr import (
    Expr,
    Guard,
    GuardAtom,
    OutOfDomainError,
    ParseError,
    diff,
    eval_expr,
    guard_and,
    guard_eval,
    guard_subst,
    parse_expression,
    parse_map,
    pretty_expr,
    simplify,
)
from .smooth import (
    CLASSICAL,
    TRIVIAL,
    D,
    LAssignment,
    MonoidStructure,
    SmoothMap,
    SpaceObject,
    apply_map,
    componentwise_monoid,
    d_n,
    d_n_insertion,
    finite_diff,
    identity,
    iterate_D,
    maps_equal,
    parse_smooth_map,
    projection,
    restriction_of,
    then,
    tuple_map,
)
from .jets import (
    FaaObject,
    JetMorphism,
    cofree_jet,
    compatible,
    compose_jets,
    delta,
    derivative_jet,
    enumerate_partitions,
    epsilon,
    identity_jet,
    is_linear,
    is_total,
    jet_equal,
    jet_from_dict,
    jet_to_dict,
    lambda_embed,
    leq,
    pair_jets,
    projection_jet,
    restriction_jet,
)
from .laws import check_cd_axioms, check_dr_axioms, run_cd_suite, run_dr_suite
from .jetlaws import (
    check_comonad_laws,
    run_comonad_suite,
    run_faa_r_suite,
    run_linear_suite,
)
from .splitting import (
    SplitMap,
    SplitObject,
    check_split_cdc,
    split_D,
    split_L,
    split_identity,
    split_map,
    split_object,
    split_restriction,
    split_then,
)

__version__ = "0.1.0"
