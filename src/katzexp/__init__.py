"""Exact-arithmetic Katz expansions and overconvergence-rate certificates
for p-adic modular functions of tame level 1."""

from ._rational import INF, QQ, val
from .classical import (
    bernoulli,
    delta_series,
    dim_weight,
    eisenstein_series,
    hauptmodul_series,
    miller_form,
)
from .errors import (
    CrossCheckMismatch,
    EllEqualsP,
    InsufficientLength,
    InvalidWeight,
    KatzexpError,
    NotAModularForm,
    NotAUnit,
    PrecisionTooLow,
    ResourceBudgetExceeded,
    UnsupportedPrime,
    ZeroConstantTerm,
)
from .family import (
    agreement_depth,
    classical_limit_weight,
    delta_weight_sequence,
    eis_ratio,
    estar_family,
    estar_family_classical,
    estar_family_teichmuller,
    estar_k,
    gen_bernoulli_tau,
    teichmuller,
)
from .hecke import (
    HPolynomial,
    U_POLY,
    apply_hpoly,
    apply_hpoly_twisted,
    hecke_T_ell,
    iterate_H,
    projector_poly,
    t_p_n_one,
    twisted_T_ell,
    twisted_U,
)
from .katz import (
    KatzExpansion,
    KatzTerm,
    RateCertificate,
    certify_rate,
    expand_in_hauptmodul,
    hauptmodul_valuations,
    katz_split_classical,
    katz_split_function,
    qprec_for_split,
    window_bounds,
)
from .recurrence import (
    BivarPolyModP,
    deep_recurrence_verify,
    delta_p,
    newton_chain,
    phi_image,
    phi_image_x,
    s_sequence,
    sp_to_bivar_mod_p,
)
from .reports import (
    RunReport,
    aggregate_status,
    cmd_check_condition,
    cmd_check_condition_extended,
    cmd_hauptmodul,
    cmd_katz,
    cmd_reproduce_examples,
    cmd_verify_theorem,
    revalidate_report,
)
from .series import (
    QSeries,
    apply_U,
    apply_V,
    qs_add,
    qs_div,
    qs_from_json,
    qs_inv,
    qs_mul,
    qs_one,
    qs_pow,
    qs_reduce_mod,
    qs_sub,
    qs_to_json,
    qs_truncate,
    qs_val,
)

__version__ = "0.1.0"
