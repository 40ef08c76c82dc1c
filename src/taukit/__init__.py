"""taukit: exact-arithmetic hypergeometric tau-series toolkit.

Truncated Schur-function series with exact rational coefficients, content
products of diagonal operator symbols, classical and basic hypergeometric
specializations, and coefficient-exact checkers for the bilinear and
lattice identities these series satisfy.
"""

from .partitions import (
    conjugate,
    contains,
    enumerate_up_to,
    hook_data,
    n_statistic,
)
from .poly import (
    GradedPoly,
    Var,
    bvar,
    derivative,
    exp_series,
    format_monomial,
    format_rational,
    hirota_D,
    inverse,
    log_series,
    mono,
    parse_rational,
    q_number,
    tvar,
)
from .rspec import (
    LinFactor,
    PoleError,
    QLinFactor,
    QPairFactor,
    RSpec,
    content_product,
    content_products,
    poch_partition,
    r_eval,
    rspec_from_json,
    rspec_mul,
    rspec_shift,
    rspec_to_json,
    skew_content_product,
    zero_pole_scan,
)
from .schur import (
    GenericTimes,
    MiwaTimes,
    NumericTimes,
    PrincipalInfinityTimes,
    PrincipalTimes,
    power_sums_basis,
    schur_poly,
    schur_principal_value,
    skew_schur_poly,
)
from .tau import (
    ChainSpec,
    SqrtValue,
    TauExpansion,
    askey_wilson,
    askey_wilson_rspec,
    classical_reference,
    clebsch_gordan_q,
    pfq_one_var_coeffs,
    pfs_multivar,
    prop4_pair,
    q_bracket,
    qphi_multivar,
    qphi_one_var_coeffs,
    tau_general,
    tau_series,
    tau_two_sided,
)
from .verify import (
    CheckReport,
    check_hirota,
    check_kp_bilinear,
    check_ode,
    check_prop4,
    check_qdiff,
    check_remark1,
    check_toda,
    compare_windowed,
    det_oracle_tau,
)

__version__ = "0.1.0"
