"""Exact arithmetic for uniformizer invariants of Eisenstein polynomials,
truncated power-series rings with Frobenius, Breuil-module linear algebra,
recursive ramification exponents, and exhaustive desk-scale verification."""

from .bounds import (
    BoundTrace,
    bound_example4,
    bound_f11,
    compute_s,
    prop3_height_bounds,
    reference_log_bound,
)
from .breuil import (
    BreuilModule,
    FractionalElement,
    NormalDecomposition,
    Prop1Verdict,
    apply_phi,
    build_bt_module,
    example3_identity,
    example3_module,
    extension_module,
    h3,
    h4,
    module_from_json,
    module_to_json,
    order,
    prop1_classify,
    required_u_precision,
    snf_mod_uT,
    verify_inclusion_p_s,
)
from .eisenstein import (
    EisensteinPolynomial,
    EisensteinValidationError,
    TauSearchResult,
    UniformizerChange,
    UniformizerInvariants,
    substitute,
    tau_v_search,
)
from .oracle import (
    BudgetExceededError,
    OracleViolationError,
    Prop2Result,
    SearchConfig,
    WitnessReport,
    cor5_check,
    default_config,
    descent_minimal_s,
    eisenstein_grid,
    lemma4_check,
    prop2_max_t,
)
from .series import (
    Precision,
    PrecisionError,
    PrecisionMismatchError,
    TruncatedSeries,
    WeierstrassFactorization,
    frobenius,
    invert_unit,
    weierstrass_prep,
)

__version__ = "0.1.0"
