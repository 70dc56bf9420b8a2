"""Joint Sato-Tate statistics for newform coefficients.

Exact q-expansions (eta quotients, files, remote fetch), Chebyshev
symmetric-power lifts, closed-form and certified-quadrature joint measures,
grid brackets of regions with boundary-count certificates, and prime
sign/dominance statistics with effective error envelopes.
"""

from .bipoly import Poly2
from .chebyshev import eval_u, s_poly
from .coeffs import (
    CoefficientTable,
    NewformDescriptor,
    expand_eta_quotient,
    load_coefficient_file,
    write_coefficient_file,
)
from .counting import (
    DensityReport,
    FirstSignChange,
    PrimeSieve,
    count_in_region,
    default_checkpoints,
    dominance_density_series,
    first_sign_change,
    prime_count,
    sieve,
    sign_density_series,
    theoretical_first_sign_bound,
    zero_count,
)
from .measures import (
    Interval,
    MeasureValue,
    d_ell,
    d_mn,
    mu_jst_rect,
    mu_jst_region,
    mu_st,
)
from .region import (
    ErrorEnvelope,
    GridApproximation,
    PolynomialRegion,
    boundary_bound_check,
    build_grid,
    classify_boxes,
    disk,
    error_envelope,
    full_square,
    m_of_x,
    rect,
    region_from_poly_interval,
    sign_product,
    strip_merge,
)

__version__ = "0.1.0"
