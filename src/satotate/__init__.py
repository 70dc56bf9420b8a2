"""Joint Sato-Tate statistics for newform coefficients.

Exact q-expansions (eta quotients, files, remote fetch), Chebyshev
symmetric-power lifts, closed-form and certified-quadrature joint measures,
grid brackets of regions with boundary-count certificates, and prime
sign/dominance statistics with effective error envelopes.

The package root re-exports nothing, so importing it loads no submodule;
callers import the submodule they use, e.g. ``from satotate import coeffs``.
"""

__version__ = "0.1.0"
