"""Every numerical tolerance and shared solver default, defined once.

Library signatures, the certificate checks, the uniqueness probe and the
command-line parser read their values from here.  Relative tolerances scale
with ``1 + |value|`` of the quantity they judge; the others are absolute.
"""

# --- certification and the subgradient solver --------------------------------

CERT_TOL = 1e-3
"""Relative duality-gap tolerance of the subgradient stop (q < inf) and gap check (p < q)."""

EXACT_CERT_TOL = 1e-7
"""Relative duality-gap tolerance at q = p, where the LP optimum is exact."""

MAX_ITER = 10_000
"""Iteration cap of the projected-subgradient barycenter solver (p < q < inf)."""

CERT_EVERY = 25
"""Iterations between the subgradient solver's certificate checks; the first is at iteration 1."""

LAMBDA_TOL = 1e-12
"""Largest allowed distance of the barycenter weights' sum from 1."""


def gap_allowance(tol: float, value: float) -> float:
    """Largest duality gap that certifies ``value`` at relative tolerance tol: tol * (1 + |value|)."""
    return tol * (1.0 + abs(value))


# --- transport ----------------------------------------------------------------

OPT_TOL = 1e-11
"""Optimality tolerance on network-simplex reduced costs, relative to the largest |cost|.

``transport`` stops once no reduced cost is below -OPT_TOL * largest |cost|,
with no floor, so scaling a cost by a power of two scales the tolerance with
it and the pivots stay the same at every scale.  An all-zero cost has
tolerance 0, and every plan is optimal for it.
"""

MAX_PIVOTS_PER_NODE = 200
"""Network-simplex pivots allowed per row and column node before the dense LP fallback."""

MAX_PIVOTS_BASE = 2000
"""Pivots allowed on top of MAX_PIVOTS_PER_NODE * (m + n) on an m x n problem."""

BLAND_AFTER_PER_NODE = 10
"""Degenerate pivots in a row, per node, after which Bland's rule picks the entering cell."""

BLAND_AFTER_BASE = 50
"""Degenerate pivots added to BLAND_AFTER_PER_NODE * (m + n) before Bland's rule takes over."""

NEG_FLOW_TOL = 1e-14
"""A warm-started transport tree takes dual pivots while a flow is below -NEG_FLOW_TOL.

Absolute, in units of mass: the marginals are probability weights.  It sits
above the rounding of the flows recomputed from the marginals, so a zero
flow that rounds to -1e-17 takes no pivot, and the returned plan keeps it.
"""

MAX_DUAL_PIVOTS_PER_NODE = 1
"""Dual pivots allowed per row and column node before a warm start gives up for the cold start."""

NW_SLACK_ULPS = 4
"""Rounding slack of the north-west corner's fiber-LP certificate, in ulps of K * max|c_k|.

The certificate of a fiber LP with K >= 3 inputs is exact up to the rounding
of its potentials and c-transforms, so this bound stays at that level; a plan
it does not prove optimal goes to HiGHS instead.
"""

MARGINAL_TOL = 1e-9
"""Largest marginal residual a transport plan may carry before it is rejected."""

MAP_TOL = 1e-7
"""An atom counts toward a deterministic map when it holds more than this share of its row."""

# --- measures and costs -------------------------------------------------------

MASS_TOL = 1e-12
"""Weight difference under which two measures or two base weightings count as equal."""

TRIANGLE_TOL = 1e-9
"""Slack above which a ground cost is reported as breaking the triangle inequality."""

# --- dual certificates --------------------------------------------------------

SUM_TOL = 1e-9
"""Largest allowed |sum_k zeta_k * xi_k| at a support point of a valid certificate."""

NORM_TOL = 1e-12
"""Largest allowed excess of a certificate's zeta norm over 1."""

ZETA_FLOOR = 1e-12
"""Floor applied to zeta before normalization, which keeps it strictly positive."""

# --- uniqueness probe and the built-in examples ------------------------------

PROBE_EXACT_VALUE_TOL = 1e-9
"""Relative objective slack within which the probe keeps a minimizer at q = p and q = inf (LPs)."""

PROBE_VALUE_TOL = 2e-3
"""Relative objective slack within which the probe keeps a minimizer at p < q < inf."""

PROBE_DIST_TOL = 1e-4
"""Distance between kept minimizers above which the probe reports nonuniqueness."""

PROBE_RADIUS = 1e-6
"""Default size of the probe's random objective tilts."""

EXAMPLE_PROBE_RADIUS = 1e-9
"""Tilt size of the probe in the two-interval example (2.2)."""

EQUAL_VALUE_TOL = 1e-6
"""Objective difference under which the shared-fiber example (2.1) calls two values equal."""

DISTINCT_DISTANCE = 0.1
"""Distance above which the shared-fiber example (2.1) calls two minimizers distinct."""
