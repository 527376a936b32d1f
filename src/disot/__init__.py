"""Exact discrete optimal transport on fibered spaces.

Distances between discrete measures, the disintegrated (p, q) metric between
fibered measures, classical and disintegrated barycenters on fixed supports,
and dual certificates that verify barycenter optimality.
"""

__version__ = "0.1.0"

import os
import sys

# disot makes no threaded BLAS call, yet an idle OpenBLAS pool burns CPU:
# start numpy's and scipy's with one thread unless the user chose a count
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .barycenter import (
    BarycenterProblem,
    BarycenterResult,
    ProbeReport,
    classical_barycenter,
    classical_problem,
    disint_barycenter,
    make_problem,
    objective,
    project_simplex,
    uniqueness_probe,
)
from .duality import (
    DualCertificate,
    GapReport,
    duality_gap,
    eval_dual,
    validate_certificate,
)
from .errors import (
    AllZeroMass,
    BaseMismatch,
    DegenerateInput,
    DisotError,
    EmptySupport,
    FiberMismatch,
    IndexOutOfRange,
    InvalidGroundCost,
    LPInfeasible,
    NegativeWeight,
    ParseError,
    ShapeMismatch,
    SupportOutOfRange,
    SupportViolation,
    TooLarge,
)
from .measures import (
    DiscreteMeasure,
    FiberedMeasure,
    GroundCost,
    ValidationReport,
    dirac,
    validate_ground_cost,
)
from .metric import (
    DisintConfig,
    fiber_distance_profile,
    scrmk,
)
from .ot import (
    Coupling,
    OTResult,
    brute_force_ot,
    c_transform,
    coupling_is_deterministic,
    solve_ot,
    transport,
)
