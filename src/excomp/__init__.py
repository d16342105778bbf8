"""Comparison geometry of rotationally symmetric model spaces, with
discrete verification of the comparison inequalities on triangulated
minimal surfaces in Euclidean 3-space."""

import os

# Before numpy or scipy loads OpenBLAS: no computation here is threaded, so
# idle OpenBLAS workers park at once (the value clamps to the 2^4-cycle
# minimum) instead of spinning for the default 2^28 cycles.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .errors import (CoverageError, DomainError, EvalDomainError, ExcompError,
                     MeshFormatError, NonManifoldError, ParseError, QuadratureError,
                     SolveError, TruncationContactError)
from .modelspace import ModelSpace, QuadratureConfig, WarpingSpec
from .surfaces import ParamSurface, TriMesh, builtin, load_mesh, minimality_residual, tessellate
from .dgeom import (ClippedRegion, SparseSPDSystem, assemble_laplacian, capacity_discrete,
                    clip, elimination_tree, end_components, exit_time_discrete,
                    first_eigenvalue_estimates, solve_dirichlet)
from .harness import (Check, EndsReport, QuotientCurve, Study, ToneReport, VerificationReport,
                      comparison_gates, ends_bound, exit_time_comparison, gate_verdicts,
                      quotient_curves, tone_report, verify_capacity_sandwich,
                      verify_euclidean_sandwich, verify_isoperimetric, volume_flux_tail)
from . import wexpr

__version__ = "0.1.0"
