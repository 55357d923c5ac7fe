"""Differential-geometric toolkit for frontal curves.

Computes rotation-minimizing (Bishop) frame transports, the adapted
frame of a curve's tangent developable and its invariants, ruled maps
(tangent, normal, canal, parallels) with numeric singular-locus
annotation, and the edge-of-regression construction with its
right-equivalence verification.
"""

from .config import CurveConfig, GridSpec, load_config, parse_config
from .corpus import CORPUS, CORPUS_IDS, CorpusEntry, Expected, get_curve, get_entry
from .curves import CallableCurve, Curve, ExprCurve
from .errors import (
    ConfigError,
    FrontalsError,
    GridTooCoarseError,
    InflectionError,
    MathPreconditionError,
    TangentUndeterminedError,
)
from .expressions import (
    EvalDomainError,
    ParseError,
    eval_jet,
    parse,
    to_source,
)
from .frames import (
    AdaptedFrame,
    BishopInvariants,
    GridRecord,
    InvariantProfile,
    ParallelFields,
    adapted_frame,
    bishop_invariants,
    bishop_transport,
    grid_record,
    invariants,
    structure_residuals_adapted,
    structure_residuals_bishop,
    surface_normal_transport,
    tangent_surface_unit_normal,
)
from .frontal import (
    TangentEvaluator,
    TangentField,
    WronskianReport,
    contact_orders,
    unit_tangent,
    wronskian_matrix,
)
from .jets import (
    Jet,
    JetDomainError,
    constant,
    derivative,
    jet_div,
    jet_elem,
    jet_mul,
    jet_pow,
    variable,
)
from .surfaces import (
    Directrix,
    NormalCurvatureField,
    NormalFlatnessReport,
    RightEquivalenceReport,
    SurfaceGrid,
    SymplecticReport,
    canal_surface,
    directrix,
    directrix_tangent_map,
    normal_curvature_r4,
    normal_flatness_residual,
    normal_map,
    parallel_of_tangent,
    symplectic_pullback_check,
    tangent_map,
    verify_right_equivalence,
)

__version__ = "0.1.0"
