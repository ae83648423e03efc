"""Constructive tilings of integer intervals by permuted-gap translates of a tile.

Given a gap multiset whose distances grow fast enough (and whose smallest and
largest multiplicities carry enough budget), the pipeline builds an explicit
tiling of a finite interval, verifies every stage's output, and reports the
per-stage distance thresholds. An independent exact-cover oracle provides
ground truth at small scale.
"""

from .conditions import ConditionResult, check_sufficient_conditions
from .pipeline import (
    BaseDecomposition,
    ConstructResult,
    StageState,
    ThresholdReport,
    ThresholdRow,
    auto_split,
    base_decomposition,
    boundary_base,
    boundary_step,
    construct,
    final_stage,
    homogeneous_base,
    homogeneous_step,
    represent_two_coins,
    thresholds,
)
from .errors import (
    CardinalityViolation,
    ConstructionError,
    GrowthViolation,
    MultiplicityViolation,
    NoFeasibleSplit,
    NoRepresentation,
    PreconditionError,
    SearchExhausted,
    TilingError,
    VerificationFailed,
)
from .grid import (
    HeightTable,
    RaggedTiling,
    as_rectangle,
    concat_columns,
    diagonal_stripe_tiling,
    dilate_x,
    flatten,
    lift_over_points,
    merge_ragged,
    min_height_rect,
    residue_interleave,
    stack_to_height,
    stair_tiling,
)
from .oracle import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    min_interval,
    multiset_permutations,
    solve_interval,
    solve_rectangle,
)
from .types import (
    GapSet,
    IntervalTiling,
    LatticePath,
    Paths,
    RectangleTiling,
    SplitSpec,
    Tile,
    Tiles,
    TilingAnnotations,
    VerificationReport,
    Violation,
)
from .verify import (
    verify_boundary_prefix,
    verify_homogeneous,
    verify_interval_tiling,
    verify_rectangle_tiling,
)

__version__ = "0.1.0"
