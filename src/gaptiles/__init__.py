"""Constructive tilings of integer intervals by permuted-gap translates of a tile.

Given a gap multiset whose distances grow fast enough (and whose smallest and
largest multiplicities carry enough budget), the pipeline builds an explicit
tiling of a finite interval, verifies every stage's output, and reports the
per-stage distance thresholds. An independent exact-cover oracle provides
ground truth at small scale.

The public names below, and the submodules themselves (gaptiles.grid, say),
are imported on first use (PEP 562), so importing one module, such as
gaptiles.serialize to read and gaptiles.verify to check a tiling file, does
not load the pipeline, the grid transforms or the oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "conditions": ("ConditionResult", "check_sufficient_conditions"),
    "pipeline": (
        "ConstructResult",
        "StageState",
        "ThresholdReport",
        "ThresholdRow",
        "auto_split",
        "boundary_base",
        "boundary_step",
        "construct",
        "final_stage",
        "homogeneous_base",
        "homogeneous_step",
        "represent_two_coins",
        "thresholds",
    ),
    "errors": (
        "CardinalityViolation",
        "ConstructionError",
        "GrowthViolation",
        "MultiplicityViolation",
        "NoFeasibleSplit",
        "NoRepresentation",
        "PreconditionError",
        "SearchExhausted",
        "TilingError",
        "VerificationFailed",
    ),
    "grid": (
        "HeightTable",
        "concat_columns",
        "diagonal_stripe_tiling",
        "flatten",
        "lift_over_points",
        "min_height_rect",
        "residue_interleave",
        "stack_to_height",
        "stair_tiling",
    ),
    "oracle": (
        "SearchConfig",
        "SearchOutcome",
        "SearchStatus",
        "min_interval",
        "solve_interval",
        "solve_rectangle",
    ),
    "types": (
        "GapSet",
        "IntervalTiling",
        "LatticePath",
        "Paths",
        "RectangleTiling",
        "SplitSpec",
        "Tile",
        "Tiles",
        "TilingAnnotations",
        "VerificationReport",
        "Violation",
    ),
    "verify": (
        "verify_boundary_prefix",
        "verify_homogeneous",
        "verify_interval_tiling",
        "verify_rectangle_tiling",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_MODULE_OF, *_EXPORTS})


def __getattr__(name: str):
    """A public name, imported from its module and kept here on first use;
    any other name is looked for as a submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
