"""Exception types shared across the package."""


class TilingError(Exception):
    """Base class for all failures raised by this package."""


class PreconditionError(TilingError, ValueError):
    """An argument violates a documented precondition (range, shape, mismatch)."""


class GrowthViolation(TilingError):
    """A distance is below the lower bound required by the current stage."""

    def __init__(self, stage: str, required: int, achieved: int):
        super().__init__(
            f"{stage}: requires distance >= {required}, got {achieved}"
        )
        self.stage = stage
        self.required = required
        self.achieved = achieved


class MultiplicityViolation(TilingError):
    """A multiplicity inequality fails (stage budget or global hypothesis)."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


class CardinalityViolation(TilingError):
    """A sequence cardinality falls outside the range a stage can consume."""


class NoRepresentation(TilingError):
    """No two-coin representation exists under the requested sign constraint."""


class SearchExhausted(TilingError):
    """Search hit its configured bound without producing a required result."""


class NoFeasibleSplit(TilingError):
    """No (s, p) split of the gap set satisfies the multiplicity inequalities."""


class ConstructionError(TilingError):
    """Internal invariant broke: a constructed object failed its own verifier."""


class VerificationFailed(ConstructionError):
    """A stage's output failed the check that certifies it."""
