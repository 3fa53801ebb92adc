"""Exception types shared across the package."""


class BergmanlabError(ValueError):
    """Base of the package's own errors: an input or a configuration that
    the laboratory rejects, as opposed to a fault in the laboratory."""


class InvalidMeasureError(BergmanlabError):
    """A measure is malformed: nonpositive mass, bad shapes, or a node-count
    mismatch between tabulated data and the node set."""


class UnsupportedWeightError(BergmanlabError):
    """An operation needs a closed-form weight (off-node evaluation or an
    analytic Laplacian) but the weight is tabulated-only."""


class InvalidConfigurationError(BergmanlabError):
    """A run is configured inconsistently, e.g. a span degree that the
    quadrature rule cannot integrate."""


class InvalidScenarioError(BergmanlabError):
    """A scenario file or dict failed to parse or validate."""
