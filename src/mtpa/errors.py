"""Exception types raised across the package."""


class MtpaError(Exception):
    """Base class for all mtpa errors."""


# -- graph construction and sampling ----------------------------------------

class EmptyGraph(MtpaError):
    """Seed graph has no vertices."""


class MissingType(MtpaError):
    """Some edge type has no representative in the seed graph."""

    def __init__(self, type_label: int):
        self.type_label = type_label  # 1-based, as in seed files
        super().__init__(f"seed graph has no edge of type {type_label}")


class LoopEdge(MtpaError):
    """An edge joins a vertex to itself."""


class EmptyPool(MtpaError):
    """Degree-proportional sampling attempted on a graph with no edges."""


class BrokenGraph(MtpaError):
    """A run's snapshot tallies do not add up to the graph it grew: the
    tallied slots stop short of the pool's end, or the type counts or the
    degree table do not sum to its edges and slots."""


# -- urn ---------------------------------------------------------------------

class EmptyUrn(MtpaError):
    """Initial composition has no balls."""


class NegativeCount(MtpaError):
    """A ball count is negative."""


class BrokenUrn(MtpaError):
    """A run's composition breaks ball conservation or has a negative count."""


# -- deterministic numerics ---------------------------------------------------

class NotStochastic(MtpaError):
    """Matrix rows do not sum to one (or entries are out of range)."""


class NotIrreducible(MtpaError):
    """The positive-entry digraph of the matrix is not strongly connected."""


class NoConvergence(MtpaError):
    """A numerical result failed its check: the direct solve for the
    stationary type distribution or its residual, or a lattice layer's sum
    against the single-type marginal."""


class CapacityExceeded(MtpaError):
    """Requested degree lattice is larger than the configured cap."""


class BadPsi(MtpaError):
    """Type-proportion vector is not a probability vector."""


class BadCounts(MtpaError):
    """Dirichlet parameters must be positive integers."""


class BadArgs(MtpaError):
    """Numeric arguments violate an operation's preconditions."""


class BadIndexMatrix(MtpaError):
    """Edge-assignment matrix is inconsistent with the step size."""


# -- harness and CLI ----------------------------------------------------------

class BadQuantity(MtpaError):
    """Unknown diagnostic quantity."""


class ParseError(MtpaError):
    """Configuration or data file could not be parsed."""


class ValidationError(MtpaError):
    """Configuration value failed validation."""
