"""Exception types raised across the package, one per kind of fault.

A rejected input is the caller's fault: `ValidationError`, or one of F's
two failures below it. A failed numeric check and a broken run invariant
are the program's. The CLI exits 2 on every one of them.
"""


class MtpaError(Exception):
    """Base class for all mtpa errors."""


class ValidationError(MtpaError):
    """An input was rejected: a value, a file, an argument or a lattice
    size. The caller's fault."""


class NotStochastic(ValidationError):
    """Matrix rows do not sum to one (or entries are out of range)."""


class NotIrreducible(ValidationError):
    """The positive-entry digraph of the matrix is not strongly connected."""


class NoConvergence(MtpaError):
    """A numerical result failed its check: the direct solve for the
    stationary type distribution or its residual, or a lattice layer's sum
    against the single-type marginal."""


class BrokenRun(MtpaError):
    """A run broke an invariant the program keeps: a graph's snapshot
    tallies do not add up to the graph it grew, or an urn's composition
    breaks ball conservation or has a negative count. A program fault."""
