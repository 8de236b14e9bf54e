"""Row-stochastic matrix helpers: validation, irreducibility, the
stationary type proportions, file format."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import NoConvergence, NotIrreducible, NotStochastic, ValidationError

ROW_SUM_TOL = 1e-12
# entries at or below this are treated as structural zeros when testing
# strong connectivity
STRUCTURAL_ZERO = 1e-15


def as_row_stochastic(values, *, what: str = "matrix") -> np.ndarray:
    """Coerce to a square float array and check that no entry is negative
    and each row sums to one within ROW_SUM_TOL.

    Raises NotStochastic naming the offending row (1-based); a NaN entry
    is outside [0, 1] too. A negative entry, however small, would make its
    row CDF decrease (see `row_cdfs`).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotStochastic(f"{what} must be square, got shape {arr.shape}")
    if not np.all((arr >= 0.0) & (arr <= 1.0 + ROW_SUM_TOL)):
        raise NotStochastic(f"{what} has entries outside [0, 1]")
    for i, s in enumerate(arr.sum(axis=1).tolist()):
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise NotStochastic(f"{what} row {i + 1} sums to {s}, not 1")
    return arr


def parse_matrix(text: str, n: int, *, what: str = "matrix") -> np.ndarray:
    """Parse an n x n matrix: a row-major comma list, or ``symmetric:p``.

    The shorthand expands to p on the diagonal and (1-p)/(n-1) elsewhere;
    with one type it is [[p]], which is stochastic only for p = 1. Only the
    shape is checked here, not stochasticity.
    """
    text = text.strip()
    if text.startswith("symmetric:"):
        try:
            diag = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"{what}: bad symmetric shorthand") from exc
        if not 0.0 <= diag <= 1.0:
            raise ValidationError(f"{what}: diagonal {diag} outside [0, 1]")
        if n == 1:
            return np.array([[diag]])
        off = (1.0 - diag) / (n - 1)
        return np.full((n, n), off) + np.eye(n) * (diag - off)
    try:
        entries = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from exc
    if len(entries) != n * n:
        raise ValidationError(
            f"{what}: expected {n * n} entries, got {len(entries)}")
    return np.array(entries, dtype=float).reshape(n, n)


def require_irreducible(matrix: np.ndarray, *, what: str = "matrix") -> None:
    """Raise NotIrreducible unless the digraph with arcs where entries
    exceed STRUCTURAL_ZERO is strongly connected.

    Each boolean squaring of the reflexive arc relation doubles the path
    length it covers, so n.bit_length() squarings close it; the digraph is
    strongly connected exactly when the closure has no False entry.
    """
    reach = np.asarray(matrix, dtype=float) > STRUCTURAL_ZERO
    reach |= np.eye(len(reach), dtype=bool)
    for _ in range(len(reach).bit_length()):
        reach = reach @ reach
    if not reach.all():
        raise NotIrreducible(f"{what} is not irreducible")


def stationary_type_distribution(type_flip_matrix) -> np.ndarray:
    """Asymptotic edge-type proportions psi, with psi @ F = psi and sum 1.

    For an irreducible row-stochastic F this is the unique stationary
    probability vector of the type-flip chain, i.e. the simplex-normalized
    left Perron eigenvector. One dense linear solve finds it, periodic
    chains included: psi (F - I) = 0 with one equation replaced by sum 1.

    Raises NotStochastic, NotIrreducible, or NoConvergence.
    """
    flip = as_row_stochastic(type_flip_matrix, what="F")
    require_irreducible(flip, what="F")
    n = flip.shape[0]
    if np.any((flip == 0.0) | (flip == 1.0)) and n > 1:
        warnings.warn(
            "F has boundary entries (exactly 0 or 1); the proportion limit "
            "was established for entries strictly inside (0, 1)",
            stacklevel=2)
    system = flip.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        psi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"direct solve failed: {exc}") from exc
    psi = np.maximum(psi, 0.0)
    psi /= psi.sum()
    residual = float(np.max(np.abs(psi @ flip - psi)))
    if residual > 1e-12:
        raise NoConvergence(f"stationary residual {residual:.3e} exceeds 1e-12")
    return psi


def read_matrix(path) -> np.ndarray:
    """Read the plain-text matrix format: first token N, then N*N reals, row-major."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    if not tokens:
        raise ValidationError(f"matrix file {path} is empty")
    try:
        n = int(tokens[0])
        entries = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ValidationError(f"matrix file {path}: {exc}") from exc
    if n < 1 or len(entries) != n * n:
        raise ValidationError(
            f"matrix file {path}: expected {n}*{n} entries, got {len(entries)}")
    return np.array(entries, dtype=float).reshape(n, n)


def row_cdfs(stack) -> np.ndarray:
    """Per-row cumulative sums of a stack of matrices, shape (..., N, N),
    the last entry of each row forced to 1.0.

    This is the flip law of both models: a uniform u takes the row's index
    `bisect_right(row, u)`, the number of entries at or below u, which the
    last entry never is. That needs a non-decreasing row, so no entry of
    the matrix may be negative; forcing the last entry absorbs row-sum
    rounding within ROW_SUM_TOL.
    """
    cdf = np.cumsum(np.asarray(stack, dtype=float), axis=-1)
    cdf[..., -1] = 1.0
    return cdf
