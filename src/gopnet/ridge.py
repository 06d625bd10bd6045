"""Closed-form ridge / pseudoinverse solves for the linear output layer.

The primal form (H'H + cI)^-1 H'Y is used when d < N and the dual form
H'(HH' + cI)^-1 Y when d >= N, so the inverted Gram matrix is always the
smaller one.  c = 0 falls back to an SVD solve that raises SingularSystem
on numerically rank-deficient systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, SingularSystem

# Relative singular-value cutoff for unregularized solves.
RANK_TOL = 1e-10


class Metric(Enum):
    MSE = "mse"
    ACCURACY = "accuracy"

    def better(self, score: float, incumbent: float) -> bool:
        """Whether score beats incumbent: loss shrinks, accuracy grows."""
        if self is Metric.MSE:
            return score < incumbent
        return score > incumbent


def solve_ridge(H: np.ndarray, Y: np.ndarray, c: float = 0.0) -> np.ndarray:
    """Ridge solution B [d, C] minimizing ||H B - Y||^2 + c ||B||^2."""
    return _ridge_solver(H, Y)(c)


def _ridge_solver(H: np.ndarray, Y: np.ndarray):
    """Validate (H, Y) once and return c -> solve_ridge(H, Y, c).

    The Gram matrix and H'Y of the primal form (HH' of the dual one) are
    formed on the first c > 0 and shared by every later c, so each solve has
    the bits of a solve_ridge call of its own.
    """
    H = np.ascontiguousarray(H, dtype=float)
    Y = np.ascontiguousarray(Y, dtype=float)
    if H.ndim != 2 or Y.ndim != 2:
        raise DimensionMismatch("H and Y must be 2-D")
    if H.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"H has {H.shape[0]} rows, Y has {Y.shape[0]}")
    if H.shape[0] < 1 or H.shape[1] < 1 or Y.shape[1] < 1:
        raise DimensionMismatch("H and Y need at least one row and column")
    if not (np.isfinite(H).all() and np.isfinite(Y).all()):
        raise ValueError("H and Y must be finite")
    n, d = H.shape
    primal = d < n
    gram = rhs = None

    def solve(c: float) -> np.ndarray:
        nonlocal gram, rhs
        if c < 0:
            raise ValueError("ridge coefficient must be non-negative")
        if c == 0.0:
            return _pinv_solve(H, Y)
        if gram is None:
            gram, rhs = (H.T @ H, H.T @ Y) if primal else (H @ H.T, Y)
        B = np.linalg.solve(gram + c * np.eye(len(gram)), rhs)
        return B if primal else H.T @ B

    return solve


def _pinv_solve(H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(H, full_matrices=False)
    cutoff = RANK_TOL * s.max() if s.size else 0.0
    if s.size == 0 or s.max() == 0.0 or (s <= cutoff).any():
        raise SingularSystem(
            "system is numerically rank-deficient with c = 0; use c > 0")
    return (vt.T / s) @ (u.T @ Y)


def solve_augmented(H_existing, H_new: np.ndarray, Y: np.ndarray,
                    c: float = 0.0) -> np.ndarray:
    """Ridge solve on the column concatenation [H_existing, H_new].

    H_existing may be None or have zero columns, in which case this equals
    solve_ridge(H_new, Y, c) exactly.
    """
    H_new = np.asarray(H_new, dtype=float)
    if H_existing is None or H_existing.shape[1] == 0:
        stacked = H_new
    else:
        H_existing = np.asarray(H_existing, dtype=float)
        if H_existing.shape[0] != H_new.shape[0]:
            raise DimensionMismatch(
                f"row counts differ: {H_existing.shape[0]} vs {H_new.shape[0]}")
        stacked = np.hstack([H_existing, H_new])
    return solve_ridge(stacked, Y, c)


@dataclass
class CandidateResult:
    score: float
    best_c: float
    B: np.ndarray


def _score(P: np.ndarray, Y: np.ndarray, metric: Metric) -> float:
    if metric is Metric.MSE:
        return float(np.mean((P - Y) ** 2))
    return float(np.mean(P.argmax(axis=1) == Y.argmax(axis=1)))


def _better(score, c, best: CandidateResult | None, metric: Metric) -> bool:
    if best is None:
        return True
    return metric.better(score, best.score) or (
        score == best.score and c > best.best_c)


def evaluate_candidate(H: np.ndarray, Y: np.ndarray, c_grid,
                       metric: Metric = Metric.MSE,
                       H_val: np.ndarray | None = None,
                       Y_val: np.ndarray | None = None) -> CandidateResult:
    """Fit B on (H, Y) for each c in the grid and score the best.

    Scores on the validation pair when given, otherwise on the training
    pair.  Ties on score go to the larger c.  A SingularSystem from a grid
    value is propagated only when every value fails.
    """
    if H_val is None:
        H_score, Y_score = H, Y
    else:
        H_score, Y_score = H_val, Y_val
    solve = _ridge_solver(H, Y)
    best: CandidateResult | None = None
    last_error: Exception | None = None
    for c in c_grid:
        try:
            B = solve(c)
        except SingularSystem as exc:
            last_error = exc
            continue
        if not np.isfinite(B).all():
            last_error = SingularSystem(f"non-finite solution at c = {c}")
            continue
        score = _score(H_score @ B, Y_score, metric)
        if not np.isfinite(score):
            last_error = SingularSystem(f"non-finite score at c = {c}")
            continue
        if _better(score, c, best, metric):
            best = CandidateResult(score, float(c), B)
    if best is None:
        raise last_error if last_error is not None else SingularSystem(
            "empty ridge coefficient grid")
    return best
