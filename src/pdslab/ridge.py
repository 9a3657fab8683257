"""Ridge solves against Lambda = reg*I + sum_tau phi_tau phi_tau^T, shared by
PEVI, the reward fit and the ensemble members. phi depends only on (s, a),
so each caller sums over pairs instead of rows, sum_(s,a) n(s,a) phi phi^T
with n the visit counts (FeatureMap.gram). The PEVI bonus and the PDS
reward penalty are one ellipsoid width sqrt(phi^T Lambda^{-1} phi) at two
scales.

With Lambda = U^T U, U the upper Cholesky factor, Lambda^{-1} rhs is two
triangular solves and each width is the norm of one, ||U^{-T} phi||. numpy
alone does both, which keeps scipy out of the package's imports.
"""
from __future__ import annotations

import numpy as np


class Ridge:
    """A symmetric positive-definite Lambda with its upper Cholesky factor."""

    def __init__(self, matrix):
        lam = np.asarray(matrix, dtype=float)
        self.matrix = 0.5 * (lam + lam.T)
        self._upper = np.linalg.cholesky(self.matrix, upper=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Lambda^{-1} rhs for a (d,) or (d, m) rhs."""
        return np.linalg.solve(self._upper, np.linalg.solve(self._upper.T, rhs))

    def widths(self, rows: np.ndarray) -> np.ndarray:
        """sqrt(phi^T Lambda^{-1} phi) per row: the column norms of U^{-T} rows^T."""
        return np.linalg.norm(np.linalg.solve(self._upper.T, rows.T), axis=0)
