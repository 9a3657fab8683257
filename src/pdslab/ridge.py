"""Ridge solves against Lambda = reg*I + sum_tau phi_tau phi_tau^T, shared by
PEVI, the reward fit and the ensemble members. phi depends only on (s, a),
so each caller sums over pairs instead of rows, sum_(s,a) n(s,a) phi phi^T
with n the visit counts (FeatureMap.gram). The PEVI bonus and the PDS
reward penalty are one ellipsoid width sqrt(phi^T Lambda^{-1} phi) at two
scales.

With Lambda = U^T U, U the upper Cholesky factor, Lambda^{-1} rhs is two
triangular solves and each width is the norm of one, ||U^{-T} phi||. numpy
alone does both, which keeps scipy out of the package's imports.

A Ridge holds one d x d Lambda or a (K, d, d) stack of them. numpy's linalg
calls repeat the one-matrix LAPACK call per slice, so each slice of a
stack gets the bits it gets alone.
"""
from __future__ import annotations

import numpy as np


class Ridge:
    """A symmetric positive-definite Lambda, or a stack of them, with its
    upper Cholesky factor."""

    def __init__(self, matrix):
        lam = np.asarray(matrix, dtype=float)
        self.matrix = 0.5 * (lam + np.swapaxes(lam, -1, -2))
        self._upper = np.linalg.cholesky(self.matrix, upper=True)

    @classmethod
    def stack(cls, ridges) -> "Ridge":
        """The (K, d, d) stack of K one-matrix ridges of one d, their factors
        reused."""
        stacked = cls.__new__(cls)
        stacked.matrix = np.stack([r.matrix for r in ridges])
        stacked._upper = np.stack([r._upper for r in ridges])
        return stacked

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Lambda^{-1} rhs for a (d,) or (d, m) rhs, or per slice for a
        (K, d, m) rhs of a stack."""
        return np.linalg.solve(self._upper,
                               np.linalg.solve(np.swapaxes(self._upper, -1, -2), rhs))

    def widths(self, rows: np.ndarray) -> np.ndarray:
        """sqrt(phi^T Lambda^{-1} phi) per row, (n,), or (K, n) for a stack:
        the column norms of U^{-T} rows^T."""
        return np.linalg.norm(np.linalg.solve(np.swapaxes(self._upper, -1, -2), rows.T),
                              axis=-2)
