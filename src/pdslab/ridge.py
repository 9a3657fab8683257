"""Ridge solves against Lambda = reg*I + sum_tau phi_tau phi_tau^T, shared by
PEVI, the reward fit and the ensemble members. The PEVI bonus and the PDS
reward penalty are one ellipsoid width sqrt(phi^T Lambda^{-1} phi) at two scales.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


class Ridge:
    """A symmetric positive-definite Lambda with its Cholesky factor."""

    def __init__(self, matrix):
        lam = np.asarray(matrix, dtype=float)
        self.matrix = 0.5 * (lam + lam.T)
        self._chol = scipy.linalg.cho_factor(self.matrix)

    @classmethod
    def from_rows(cls, rows: np.ndarray, reg: float) -> "Ridge":
        """reg * I + rows^T rows for an (N, d) row matrix."""
        return cls(reg * np.eye(rows.shape[1]) + rows.T @ rows)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Lambda^{-1} rhs."""
        return scipy.linalg.cho_solve(self._chol, rhs)

    def widths(self, rows: np.ndarray) -> np.ndarray:
        """sqrt(phi^T Lambda^{-1} phi) per row, the form clipped at 0 against rounding."""
        quad = np.einsum("nd,nd->n", rows, self.solve(rows.T).T)
        return np.sqrt(np.clip(quad, 0.0, None))
