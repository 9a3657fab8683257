"""The numpy ridge core against dense solves of Lambda."""
import numpy as np
import pytest

from pdslab.ridge import Ridge

DIMS = (1, 2, 8, 24)


def _lambda_and_rows(d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3 * d + 5, d))
    return 0.5 * np.eye(d) + rows.T @ rows, rows


def _assert_close(got, want):
    """Within 1e-12 of want's largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("d", DIMS)
def test_solve_equals_dense_solve(d):
    lam, rows = _lambda_and_rows(d, seed=d)
    ridge = Ridge(lam)
    rng = np.random.default_rng(100 + d)
    for rhs in (rng.standard_normal(d), rng.standard_normal((d, 5)), rows.T):
        _assert_close(ridge.solve(rhs), np.linalg.solve(lam, rhs))


@pytest.mark.parametrize("d", DIMS)
def test_widths_equal_dense_quadratic_form(d):
    lam, rows = _lambda_and_rows(d, seed=d)
    want = np.sqrt(np.diag(rows @ np.linalg.solve(lam, rows.T)))
    _assert_close(Ridge(lam).widths(rows), want)
    _assert_close(Ridge(0.5 * np.eye(d) + rows.T @ rows).widths(rows), want)


@pytest.mark.parametrize("matrix", [
    [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3 and -1
    [[-1.0]],
    np.diag([1.0, 0.0, 2.0]),  # singular
])
def test_indefinite_matrix_raises(matrix):
    with pytest.raises(np.linalg.LinAlgError):
        Ridge(matrix)
