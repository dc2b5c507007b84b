import numpy as np
import pytest

from pbident.smallmat import (adjugate, determinant, dot, ieee_div, ieee_pow,
                              min_eig_symmetric, symmetric_eigen)


def test_determinant_examples():
    assert determinant(np.diag([2.0, 3.0])) == 6.0
    assert determinant(np.eye(3)) == 1.0
    assert determinant([[1.0, 2.0], [3.0, 4.0]]) == -2.0


def test_determinant_identity_all_dims():
    for n in range(1, 9):
        assert determinant(np.eye(n)) == 1.0


def test_determinant_matches_numpy_larger_dims():
    rng = np.random.default_rng(5)
    for n in (4, 5, 6, 7, 8):
        for _ in range(20):
            m = rng.uniform(-1, 1, (n, n))
            ref = np.linalg.det(m)
            assert determinant(m) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_adjugate_examples():
    assert np.array_equal(adjugate(np.eye(3)), np.eye(3))
    a, b, c, d = 2.0, -3.0, 5.0, 7.0
    assert np.array_equal(adjugate([[a, b], [c, d]]),
                          [[d, -b], [-c, a]])
    assert np.allclose(adjugate(np.diag([2.0, 3.0, 4.0])),
                       np.diag([12.0, 8.0, 6.0]))
    # 1x1 convention: adj(M) M = det(M) I forces adj = [[1]]
    assert np.array_equal(adjugate([[7.0]]), [[1.0]])


def test_adjugate_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (n, n))
        lhs = adjugate(m) @ m
        scale = max(1.0, float(np.max(np.abs(m))) ** n)
        assert np.max(np.abs(lhs - determinant(m) * np.eye(n))) <= 1e-9 * scale


def test_adjugate_singular_matrix():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    assert determinant(m) == 0.0
    assert np.allclose(adjugate(m) @ m, np.zeros((2, 2)), atol=1e-14)


def test_adjugate_agrees_with_det_times_inverse():
    rng = np.random.default_rng(1)
    count = 0
    while count < 200:
        n = int(rng.integers(1, 7))
        m = rng.uniform(-1, 1, (n, n))
        d = determinant(m)
        if abs(d) <= 1e-6:
            continue
        count += 1
        ref = d * np.linalg.solve(m, np.eye(n))
        assert np.max(np.abs(adjugate(m) - ref)) <= 1e-8 * max(1.0, abs(d))


def test_min_eig_examples():
    assert min_eig_symmetric(np.diag([1.0, 5.0])) == pytest.approx(1.0, abs=1e-12)
    assert min_eig_symmetric(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-15)
    assert min_eig_symmetric([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, abs=1e-12)


def test_min_eig_recovers_constructed_spectrum():
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        for _ in range(20):
            lam = np.sort(rng.uniform(-2, 2, n))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = q @ np.diag(lam) @ q.T
            assert min_eig_symmetric(m) == pytest.approx(lam[0], abs=1e-9)


def test_symmetric_eigen_reconstructs():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        w, v = symmetric_eigen(m)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) <= 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        assert np.all(np.diff(w) >= 0)


def test_min_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        min_eig_symmetric([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        min_eig_symmetric([[np.inf, 0.0], [0.0, 1.0]])


def test_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        adjugate(np.zeros(3))


def test_dot_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so left-to-right addition gives 0.0;
    # compensated summation (the builtin sum() from Python 3.12) gives 1.0
    assert dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
    # right-to-left addition would keep the 1.0 here
    assert dot([1.0, 1e16, -1e16], [1.0, 1.0, 1.0]) == 0.0
    assert dot([2.0, 3.0], [0.5, 4.0]) == 13.0
    assert dot([], []) == 0.0


def test_ieee_helpers_give_numpy_values_instead_of_raising():
    assert ieee_div(1.0, 0.0) == np.inf and ieee_div(-1.0, 0.0) == -np.inf
    assert np.isnan(ieee_div(0.0, 0.0))
    assert ieee_div(3.0, 4.0) == 0.75
    assert ieee_pow(1e200, 2.0) == np.inf
    assert ieee_pow(0.0, -1.0) == np.inf
    assert np.isnan(ieee_pow(-2.0, 0.5))
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.01, 10.0, 1000):
        assert ieee_pow(float(x), 2.0) == np.float64(x) ** 2
        assert ieee_pow(float(x), 1.7) == np.float64(x) ** 1.7


def test_closed_forms_take_nested_lists():
    m = [[2.0, -1.0, 0.5], [0.25, 3.0, 1.0], [1.5, 0.0, -2.0]]
    assert determinant(m) == determinant(np.array(m))
    adj = adjugate(m)
    assert isinstance(adj, list)
    assert np.array_equal(adj, adjugate(np.array(m)))
    with pytest.raises(ValueError):
        determinant([[1.0, 2.0], [3.0]])
