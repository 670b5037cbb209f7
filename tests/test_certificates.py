import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contcount.certificates import (
    DualCertificate,
    _feasibility_min_eigenvalue,
    build_diagonal_certificate,
    build_svd_certificate,
    gamma_lower,
    gamma_upper,
    verify_certificate,
    verify_diagonal_certificate,
)
from contcount.linalg import frobenius_norm, min_eigenvalue_symmetric, schatten1
from contcount.workload import (
    counting_matrix,
    gamma_lower_bound_count,
    gamma_upper_bound_count,
)


def test_gamma_lower_examples():
    assert gamma_lower(np.eye(3)) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert gamma_lower([[1, 0], [1, 1]]) == pytest.approx(math.sqrt(5 / 2), rel=1e-12)
    assert gamma_lower(np.zeros((2, 3))) == 0.0


def test_gamma_upper_examples():
    assert gamma_upper(np.diag([3.0, 4.0])) == pytest.approx(5.0, rel=1e-12)
    assert gamma_upper(np.eye(3)) == pytest.approx(gamma_lower(np.eye(3)), rel=1e-12)
    assert gamma_upper([[1, 0], [1, 1]]) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert gamma_upper([[1, 0], [1, 1]]) >= gamma_lower([[1, 0], [1, 1]])


def test_gamma_bounds_ordered_random():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
        assert gamma_lower(a) <= gamma_upper(a) + 1e-12


def test_svd_certificate_identity():
    cert = build_svd_certificate(np.eye(2))
    assert cert.Z == pytest.approx(math.sqrt(2) * np.eye(2), abs=1e-12)
    assert cert.w == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-15)
    assert cert.claimed_objective == pytest.approx(math.sqrt(2), rel=1e-12)
    feasible, objective = verify_certificate(np.eye(2), cert)
    assert feasible
    assert objective == pytest.approx(math.sqrt(2), rel=1e-12)
    # the Schur complement I - Z^T Z / n vanishes: min eigenvalue is exactly 0
    s = np.block(
        [[2 * np.eye(2), -cert.Z], [-cert.Z.T, np.eye(2)]]
    )
    assert abs(min_eigenvalue_symmetric(s)) <= 1e-12


def test_svd_certificate_counting_two():
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    cert = build_svd_certificate(a)
    feasible, objective = verify_certificate(a, cert)
    assert feasible
    assert objective == pytest.approx(math.sqrt(5 / 2), rel=1e-9)


def test_svd_certificate_random_rect():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(5, 7))
    cert = build_svd_certificate(a)
    assert cert.claimed_objective == pytest.approx(schatten1(a) / math.sqrt(7), rel=1e-9)
    feasible, objective = verify_certificate(a, cert)
    assert feasible
    assert objective == pytest.approx(cert.claimed_objective, rel=1e-9)


def test_svd_certificate_rejects_zero_matrix():
    with pytest.raises(ValueError):
        build_svd_certificate(np.zeros((2, 2)))


def test_scaled_certificate_infeasible():
    a = np.eye(2)
    cert = build_svd_certificate(a)
    bad = DualCertificate(w=cert.w, Z=1.5 * cert.Z, claimed_objective=cert.claimed_objective)
    feasible, _ = verify_certificate(a, bad)
    assert not feasible


def _feasibility_block(z: np.ndarray) -> np.ndarray:
    """Dense oracle: diag(n I_n, I_m) - Zhat, Zhat the symmetric embedding of Z."""
    n, m = z.shape
    s = np.zeros((n + m, n + m))
    s[:n, :n] = n * np.eye(n)
    s[n:, n:] = np.eye(m)
    s[:n, n:] = -z
    s[n:, :n] = -z.T
    return s


@st.composite
def dual_blocks(draw):
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "rank_deficient", "zero", "svd_scaled"]))
    if kind == "random":
        z = rng.normal(size=(n, m)) * draw(st.sampled_from([1e-300, 0.1, 1.0, 4.0, 1e200]))
    elif kind == "rank_deficient":
        r = draw(st.integers(0, min(n, m) - 1)) if min(n, m) > 1 else 0
        z = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
    elif kind == "zero":
        z = np.zeros((n, m))
    else:
        z = build_svd_certificate(rng.normal(size=(n, m))).Z
        z = z * draw(st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + 1e-6]))
    return z


@settings(deadline=None, max_examples=300)
@given(dual_blocks())
@example(np.full((3, 3), 1e200))  # its Gram overflows float64 unless Z is scaled first
@example(np.zeros((1, 1)))  # discriminant exactly 0
def test_schur_min_eigenvalue_matches_dense_block(z):
    n, m = z.shape
    scale = 1.0 + frobenius_norm(z)
    dense = min_eigenvalue_symmetric(_feasibility_block(z))
    assert abs(_feasibility_min_eigenvalue(z) - dense) <= 1e-12 * scale
    # verdict as the dense check gives it, with a valid weight vector
    a = np.ones((n, m))
    w = build_svd_certificate(a).w
    feasible, _ = verify_certificate(a, DualCertificate(w=w, Z=z, claimed_objective=0.0))
    assert feasible == (dense >= -1e-9 * scale)


def test_w_structure_violations_detected():
    a = np.eye(2)
    cert = build_svd_certificate(a)
    unequal = np.array([0.6, 0.2, math.sqrt(0.3), math.sqrt(0.3)])  # unit norm, unequal head
    feasible, _ = verify_certificate(a, DualCertificate(w=unequal, Z=cert.Z, claimed_objective=0))
    assert not feasible
    negative = np.array([0.5, 0.5, -0.5, 0.5])
    feasible, _ = verify_certificate(a, DualCertificate(w=negative, Z=cert.Z, claimed_objective=0))
    assert not feasible
    unnormalized = 2.0 * cert.w
    feasible, _ = verify_certificate(
        a, DualCertificate(w=unnormalized, Z=cert.Z, claimed_objective=0)
    )
    assert not feasible


def test_verify_certificate_dimension_checks():
    cert = build_svd_certificate(np.eye(2))
    with pytest.raises(ValueError):
        verify_certificate(np.eye(3), cert)


def test_objective_matches_trace_formula():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n, m = rng.integers(1, 9), rng.integers(1, 9)
        a = rng.normal(size=(n, m))
        cert = build_svd_certificate(a)
        _, objective = verify_certificate(a, cert)
        trace_form = (np.trace(a @ cert.Z.T) + np.trace(a.T @ cert.Z)) / (
            2 * math.sqrt(n * m)
        )
        assert abs(objective - trace_form) <= 1e-10 * (1 + abs(objective))


def test_diagonal_certificate_examples():
    d = np.diag([3.0, 4.0])
    cert = build_diagonal_certificate(d)
    assert cert.beta == 0.5
    assert np.diag(cert.Y) == pytest.approx([0.3, 0.4], rel=1e-12)
    assert cert.y == pytest.approx([0.18, 0.32], rel=1e-12)
    assert cert.claimed_objective == pytest.approx(5.0, rel=1e-12)
    feasible, objective = verify_diagonal_certificate(d, cert)
    assert feasible and objective == pytest.approx(5.0, rel=1e-12)

    single = np.array([[1.0]])
    assert build_diagonal_certificate(single).claimed_objective == pytest.approx(1.0)

    eye5 = np.eye(5)
    cert5 = build_diagonal_certificate(eye5)
    assert cert5.claimed_objective == pytest.approx(math.sqrt(5), rel=1e-12)
    assert cert5.claimed_objective == pytest.approx(gamma_upper(eye5), rel=1e-12)


def test_diagonal_certificate_normalization():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        d = np.diag(rng.normal(size=n))
        if not np.any(np.diag(d)):
            continue
        cert = build_diagonal_certificate(d)
        assert cert.beta + np.sum(cert.y) == pytest.approx(1.0, abs=1e-14)
        feasible, objective = verify_diagonal_certificate(d, cert)
        assert feasible
        # bounds pinch: the certificate's lower bound meets the Frobenius upper bound
        assert objective == pytest.approx(gamma_upper(d), rel=1e-9)


def test_diagonal_certificate_rejects_non_diagonal():
    with pytest.raises(ValueError):
        build_diagonal_certificate(np.array([[1.0, 0.5], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        build_diagonal_certificate(np.zeros((2, 2)))


def test_svd_certificates_random_batch():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n, m = rng.integers(1, 13), rng.integers(1, 13)
        a = rng.normal(size=(n, m))
        cert = build_svd_certificate(a)
        feasible, objective = verify_certificate(a, cert)
        assert feasible
        assert objective == pytest.approx(gamma_lower(a), rel=1e-9)


def test_counting_matrix_trace_bound_within_closed_forms():
    ns = list(range(2, 65)) + [100, 128, 256, 400, 512]
    for n in ns:
        lower = gamma_lower(counting_matrix(n))
        assert gamma_lower_bound_count(n) <= lower <= gamma_upper_bound_count(n)
