"""Dual certificates for the factorization norm.

The factorization norm of a matrix A (minimum over A = L R of
||L||_F * ||R||_{1->2}) admits a semidefinite dual whose feasible points
certify lower bounds.  This module constructs and verifies two explicit
certificate families:

* the SVD certificate, proving gamma >= ||A||_1 / sqrt(m) for any n x m
  matrix A (Z = sqrt(n) U V^T from the SVD, weights split evenly between
  the two blocks);
* the diagonal certificate, proving gamma = ||A||_F for diagonal A.

The SVD certificate's PSD condition is checked at the size k = min(n, m)
of its smaller side, not on the (n + m)^2 dual block.  With Z = U S V^T,
the block diag(n I_n, I_m) - Zhat splits into one 2 x 2 block
[[n, -s], [-s, 1]] per singular value s of Z, plus eigenvalues 1 and n,
which are never smaller.  Its least eigenvalue is therefore the exact
Schur-complement expression

    2 mu / ((n + 1) + sqrt((n + 1)^2 - 4 mu)),   mu = lambda_min(n I_k - G),

where G is Z Z^T (n <= m) or Z^T Z (n > m).  It is compared against the
same threshold -FEASIBILITY_TOL * (1 + ||Z||_F) as the dense block would be.

Only certificate *verification* is implemented; solving the SDP generically
is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, frobenius_norm, min_eigenvalue_symmetric, schatten1

__all__ = [
    "gamma_lower",
    "gamma_upper",
    "DualCertificate",
    "DiagonalCertificate",
    "build_svd_certificate",
    "verify_certificate",
    "build_diagonal_certificate",
    "verify_diagonal_certificate",
]

# Entries of the dual weight vector must clear this to count as strictly positive.
POSITIVITY_TOL = 1e-12
# A least eigenvalue of at least -FEASIBILITY_TOL times the blocks' size counts as PSD.
FEASIBILITY_TOL = 1e-9


def gamma_lower(a) -> float:
    """Spectral lower bound ||A||_1 / sqrt(cols) on the factorization norm."""
    a = as_matrix(a)
    return schatten1(a) / np.sqrt(a.shape[1])


def gamma_upper(a) -> float:
    """Upper bound ||A||_F on the factorization norm (take L = A, R = I)."""
    return frobenius_norm(a)


@dataclass(frozen=True)
class DualCertificate:
    """Feasible dual point: weight vector w (length n + m) and the
    off-diagonal block Z of the dual matrix variable."""

    w: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    claimed_objective: float


@dataclass(frozen=True)
class DiagonalCertificate:
    """Dual point in the (beta, Y, y) parametrization used for diagonal matrices."""

    beta: float
    Y: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    claimed_objective: float


def build_svd_certificate(a) -> DualCertificate:
    """Certificate witnessing gamma >= ||A||_1 / sqrt(m).

    Takes Z = sqrt(n) U V^T from the SVD of A and
    w = (1/sqrt(2)) (1_n / sqrt(n); 1_m / sqrt(m)).  The claimed objective
    ||A||_1 / sqrt(m) is summed from the same SVD's singular values.
    """
    a = as_matrix(a)
    n, m = a.shape
    if not np.any(a):
        raise ValueError("certificate construction needs a nonzero matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    z = np.sqrt(n) * (u @ vt)
    w = np.concatenate(
        [np.full(n, 1.0 / np.sqrt(2.0 * n)), np.full(m, 1.0 / np.sqrt(2.0 * m))]
    )
    return DualCertificate(w=w, Z=z, claimed_objective=float(np.sum(s)) / np.sqrt(m))


def _feasibility_min_eigenvalue(z: np.ndarray) -> float:
    """Least eigenvalue of diag(n I_n, I_m) - Zhat, from the k x k Gram of Z.

    Z is first multiplied by a power of two s <= 1 with s max|Z| <= 1, so
    its Gram cannot overflow; the scaling is exact up to underflow far
    below the rounding of the result.  With mu' = s^2 mu and c = (n + 1) s
    the module docstring's expression becomes
    2 mu' / (s (c + sqrt(c^2 - 4 mu'))).
    """
    n, m = z.shape
    _, e = math.frexp(float(np.max(np.abs(z))))
    scale = math.ldexp(1.0, -max(e, 0))
    zs = z * scale
    gram = zs @ zs.T if n <= m else zs.T @ zs
    # eigvalsh reads one triangle, so a Gram symmetric only to rounding is fine
    mu = float(np.linalg.eigvalsh(n * scale * scale * np.eye(len(gram)) - gram)[0])
    c = (n + 1) * scale
    # the discriminant is (n - 1)^2 or more in exact arithmetic; 0 at n = 1, Z = 0
    return 2.0 * mu / (scale * (c + math.sqrt(max(c * c - 4.0 * mu, 0.0))))


def verify_certificate(a, cert: DualCertificate) -> tuple[bool, float]:
    """Check dual feasibility of a certificate and evaluate its objective.

    Feasibility requires the weight structure (strictly positive entries,
    unit norm, first block constant) and positive semidefiniteness of
    diag(n I, I) - Zhat, tested as min-eigenvalue >= -FEASIBILITY_TOL
    (1 + ||Z||_F) so the tolerance tracks the magnitude of the blocks.  The
    least eigenvalue of that (n + m)^2 block is computed exactly from the
    k x k Gram of Z, k = min(n, m), by the Schur-complement identity in the
    module docstring; the threshold is unchanged.  The objective
    w^T (Ahat o Zhat) w = 2 w_1^T (A o Z) w_2 is returned either way; it is
    a valid lower bound on the factorization norm only when feasible.
    """
    a = as_matrix(a)
    n, m = a.shape
    z = as_matrix(cert.Z)
    w = np.asarray(cert.w, dtype=np.float64)
    if z.shape != (n, m):
        raise ValueError(f"Z has shape {z.shape}, expected {(n, m)}")
    if w.shape != (n + m,):
        raise ValueError(f"w has length {w.shape}, expected {n + m}")

    structure_ok = (
        bool(np.all(w > POSITIVITY_TOL))
        and abs(np.linalg.norm(w) - 1.0) <= 1e-9
        and float(np.max(w[:n]) - np.min(w[:n])) <= 1e-12
    )
    scale = 1.0 + frobenius_norm(z)
    psd_ok = _feasibility_min_eigenvalue(z) >= -FEASIBILITY_TOL * scale

    objective = 2.0 * float(w[:n] @ ((a * z) @ w[n:]))
    return structure_ok and psd_ok, objective


def build_diagonal_certificate(a) -> DiagonalCertificate:
    """Certificate pinning the factorization norm of a diagonal matrix to ||A||_F.

    beta = 1/2, Y = A / (2 ||A||_F), y_i = A[i,i]^2 / (2 ||A||_F^2); the
    normalization beta + sum(y) = 1 holds by construction and the objective
    Tr(A Y^T) + Tr(A^T Y) equals ||A||_F.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"diagonal certificate needs a square matrix, got {a.shape}")
    if np.max(np.abs(a - np.diag(np.diag(a)))) != 0.0:
        raise ValueError("matrix must be diagonal")
    fro = frobenius_norm(a)
    if fro == 0.0:
        raise ValueError("certificate construction needs a nonzero matrix")
    y_mat = a / (2.0 * fro)
    y_vec = np.diag(a) ** 2 / (2.0 * fro**2)
    objective = float(np.trace(a @ y_mat.T) + np.trace(a.T @ y_mat))
    return DiagonalCertificate(beta=0.5, Y=y_mat, y=y_vec, claimed_objective=objective)


def verify_diagonal_certificate(a, cert: DiagonalCertificate) -> tuple[bool, float]:
    """Feasibility and objective of a (beta, Y, y) certificate.

    Uses the Schur-complement criterion: diag(beta I, Delta(y)) dominates
    the symmetric embedding of Y iff Delta(y) - Y^T Y / beta is PSD.
    """
    a = as_matrix(a)
    n = a.shape[0]
    y_mat = as_matrix(cert.Y)
    y_vec = np.asarray(cert.y, dtype=np.float64)
    if y_mat.shape != (n, n) or y_vec.shape != (n,):
        raise ValueError("certificate dimensions do not match the matrix")
    normalization_ok = abs(cert.beta + float(np.sum(y_vec)) - 1.0) <= 1e-12
    schur = np.diag(y_vec) - (y_mat.T @ y_mat) / cert.beta
    scale = 1.0 + float(np.sum(np.abs(y_vec)))
    psd_ok = min_eigenvalue_symmetric(schur) >= -FEASIBILITY_TOL * scale
    objective = float(np.trace(a @ y_mat.T) + np.trace(a.T @ y_mat))
    return normalization_ok and cert.beta > 0 and psd_ok, objective
