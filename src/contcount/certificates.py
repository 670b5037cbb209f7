"""Dual certificates for the factorization norm.

The factorization norm of a matrix A (minimum over A = L R of
||L||_F * ||R||_{1->2}) admits a semidefinite dual whose feasible points
certify lower bounds.  A certificate is a weight vector w and an n x m
block Z, and ``verify_certificate`` checks it.  Two builders fill them in:

* the SVD certificate, proving gamma >= ||A||_1 / sqrt(m) for any n x m
  matrix A (Z = sqrt(n) U V^T from the SVD, weights split evenly between
  the two blocks);
* the diagonal certificate, proving gamma = ||A||_F for diagonal A
  (Z = sqrt(n) diag(sign A), second block of weights proportional to |A|).

The PSD condition is checked at the size k = min(n, m) of Z's smaller
side, not on the (n + m)^2 dual block.  With Z = U S V^T, the block
diag(n I_n, I_m) - Zhat splits into one 2 x 2 block [[n, -s], [-s, 1]] per
singular value s of Z, plus eigenvalues 1 and n, which are never smaller.
Its least eigenvalue is therefore the exact Schur-complement expression

    2 mu / ((n + 1) + sqrt((n - 1)^2 + 4 lambda)),   mu = n - lambda,

where lambda is the largest eigenvalue of the Gram G = Z Z^T (n <= m) or
Z^T Z (n > m).  It is compared against the same threshold
-FEASIBILITY_TOL * (1 + ||Z||_F) as the dense block would be.

Only certificate *verification* is implemented; solving the SDP generically
is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _pow2_scaled_norm, as_matrix, frobenius_norm, singular_values

__all__ = [
    "gamma_lower",
    "gamma_upper",
    "DualCertificate",
    "build_svd_certificate",
    "verify_certificate",
    "build_diagonal_certificate",
]

# Entries of the dual weight vector must clear this to count as strictly positive.
POSITIVITY_TOL = 1e-12
# A least eigenvalue of at least -FEASIBILITY_TOL times the blocks' size counts as PSD.
FEASIBILITY_TOL = 1e-9


def _trace_norm_bound(s: np.ndarray, m: int) -> float:
    """||A||_1 / sqrt(m) from the descending singular values ``s`` of an n x m
    matrix A, scaled like ``frobenius_norm`` so that the sum neither
    overflows nor rounds in the subnormal range.  A non-finite ``s[0]`` is refused."""
    if not math.isfinite(s[0]):
        raise ValueError("the matrix's largest singular value exceeds the float64 range")
    return _pow2_scaled_norm(s, lambda v: float(np.sum(v)) / math.sqrt(m))


def gamma_lower(a) -> float:
    """Spectral lower bound ||A||_1 / sqrt(cols) on the factorization norm."""
    a = as_matrix(a)
    return _trace_norm_bound(singular_values(a), a.shape[1])


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
    return DualCertificate(w=w, Z=z, claimed_objective=_trace_norm_bound(s, m))


def build_diagonal_certificate(a) -> DualCertificate:
    """Certificate pinning the factorization norm of a diagonal matrix to ||A||_F.

    Z = sqrt(n) diag(s), s_i the sign of A[i,i] (+1 where it is 0), so
    Z Z^T = n I and the PSD block's least eigenvalue is 0.  The weights are
    w = (1_n / sqrt(2n); v / (sqrt(2) ||v||)) with
    v_i = max(|A[i,i]| / ||A||_F, 4 POSITIVITY_TOL): the objective
    sum_i |A[i,i]| v_i / ||v|| is ||A||_F, moved by the floor under n 1e-23
    relative.  Dividing before squaring keeps subnormal diagonals finite.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"diagonal certificate needs a square matrix, got {a.shape}")
    d = np.diag(a)
    if np.any(a != np.diag(d)):
        raise ValueError("matrix must be diagonal")
    fro = frobenius_norm(a)
    if fro == 0.0:
        raise ValueError("certificate construction needs a nonzero matrix")
    z = np.diag(np.where(d < 0.0, -np.sqrt(n), np.sqrt(n)))
    v = np.maximum(np.abs(d) / fro, 4.0 * POSITIVITY_TOL)
    w = np.concatenate([np.full(n, 1.0 / np.sqrt(2.0 * n)), v / (np.sqrt(2.0) * np.linalg.norm(v))])
    return DualCertificate(w=w, Z=z, claimed_objective=fro)


def _feasibility_min_eigenvalue(z: np.ndarray) -> float:
    """Least eigenvalue of diag(n I_n, I_m) - Zhat, from the k x k Gram of Z.

    Z is first multiplied by a power of two s <= 1 with s max|Z| <= 1, so
    its Gram cannot overflow; the scaling is exact up to underflow far
    below the rounding of the result.  With lambda' = s^2 lambda,
    mu' = n s^2 - lambda' and c = (n + 1) s the module docstring's
    expression becomes 2 mu' / (s (c + sqrt(((n - 1) s)^2 + 4 lambda'))):
    both terms under the root are nonnegative, so nothing cancels there.
    """
    n, m = z.shape
    _, e = math.frexp(float(np.max(np.abs(z))))
    scale = math.ldexp(1.0, -max(e, 0))
    zs = z * scale
    gram = zs @ zs.T if n <= m else zs.T @ zs
    # eigvalsh reads one triangle, so a Gram symmetric only to rounding is fine
    lam = float(np.linalg.eigvalsh(gram)[-1])
    mu = n * scale * scale - lam
    root = math.sqrt(((n - 1) * scale) ** 2 + 4.0 * lam)  # 0 only at n = 1, Z = 0
    return 2.0 * mu / (scale * ((n + 1) * scale + root))


def verify_certificate(a, cert: DualCertificate) -> tuple[bool, float]:
    """Check dual feasibility of a certificate and evaluate its objective.

    Feasibility requires the weight structure (strictly positive entries,
    unit norm, first block constant) and positive semidefiniteness of
    diag(n I, I) - Zhat, tested as min-eigenvalue >= -FEASIBILITY_TOL
    (1 + ||Z||_F) so the tolerance tracks the magnitude of the blocks.  The
    least eigenvalue of that (n + m)^2 block is computed exactly from the
    k x k Gram of Z, k = min(n, m), by the Schur-complement identity in the
    module docstring; the threshold is unchanged.  The objective
    w^T (Ahat o Zhat) w = 2 w_1^T (A o Z) w_2 is returned either way, with
    A scaled like ``frobenius_norm`` when it would leave the normal range;
    it is a valid lower bound on the factorization norm only when feasible.
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

    objective = _pow2_scaled_norm(a, lambda s: 2.0 * float(w[:n] @ ((s * z) @ w[n:])))
    return structure_ok and psd_ok, objective
