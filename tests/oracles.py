"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own code paths: kernels
come from scipy pseudo-inverses of the Gram, norms from closed-form special
functions, and derivatives from small hand-derived formulas.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import pinvh, solve
from scipy.special import gammainc


def disk_moment_exact(a: int, b: int, radius: float) -> complex:
    """integral over |z|<=R of z^a conj(z)^b dA = 2 pi delta_ab R^(2a+2)/(2a+2)."""
    if a != b:
        return 0.0 + 0.0j
    return complex(2.0 * math.pi * radius ** (2 * a + 2) / (2 * a + 2))


def brute_force_kernel(basis_values, masses, phi_values, rtol=1e-12) -> np.ndarray:
    """Node-pair kernel via an independent linear-algebra route.

    K = V G^+ V* with the pseudo-inverse from scipy; for comfortably
    conditioned Grams a direct solve is used instead.
    """
    v = np.asarray(basis_values, dtype=complex)
    d = np.asarray(masses, dtype=float) * np.exp(-np.asarray(phi_values, dtype=float))
    g = v.conj().T @ (d[:, None] * v)
    g = 0.5 * (g + g.conj().T)
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] > 1e-10 * max(eigs[-1], 1e-300):
        middle = solve(g, v.conj().T, assume_a="her")
    else:
        middle = pinvh(g, rtol=rtol) @ v.conj().T
    return v @ middle


def node_pair_residual(kernel_values, masses, phi_values) -> float:
    """Largest entry of |K D K - K| with D = diag(w e^{-phi}), on node pairs.

    The direct form of the reproducing residual: it forms the n x n product,
    so it serves as the reference for the coefficient-space bound at small n.
    """
    k = np.asarray(kernel_values, dtype=complex)
    d = np.asarray(masses, dtype=float) * np.exp(-np.asarray(phi_values, dtype=float))
    return float(np.max(np.abs((k * d[None, :]) @ k - k))) if k.size else 0.0


def extremal_diagonal(basis_values, masses, phi_values, rtol=1e-12) -> np.ndarray:
    """max_h |h(z_j)|^2 / ||h||^2 over the span, via the Gram pseudo-inverse.

    The maximizing coefficient vector of the generalized Rayleigh quotient
    |row_j c|^2 / (c* G c) gives the value row_j G^+ row_j*.
    """
    v = np.asarray(basis_values, dtype=complex)
    d = np.asarray(masses, dtype=float) * np.exp(-np.asarray(phi_values, dtype=float))
    g = v.conj().T @ (d[:, None] * v)
    g = 0.5 * (g + g.conj().T)
    gp = pinvh(g, rtol=rtol)
    return np.einsum("jm,mn,jn->j", v, gp, v.conj()).real


def gaussian_monomial_norm_sq(m: int, k: float, radius: float) -> float:
    """||z^m||^2 under e^{-k|z|^2} dA on |z| <= radius, by incomplete gamma.

    2 pi integral_0^R r^(2m+1) e^{-k r^2} dr = pi k^-(m+1) gamma(m+1, k R^2).
    """
    return float(
        math.pi * k ** (-(m + 1)) * math.gamma(m + 1) * gammainc(m + 1, k * radius**2)
    )


def fock_density_at_origin(k: float, radius: float) -> float:
    """B(0) for the weight k|z|^2 on the disk: k / (pi (1 - e^{-k R^2}))."""
    return k / (math.pi * (1.0 - math.exp(-k * radius**2)))


def disk_kernel_closed_form(z, w) -> np.ndarray:
    """Unweighted Bergman kernel of the unit disk: 1 / (pi (1 - z conj(w))^2)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return 1.0 / (math.pi * (1.0 - np.multiply.outer(z, np.conj(w))) ** 2)


def rank_one_kernel_derivative(h_values, masses, phi_t, u) -> np.ndarray:
    """Closed-form kernel t-derivative for a one-dimensional span {h}.

    K_t = h(z) conj(h(w)) / ||h||_t^2 with ||h||_t^2 = sum w |h|^2 e^{-phi_t},
    so K'_t = h(z) conj(h(w)) * sum_j u_j w_j |h_j|^2 e^{-phi_t(j)} / ||h||_t^4.
    """
    h = np.asarray(h_values, dtype=complex)
    d = np.asarray(masses, dtype=float) * np.exp(-np.asarray(phi_t, dtype=float))
    norm_sq = float(np.sum(d * np.abs(h) ** 2))
    num = float(np.sum(np.asarray(u, dtype=float) * d * np.abs(h) ** 2))
    return np.outer(h, h.conj()) * (num / norm_sq**2)


def two_node_g(t: float) -> float:
    """G(t) for the reference two-node instance: span {1}, masses (1, 1),
    phi = (0, 0), psi = (-1, 1).  Equals e^t / (e^t + e^-t)."""
    return math.exp(t) / (math.exp(t) + math.exp(-t))


def two_node_g_prime(t: float) -> float:
    s = two_node_g(t)
    return 2.0 * s * (1.0 - s)


def laplacian_5point(f, z, step: float = 1e-4) -> np.ndarray:
    """Five-point finite-difference Laplacian of f at the complex points z."""
    h = step
    return (
        f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)
    ) / h**2


def central_fd(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def fd_order(f, x: float, exact: float, steps) -> float:
    """Least-squares slope of log-error against log-step."""
    errs = [abs(central_fd(f, x, s) - exact) for s in steps]
    logs = np.log(np.asarray(steps, dtype=float))
    loge = np.log(np.maximum(errs, 1e-300))
    slope, _ = np.polyfit(logs, loge, 1)
    return float(slope)
