"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's own code paths: kernels
come from scipy pseudo-inverses of the Gram, norms from closed-form special
functions, and derivatives from small hand-derived formulas.  The search's
draws come from numpy's public generator calls, one instance at a time, and
go through the public constructors; force_one_redraw sends the search down
the path that draws a round again.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import pinvh, solve
from scipy.special import gammainc

from bergmanlab import battery
from bergmanlab.measures import build_discrete_measure
from bergmanlab.spans import KIND_MONOMIALS, monomial_span, tabulated_span
from bergmanlab.weights import eval_weight, tabulated_weight


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


def ring_fold_cells(dim: int, n_angular: int):
    """Cell (n + m, (n - m) mod N) of Q into which entry M[n, m] folds."""
    n = np.arange(dim)
    return n[:, None] + n, (n[:, None] - n) % n_angular


def ring_fold_by_scatter(x, n_angular: int) -> np.ndarray:
    """Q of the ring path's fold, M = x x* scattered with np.add.at:
    Q[s, k] sums M[n, m] over n + m = s and (n - m) mod N = k."""
    x = np.asarray(x, dtype=complex)
    q = np.zeros((2 * x.shape[0] - 1, n_angular), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(q, ring_fold_cells(x.shape[0], n_angular), x @ x.conj().T)
    return q


def ring_row_norms_by_scatter(points, n_angular: int, x) -> np.ndarray:
    """sum_l |sum_n z^n x[n, l]|^2 at the nodes r_i e^{2 pi i j / N} of a disk
    rule, in node order, from ring_fold_by_scatter's Q and one FFT per ring.

    After the fold the arithmetic is the ring path's, step for step, so the
    ring path's norms must equal these bit for bit.
    """
    q = ring_fold_by_scatter(x, n_angular)
    r = np.asarray(points)[::n_angular].real
    with np.errstate(over="ignore", invalid="ignore"):
        a = (r[:, None] ** np.arange(q.shape[0])) @ q
        return (n_angular * np.fft.ifft(a, axis=1)).real.reshape(-1)


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


def reference_search_draws(n, seed):
    """The maximum-principle search's draws one instance at a time through
    numpy's public calls and the public constructors, in the order of the
    seed's stream: the reference that the search's rounds must reproduce."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        m = int(rng.integers(2, battery.SEARCH_MAX_NODES + 1))
        d = int(rng.integers(1, min(battery.SEARCH_MAX_DIM, m - 1) + 1))
        radii = rng.uniform(*battery.RADIUS_RANGE, m)
        angles = rng.uniform(0.0, 2.0 * math.pi, m)
        lo, hi = battery.MASS_RANGE
        masses = np.exp(rng.uniform(math.log(lo), math.log(hi), m))
        measure = build_discrete_measure(radii * np.exp(1j * angles), masses)
        if rng.uniform() < battery.MONOMIAL_FRACTION:
            span = monomial_span(measure, d - 1)
        else:
            vals = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            span = tabulated_span(vals / math.sqrt(2.0))
        omega = np.zeros(m, dtype=bool)
        omega[rng.choice(m, size=int(rng.integers(1, m)), replace=False)] = True
        phi_vals = rng.uniform(*battery.WEIGHT_RANGE, m)
        family = int(rng.integers(0, 4))
        if family == 0:
            psi_vals = rng.uniform(*battery.WEIGHT_RANGE, m)
        elif family == 1:
            psi_vals = phi_vals + np.where(omega, 0.0, rng.uniform(0.0, 2.0, m))
        elif family == 2:
            lift = np.where(omega, 0.0, rng.uniform(0.0, 2.0, m))
            dent = np.where(omega, rng.uniform(0.0, 2.0, m), 0.0)
            psi_vals = phi_vals + lift - dent
        else:
            psi_vals = phi_vals + rng.uniform(-1.0, 1.0)
        draws.append(
            SimpleNamespace(
                measure=measure,
                span=span,
                omega=omega,
                family=family,
                phi=eval_weight(tabulated_weight(phi_vals), measure),
                psi=eval_weight(tabulated_weight(psi_vals), measure),
            )
        )
    return draws


# The fields of a derived search row (battery._SearchGroup) that its draw fixes.
SEARCH_ROW_FIELDS = ("points", "masses", "monomial", "dim", "omega", "phi", "psi")


def search_group_row(group, k):
    """Row k of a derived search group, by field, with its span values."""
    row = {name: getattr(group, name)[k] for name in SEARCH_ROW_FIELDS}
    return row | {"values": group.span_values(k)}


def search_row_mismatches(row, inst):
    """The fields of a derived search row that differ, bit for bit, from
    inst, its draw through the public constructors."""
    expected = {
        "points": inst.measure.points,
        "masses": inst.measure.masses,
        "monomial": inst.span.kind == KIND_MONOMIALS,
        "dim": inst.span.dim,
        "omega": inst.omega,
        "phi": inst.phi.values,
        "psi": inst.psi.values,
        "values": inst.span.basis_values,
    }
    return [
        name for name, value in expected.items() if not np.array_equal(row[name], value)
    ]


def force_one_redraw(monkeypatch):
    """Make battery._omega_masks flag every row of its first call, so that
    the search draws that round again with _Words.subset; returns a dict
    whose "redrawn" counts the instances battery._draw_round then draws
    that way."""
    omega_masks, draw_round = battery._omega_masks, battery._draw_round
    calls = {"passes": 0, "redrawn": 0}

    def flagging(*args):
        masks, flagged = omega_masks(*args)
        calls["passes"] += 1
        return masks, flagged | (calls["passes"] == 1)

    def counted(reader, buffer, count, exact=False):
        calls["redrawn"] += count if exact else 0
        return draw_round(reader, buffer, count, exact)

    monkeypatch.setattr(battery, "_omega_masks", flagging)
    monkeypatch.setattr(battery, "_draw_round", counted)
    return calls
