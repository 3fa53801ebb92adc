"""Weight homotopies phi_t = phi + t u and kernel derivatives along them.

The central object is G(t), the density of the phi_t-space integrated against
the indicator rho of {u < 0}, where u = psi - phi.  G interpolates the two
sides of the comparison inequality: G(0) is the left side, G(1) the right,
and G is nondecreasing.

Three algebraically equal expressions for G'(t) are implemented, writing
M[j, k] = |K_t(z_j, z_k)|^2 e^{-phi_t(z_j) - phi_t(z_k)} w_j w_k:

  direct form      -sum_j rho_j u_j K_t[j, j] e^{-phi_t(j)} w_j
                   + sum_{j,k} rho_j u_k M[j, k]
  symmetric form   (1/2) sum_{j,k} (rho_j - rho_k)(u_k - u_j) M[j, k]
  sign-split form  sum_{u_j < 0 <= u_k} (u_k - u_j) M[j, k]   (rho = 1_{u<0})

The sign-split form is a sum of nonnegative terms, which is how monotonicity
of G becomes visible.  Ties u = 0 are grouped with the nonnegative side,
matching the strict-inequality convention for sublevel sets.

The kernel's own t-derivative is K'_t(z, w) = integral u(v) K_t(z, v)
K_t(v, w) e^{-phi_t(v)} dmu(v); finite-difference quotients of the kernel
obey sup and L2 bounds with the envelope constant 2 u_sup e^{2 u_sup}.

A path carries the kernels.Spaces context of its span and measure, and every
function here takes the space of phi_t from it: G on the grid, the
derivative forms, their finite differences and the quotient bounds share
each space they meet.  phi + 0 u is phi bit for bit, so t = 0 reuses phi's
space; phi + 1 u need not be psi bit for bit, so t = 1 has its own.  The
checks name the times they read up front (checked_times), so the context
builds those spaces as one stack.  They read K_t(z, z)
(WeightedSpace.diagonal), and G(t) sums the Bergman measure w B_t
(WeightedSpace.projector_diagonal): each space forms both once.
G on T_GRID must be nondecreasing, with G at the endpoints equal to the two
comparison integrals.
The G' forms and the L2 bound read the orthonormal node values in blocks
from kernels.orthonormal_node_values, as every other check does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comparison import sublevel_set
from .errors import InvalidConfigurationError
from .kernels import Spaces, orthonormal_node_values
from .weights import WeightFunction

# The times at which the homotopy checks evaluate G, from 0 to 1.  The
# kernel quotient bounds are checked at BOUND_T over BOUND_STEPS, and the
# battery reads G' at BOUND_T too.
T_GRID = tuple(float(t) for t in np.linspace(0.0, 1.0, 11))
BOUND_T = T_GRID[5]
BOUND_STEPS = (0.5, 0.1, 0.01)
FD_STEP = 1e-3
ORDER_STEPS = (1e-2, 1e-3, 1e-4)
# Absolute slack added to the quotient bounds so nodes with a vanishing
# kernel diagonal pass exactly.
BOUND_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class HomotopyPath:
    """Straight path of weights t -> phi + t u, with the spaces along it and
    the profile rho = 1_{u < 0} that turns G into the comparison interpolant."""

    spaces: Spaces
    base_values: np.ndarray
    direction: np.ndarray
    u_sup: float
    profile: np.ndarray


@dataclass(frozen=True)
class DerivativeReport:
    """G, its three closed-form derivatives, and a finite-difference estimate
    at one parameter value."""

    t: float
    g_value: float
    direct_form: float
    symmetric_form: float
    sign_split_form: float
    fd_estimate: float
    fd_step: float

    @property
    def max_pairwise_dev(self) -> float:
        forms = (self.direct_form, self.symmetric_form, self.sign_split_form)
        return max(abs(a - b) for a in forms for b in forms)


def build_path(
    spaces: Spaces, phi: WeightFunction, psi: WeightFunction
) -> HomotopyPath:
    """Path from phi to psi, tabulated on the context's nodes; u = psi - phi."""
    u = psi.values - phi.values
    return HomotopyPath(
        spaces=spaces,
        base_values=phi.values,
        direction=u,
        u_sup=float(np.max(np.abs(u))) if u.size else 0.0,
        profile=sublevel_set(phi, psi).astype(float),
    )


def weight_at(path: HomotopyPath, t: float) -> WeightFunction:
    """The weight phi + t u as a tabulated WeightFunction."""
    return WeightFunction(values=path.base_values + t * path.direction, family=None)


def checked_times(forms_at, order_steps=()) -> list:
    """The times t whose spaces of phi_t the homotopy checks read, in the
    order they first read them, repeats included, for Spaces.many.

    g_derivative_forms at each t of forms_at reads t and t +- FD_STEP,
    checks.homotopy_values reads T_GRID and BOUND_T + each of BOUND_STEPS,
    and a central difference at BOUND_T of each of order_steps reads
    BOUND_T +- step.  Each sum is formed as its reader forms it, so each
    time, and its weight, is the one the reader asks for bit for bit.
    """
    times = [s for t in forms_at for s in (t, t + FD_STEP, t - FD_STEP)]
    times += T_GRID
    times += [BOUND_T + tau for tau in BOUND_STEPS]
    times += [s for step in order_steps for s in (BOUND_T + step, BOUND_T - step)]
    return times


def g_of_t(path: HomotopyPath, t: float) -> float:
    """G(t) = integral of 1_{u < 0} times the density of the phi_t-space."""
    p = path.spaces(weight_at(path, t)).projector_diagonal
    return float(np.sum(path.profile * p))


def sup_bound_constant(u_sup: float) -> float:
    """Envelope constant 2 u_sup e^{2 u_sup} for the quotient bounds.

    It overflows once u_sup = max |psi - phi| passes about 351, and a bound
    of inf would check nothing, so the path is rejected there.
    """
    with np.errstate(over="ignore"):
        constant = 2.0 * u_sup * np.exp(2.0 * u_sup)
    if not np.isfinite(constant):
        raise InvalidConfigurationError(
            f"the quotient bound constant 2 u e^(2 u) overflows at "
            f"u = max |psi - phi| = {u_sup:g}"
        )
    return constant


def quotient_bounds_hold(path: HomotopyPath, t: float, tau: float) -> bool:
    """The sup and L2 bounds on the kernel increment from t to t + tau.

    With C_u = 2 u_sup e^{2 u_sup} and |tau| <= 1, at every node z_i

      sup  |K_{t+tau}(z_i, z_i) - K_t(z_i, z_i)| / |tau| <= C_u K_t(z_i, z_i),
      L2   sum_k |K_{t+tau} - K_t|^2(i, k) w_k e^{-phi_t(k)} <= C_u |tau| K_t(z_i, z_i),

    each up to BOUND_FLOOR (1 + max K_t).  The L2 sums are formed only
    where the sup bound holds.
    """
    space_t = path.spaces(weight_at(path, t))
    space_s = path.spaces(weight_at(path, t + tau))
    diag_t = space_t.diagonal
    quotient = np.abs(space_s.diagonal - diag_t) / abs(tau)
    floor = BOUND_FLOOR * (1.0 + float(diag_t.max(initial=0.0)))
    constant = sup_bound_constant(path.u_sup)
    if not np.all(quotient <= constant * diag_t + floor):
        return False
    d = space_t.measure_factor
    # The increment K_{t+tau} - K_t factors through the stacked frame
    # U = [e_s | e_t] with signature (+1, -1), so the weighted row norms
    # come from a small cross-Gram instead of the full node-pair matrix.
    # The two spaces share a span, so their blocks cover the same rows.
    def frames():
        blocks = zip(orthonormal_node_values(space_s), orthonormal_node_values(space_t))
        for (rows, e_s), (_, e_t) in blocks:
            yield rows, np.concatenate([e_s, e_t], axis=1)

    signs = np.concatenate([np.ones(space_s.rank), -np.ones(space_t.rank)])
    w_gram = sum(u.conj().T @ (d[rows, None] * u) for rows, u in frames())
    core = signs[:, None] * w_gram * signs[None, :]
    lhs = [np.einsum("ij,ij->i", u @ core, u.conj()).real for _, u in frames()]
    bound = constant * abs(tau) * diag_t + floor
    return bool(np.all(np.concatenate(lhs) <= bound))


def g_derivative_forms(path: HomotopyPath, t: float) -> DerivativeReport:
    """Evaluate G, its three derivative expressions, and a central FD at t.

    The profile is rho = 1_{u < 0}, for which the sign-split form holds.
    The finite difference has step FD_STEP.
    """
    rho, u = path.profile, path.direction
    pos = 1.0 - rho  # 1_{u >= 0}
    space = path.spaces(weight_at(path, t))
    d = space.measure_factor

    def pair_sum(a, b):
        return float(np.trace(a @ b).real)

    # Quadratic forms x' M y with M = |K|^2 (d x d) reduce to traces of
    # small cross-Grams: sum_jk x_j |K_jk|^2 y_k = tr(A(x d) A(y d)) where
    # A(v) = e* diag(v) e.  This keeps the cost at O(nodes x rank^2), so
    # dense quadrature measures never materialize a node-pair matrix.  One
    # pass over the blocks of e sums A(x d) for the six x; one block is kept as is.
    # Where u d overflows, the forms are not finite and the path is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        xd = [x * d for x in (rho, u, rho * u, np.ones_like(u), u * pos, pos)]
        grams = None
        for rows, e in orthonormal_node_values(space):
            e_h = e.conj().T
            block = [e_h @ (v[rows, None] * e) for v in xd]
            grams = block if grams is None else [g + b for g, b in zip(grams, block)]
        a_rho, a_u, a_rho_u, a_one, a_u_pos, a_pos = grams
        rho_m_u = pair_sum(a_rho, a_u)
        direct = float(-np.sum(rho * u * space.diagonal * d) + rho_m_u)
        symmetric = rho_m_u - pair_sum(a_rho_u, a_one)
        sign_split = pair_sum(a_rho, a_u_pos) - pair_sum(a_rho_u, a_pos)
    if not np.isfinite([direct, symmetric, sign_split]).all():
        raise InvalidConfigurationError(
            f"the derivative forms of G at t = {t:g} are not finite: "
            "u = psi - phi times w e^{-phi_t} overflows"
        )

    return DerivativeReport(
        t=float(t),
        g_value=g_of_t(path, t),
        direct_form=direct,
        symmetric_form=symmetric,
        sign_split_form=sign_split,
        fd_estimate=central_difference(path, t, FD_STEP),
        fd_step=FD_STEP,
    )


def central_difference(path: HomotopyPath, t: float, step: float) -> float:
    """The central difference (G(t + step) - G(t - step)) / (2 step) of G at t."""
    return float((g_of_t(path, t + step) - g_of_t(path, t - step)) / (2.0 * step))
