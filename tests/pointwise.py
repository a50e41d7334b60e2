"""Point-by-point definitions of the ladder coefficients and operators: one
point at a time, through the scalar sigma_eval, theta_eval and the
limit-aware ratios.  The library evaluates them on `ladder.StencilGrid`
arrays only; the tests keep these as the reference the grid is compared
against."""

import cmath

from qladder.hypergeometric_core import (
    lam_ratio,
    lam_tau_ratio,
    lambda_n,
    sigma_eval,
    sigma_over_nabla,
    theta_eval,
    theta_over_delta,
)
from qladder.ladder import ThreePointOperator, _absent
from qladder.qkernel import QKernelError


def sqrt_ts_minus(fam, s) -> complex:
    """Principal sqrt of Theta(s-1) sigma(s)."""
    return cmath.sqrt(theta_eval(fam.eq, complex(s) - 1.0) * sigma_eval(fam.eq, s))


def sqrt_ts_plus(fam, s) -> complex:
    """Principal sqrt of Theta(s) sigma(s+1)."""
    return cmath.sqrt(theta_eval(fam.eq, s) * sigma_eval(fam.eq, complex(s) + 1.0))


def e_minus(fam, s) -> complex:
    """The E^- coefficient of H and L+: sqrt(Theta(s-1) sigma(s))/nabla x(s)."""
    return sqrt_ts_minus(fam, s) / fam.eq.lattice.nabla_x(s)


def e_plus(fam, s) -> complex:
    """The E^+ coefficient of H and L-: sqrt(Theta(s) sigma(s+1))/Delta x(s)."""
    return sqrt_ts_plus(fam, s) / fam.eq.lattice.delta_x(s)


def u_fn(fam, n: int, s):
    """u(s,n) = lambda_n/[n]_q * tau_n(s)/tau_n' - sigma(s)/nabla x(s)."""
    eq = fam.eq
    return lam_tau_ratio(eq, n, s) - sigma_over_nabla(eq, s)


def v_fn(fam, n: int, s):
    """v(s,n) = -lambda_n/[n]_q tau_n(s)/tau_n' + lambda_n Delta x(s-1/2)
    + lambda_{2n}/[2n]_q (x(s) - beta_n) - Theta(s)/Delta x(s)."""
    eq = fam.eq
    lat = eq.lattice
    return (
        -lam_tau_ratio(eq, n, s)
        + lambda_n(eq, n) * lat.delta_x_mid(s)
        + lam_ratio(eq, 2.0 * n) * (lat.x_values(s) - fam.ttrr_beta(n))
        - theta_over_delta(eq, s)
    )


def h_diag_at(lam, son, tod, dxm):
    """The I coefficient of H from lambda_n, sigma/nabla x, Theta/Delta x and
    Delta x(s-1/2)."""
    return -(tod + son - lam * dxm)


def reduced_h_at(son, tod, diag, p_minus, p_zero, p_plus):
    """H(s,n) on P with the square roots reduced: sigma/nabla x P(s-1) +
    Theta/Delta x P(s+1) + (the I coefficient of H) P(s)."""
    return son * p_minus + tod * p_plus + diag * p_zero


def hamiltonian(fam, n: int) -> ThreePointOperator:
    """H(s,n) = E^- coefficient E^- + E^+ coefficient E^+ + (H diagonal) I."""
    eq = fam.eq
    lam = lambda_n(eq, n)
    return ThreePointOperator(
        c_minus=lambda s: e_minus(fam, s),
        c_zero=lambda s: h_diag_at(lam, sigma_over_nabla(eq, s), theta_over_delta(eq, s),
                                   eq.lattice.delta_x_mid(s)),
        c_plus=lambda s: e_plus(fam, s),
    )


def raising_op(fam, n: int) -> ThreePointOperator:
    """L+(s,n) = u(s,n) I + sqrt(Theta(s-1) sigma(s))/nabla x(s) E^-."""
    return ThreePointOperator(lambda s: e_minus(fam, s), lambda s: u_fn(fam, n, s), _absent)


def lowering_op(fam, n: int) -> ThreePointOperator:
    """L-(s,n) = v(s,n) I + sqrt(Theta(s) sigma(s+1))/Delta x(s) E^+."""
    return ThreePointOperator(_absent, lambda s: v_fn(fam, n, s), lambda s: e_plus(fam, s))


def weight_chain(fam, s0, lo: int, hi: int) -> dict:
    """w(s0+k) for k in lo..hi with w(s0) = 1, by the Pearson-consistent
    chain recurrence of the ladder module."""
    s0 = complex(s0)
    w = {0: complex(1.0)}
    for k in range(hi):
        s = s0 + k
        root = sqrt_ts_plus(fam, s)
        if root == 0.0:
            raise QKernelError(f"weight chain hit Theta(s) sigma(s+1) = 0 at s = {s}")
        w[k + 1] = theta_eval(fam.eq, s) * w[k] / root
    for k in range(0, lo, -1):
        s = s0 + k
        root = sqrt_ts_minus(fam, s)
        if root == 0.0:
            raise QKernelError(f"weight chain hit Theta(s-1) sigma(s) = 0 at s = {s}")
        w[k - 1] = sigma_eval(fam.eq, s) * w[k] / root
    return w


class PhiChain:
    """phi-like functions w(s) P_n(s) along one integer chain s0 + lo .. s0 + hi."""

    def __init__(self, fam, s0, lo: int, hi: int):
        self.fam, self.s0, self.lo, self.hi = fam, complex(s0), lo, hi
        self.w = weight_chain(fam, self.s0, lo, hi)

    def fn(self, n: int):
        def f(s):
            d = complex(s) - self.s0
            k = round(d.real)
            if abs(d - k) > 1e-8 or not self.lo <= k <= self.hi:
                raise QKernelError(f"point {s} is not on the chain")
            return self.w[k] * self.fam.pn_ttrr(n, s)

        return f
