"""Inner products: finite discrete sums, Jackson q-integrals, and continuous
quadrature on [-1, 1] for the Askey--Wilson measure; Gram matrices.

Discrete sums use the node weights Delta x(s - 1/2); the Jackson integral is

    int_0^z f(t) d_q t = z (1-q) sum_{k>=0} f(z q^k) q^k,   0 < q < 1,

truncated once the tail terms decay below tolerance (node cap 10^4).  The
continuous Askey--Wilson quadrature substitutes x = cos(theta) and applies
Gauss--Legendre in theta, where the integrand is smooth; a node-doubling
loop provides the convergence gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qkernel import NonConvergedError, QBase, QKernelError

__all__ = [
    "InnerProductSpec",
    "discrete_inner",
    "jackson_integral",
    "continuous_inner_aw",
    "gram_matrix",
]

JACKSON_NODE_CAP = 10**4


@dataclass(frozen=True)
class InnerProductSpec:
    """A discrete inner product: nodes s_i with weights Delta x(s_i - 1/2)."""

    lattice: object
    nodes: tuple


def discrete_inner(spec: InnerProductSpec, f, g) -> complex:
    """sum_i f(s_i) g(s_i) Delta x(s_i - 1/2).

    Callers supply f, g already including the sqrt(rho) factors when the
    summands are orthonormal functions.  An empty grid sums to 0.
    """
    total = complex(0.0)
    for s in spec.nodes:
        total += complex(f(s)) * complex(g(s)) * spec.lattice.delta_x_mid(s)
    return total


def _jackson_zero_to(f, z, base: QBase, tol: float) -> complex:
    if z == 0:
        return complex(0.0)
    q = base.q
    total = complex(0.0)
    node = complex(z)
    settled = 0
    for k in range(JACKSON_NODE_CAP):
        term = complex(f(node)) * node
        total += term
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise NonConvergedError(
                f"Jackson integrand is not finite near node {node:.3e} "
                f"(partial sum overflowed after {k + 1} nodes)"
            )
        node *= q
        if abs(term) <= tol * max(abs(total), 1.0):
            settled += 1
            if settled >= 4:
                return (1.0 - q) * total
        else:
            settled = 0
    raise NonConvergedError(
        f"Jackson integral tail did not decay below {tol} within {JACKSON_NODE_CAP} nodes"
    )


def jackson_integral(f, z1, z2, base: QBase, tol: float = 1e-15) -> complex:
    """int_{z1}^{z2} f(t) d_q t = int_0^{z2} - int_0^{z1}, each as the
    displayed node series.  Requires 0 < q < 1."""
    if not base.allows_infinite_products:
        raise QKernelError(f"Jackson integral requires q < 1, got q={base.q}")
    return _jackson_zero_to(f, z2, base, tol) - _jackson_zero_to(f, z1, base, tol)


def continuous_inner_aw(f, g, weight_density, nodes: int = 2000) -> complex:
    """(1/(2 pi-normalized density)) quadrature of f g over x in (-1, 1):

        int f(x) g(x) weight_density(x) / sqrt(1-x^2) dx

    computed as a Gauss--Legendre rule in theta (x = cos theta), where the
    integrand is smooth.  `weight_density` must already include any 1/(2 pi)
    normalization.
    """
    if nodes < 2:
        raise QKernelError("quadrature needs at least 2 nodes")
    t, w = np.polynomial.legendre.leggauss(nodes)
    theta = (t + 1.0) * (math.pi / 2.0)
    total = complex(0.0)
    for th, wi in zip(theta, w):
        x = math.cos(th)
        total += wi * complex(f(x)) * complex(g(x)) * complex(weight_density(x))
    return total * (math.pi / 2.0)


def continuous_inner_aw_converged(f, g, weight_density, start_nodes: int = 250,
                                  rel_tol: float = 1e-9, max_doublings: int = 4,
                                  scale: float = 1.0):
    """Node-doubling convergence loop around `continuous_inner_aw`.

    Settles when doubling changes the value by less than rel_tol relative to
    max(|value|, scale); `scale` supplies the natural magnitude for entries
    whose true value is 0 (off-diagonal Gram entries).  Returns
    (value, history) with history the list of (nodes, value) visited; raises
    NonConvergedError when doubling never settles.
    """
    nodes = start_nodes
    prev = continuous_inner_aw(f, g, weight_density, nodes)
    history = [(nodes, prev)]
    for _ in range(max_doublings):
        nodes *= 2
        cur = continuous_inner_aw(f, g, weight_density, nodes)
        history.append((nodes, cur))
        if abs(cur - prev) <= rel_tol * max(abs(cur), abs(scale), 1e-30):
            return cur, history
        prev = cur
    raise NonConvergedError(
        f"quadrature did not settle to {rel_tol} after {max_doublings} doublings"
    )


def gram_matrix(of, N: int) -> np.ndarray:
    """(N+1) x (N+1) matrix of inner products of the orthonormal functions
    phi_0..phi_N of an OrthonormalFamily, using the family's support.

    Entries are computed once per unordered pair and mirrored, so the matrix
    is symmetric by construction.
    """
    fam = of.family
    kind = fam.support.kind
    G = np.zeros((N + 1, N + 1), dtype=complex)
    if kind == "discrete_grid":
        spec = InnerProductSpec(fam.lattice, tuple(fam.support.grid_points))
        for n in range(N + 1):
            for m in range(n, N + 1):
                val = discrete_inner(spec, lambda s, n=n: of.phi(n, s),
                                     lambda s, m=m: of.phi(m, s))
                G[n, m] = G[m, n] = val
        return G
    if kind == "jackson_integral":
        for n in range(N + 1):
            for m in range(n, N + 1):
                val = jackson_integral(
                    lambda x, n=n, m=m: of.phi_point(n, x) * of.phi_point(m, x),
                    fam.support.lo,
                    fam.support.hi,
                    fam.base,
                )
                G[n, m] = G[m, n] = val
        return G
    if kind == "continuous_interval":
        dens = fam.closed.displays["weight_density"]
        for n in range(N + 1):
            for m in range(n, N + 1):
                scale = abs(fam.d_n(n) * fam.d_n(m))
                val, _ = continuous_inner_aw_converged(
                    lambda x, n=n: fam.pn_ttrr_x(n, x),
                    lambda x, m=m: fam.pn_ttrr_x(m, x),
                    dens,
                    scale=scale,
                )
                G[n, m] = G[m, n] = val / (fam.d_n(n) * fam.d_n(m))
        return G
    raise QKernelError(f"no inner product available for support kind {kind!r}")
