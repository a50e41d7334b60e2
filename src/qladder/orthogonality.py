"""Inner products: finite discrete sums, Jackson q-integrals, and continuous
quadrature on [-1, 1] for the Askey--Wilson measure; Gram matrices.

Every rule makes one pass over its support.  The integrands may return a
scalar or an array (over n, or over pairs (n, m)); the rule then returns the
matching array of inner products, so a Gram matrix evaluates phi_0..phi_N
once per node instead of once per pair.

Discrete sums use the node weights Delta x(s - 1/2); the Jackson integral is

    int_0^z f(t) d_q t = z (1-q) sum_{k>=0} f(z q^k) q^k,   0 < q < 1,

truncated once the tail terms of every entry decay below tolerance (node cap
10^4).  The continuous Askey--Wilson quadrature substitutes x = cos(theta),
where the integrand is smooth and periodic, and applies the midpoint rule
theta_j = (j + 1/2) pi / M (Gauss--Chebyshev in x), which converges
exponentially (Trefethen & Weideman, SIAM Review 56 (2014) 385-458); a
node-doubling loop provides the convergence gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qkernel import NonConvergedError, QBase, QKernelError

__all__ = [
    "QUADRATURE_RULE",
    "InnerProductSpec",
    "discrete_inner",
    "jackson_integral",
    "continuous_inner_aw",
    "gram_matrix",
]

JACKSON_NODE_CAP = 10**4
QUADRATURE_RULE = "midpoint in theta (Gauss-Chebyshev in x) with node doubling"


@dataclass(frozen=True)
class InnerProductSpec:
    """A discrete inner product: nodes s_i with weights Delta x(s_i - 1/2)."""

    lattice: object
    nodes: tuple


def _scalar_or_array(value):
    return complex(value) if np.ndim(value) == 0 else value


def _one(_):
    return 1.0


def discrete_inner(spec: InnerProductSpec, f, g):
    """sum_i f(s_i) g(s_i) Delta x(s_i - 1/2), elementwise for array values.

    Callers supply f, g already including the sqrt(rho) factors when the
    summands are orthonormal functions.  An empty grid sums to 0.
    """
    total = complex(0.0)
    for s in spec.nodes:
        total += f(s) * g(s) * spec.lattice.delta_x_mid(s)
    return _scalar_or_array(total)


def _jackson_zero_to(f, z, base: QBase, tol: float):
    if z == 0:
        return complex(0.0)
    q = base.q
    node = complex(z)
    total, settled, live = 0.0, 0, True
    for k in range(JACKSON_NODE_CAP):
        term = np.asarray(f(node) * node, dtype=complex)
        # an entry stops accumulating once it has settled, so each entry is
        # the sum its scalar integrand alone would give
        total = np.where(live, total + term, total)
        if not np.isfinite(total).all():
            raise NonConvergedError(
                f"Jackson integrand is not finite near node {node:.3e} "
                f"(partial sum overflowed after {k + 1} nodes)"
            )
        node *= q
        small = np.abs(term) <= tol * np.maximum(np.abs(total), 1.0)
        settled = np.where(small, settled + 1, 0)
        live &= settled < 4
        if not live.any():
            return _scalar_or_array((1.0 - q) * total)
    raise NonConvergedError(
        f"Jackson integral tail did not decay below {tol} within {JACKSON_NODE_CAP} nodes"
    )


def jackson_integral(f, z1, z2, base: QBase, tol: float = 1e-15):
    """int_{z1}^{z2} f(t) d_q t = int_0^{z2} - int_0^{z1}, each as the
    displayed node series, elementwise for array values; every entry must
    settle for 4 consecutive nodes.  Requires 0 < q < 1."""
    if not base.allows_infinite_products:
        raise QKernelError(f"Jackson integral requires q < 1, got q={base.q}")
    return _jackson_zero_to(f, z2, base, tol) - _jackson_zero_to(f, z1, base, tol)


def continuous_inner_aw(f, g, weight_density, nodes: int = 2000):
    """Quadrature of f g over x in (-1, 1) against the density:

        int f(x) g(x) weight_density(x) / sqrt(1-x^2) dx

    computed as the midpoint rule in theta (x = cos theta), where the
    integrand is smooth and periodic.  f, g and `weight_density` are called
    once, on the array of all nodes, and return arrays whose last axis runs
    over the nodes (or scalars); the result has the remaining shape.
    `weight_density` must already include any 1/(2 pi) normalization.
    """
    if nodes < 2:
        raise QKernelError("quadrature needs at least 2 nodes")
    x = np.cos((np.arange(nodes) + 0.5) * (math.pi / nodes))
    w = np.full(nodes, math.pi / nodes)
    return _scalar_or_array((f(x) * g(x) * weight_density(x) * w).sum(axis=-1))


def continuous_inner_aw_converged(f, g, weight_density, start_nodes: int = 250,
                                  rel_tol: float = 1e-9, max_doublings: int = 4,
                                  scale=1.0):
    """Node-doubling convergence loop around `continuous_inner_aw`.

    Settles when doubling changes every entry by less than rel_tol relative
    to max(|value|, scale); `scale` (a scalar or an array matching the
    value) supplies the natural magnitude for entries whose true value is 0
    (off-diagonal Gram entries).  Returns (value, history) with history the
    list of (nodes, value) visited; raises NonConvergedError when doubling
    never settles.
    """
    nodes = start_nodes
    prev = continuous_inner_aw(f, g, weight_density, nodes)
    history = [(nodes, prev)]
    for _ in range(max_doublings):
        nodes *= 2
        cur = continuous_inner_aw(f, g, weight_density, nodes)
        history.append((nodes, cur))
        bound = rel_tol * np.maximum(np.maximum(np.abs(cur), np.abs(scale)), 1e-30)
        if np.all(np.abs(cur - prev) <= bound):
            return cur, history
        prev = cur
    raise NonConvergedError(
        f"quadrature did not settle to {rel_tol} after {max_doublings} doublings"
    )


def _outer(v):
    """v_n v_m over the leading axis of v (any trailing node axis kept)."""
    return v[:, None] * v[None]


def gram_matrix(of, N: int) -> np.ndarray:
    """(N+1) x (N+1) matrix of inner products of the orthonormal functions
    phi_0..phi_N of an OrthonormalFamily, using the family's support.

    One rule call per support: the integrand is the matrix phi_n phi_m at a
    node (P_n P_m over the node array on the continuous support), so each
    phi_n is evaluated once per node and the matrix is symmetric by
    construction.
    """
    fam = of.family
    sup = fam.support
    ns = range(N + 1)
    if sup.kind == "discrete_grid":
        spec = InnerProductSpec(fam.lattice, tuple(sup.grid_points))
        phis = lambda s: np.array([of.phi(n, s) for n in ns])
        return discrete_inner(spec, lambda s: _outer(phis(s)), _one)
    if sup.kind == "jackson_integral":
        return jackson_integral(
            lambda x: _outer(np.array([of.phi_point(n, x) for n in ns])),
            sup.lo, sup.hi, fam.base,
        )
    if sup.kind == "continuous_interval":
        dd = _outer(np.array([fam.d_n(n) for n in ns]))
        val, _ = continuous_inner_aw_converged(
            lambda x: _outer(np.array([np.broadcast_to(fam.pn_ttrr_x(n, x), x.shape)
                                       for n in ns])),
            _one,
            fam.closed.displays["weight_density"],
            scale=np.abs(dd),
        )
        return val / dd
    raise QKernelError(f"no inner product available for support kind {sup.kind!r}")
