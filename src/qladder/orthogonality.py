"""Inner products: finite discrete sums, Jackson q-integrals, and continuous
quadrature on [-1, 1] for the Askey--Wilson measure; Gram matrices.

Every rule makes one pass over its support and calls its integrands on node
arrays: an integrand returns a scalar or an array whose last axis runs over
the nodes (its leading axes over n, or over pairs (n, m)), and the rule
returns the matching ndarray of inner products, 0-d for a scalar integrand
(a caller that wants a number takes complex() of it).  A family integrates
its measure once per N, by its lattice kind's rule (`FamilySpec.p_gram`), and
the Gram matrix, the grid sum's d_0^2 and the convention ratio read it.

Discrete sums use the node weights Delta x(s - 1/2); the Jackson integral is

    int_0^z f(t) d_q t = z (1-q) sum_{k>=0} f(z q^k) q^k,   0 < q < 1,

(Gasper & Rahman, Basic Hypergeometric Series, 2nd ed., 2004, section 1.11),
summed in passes from the endpoints, one sweep for both endpoints of
int_{z1}^{z2}; each entry at each endpoint stops at its own 4th consecutive
node whose term is below tolerance relative to max(|running sum|, scale), as
a node-by-node sum would.  The first pass is sized for Gram entries, which
settle against |d_n d_m|, so a Gram is typically one f call; a sweep that
has not settled runs again from the endpoints on twice the nodes (node cap
10^4).
The continuous Askey--Wilson quadrature substitutes x = cos(theta),
where the integrand is smooth and periodic, and applies the trapezoidal rule
theta_j = j pi / M, j = 0..M, half weight at both ends (Gauss--Chebyshev--
Lobatto in x), which converges exponentially (Trefethen & Weideman, SIAM
Review 56 (2014) 385-458).  Its nodes nest under doubling, so the
convergence gate evaluates each node once: one call on the 2M + 1 nodes of
the first two levels, then one call on the new midpoints per doubling.  The
loop starts coarse (M = 32) and doubles up to 4096 panels, so a Gram stops
at the coarsest level that settles (64 panels for most measures).  A
continuous Gram runs that loop once, on the whole matrix, and hands out its
history beside the matrix, so a report of the quadrature (the `gram`
command's node history) describes the evaluations that made the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qkernel import NonConvergedError, QBase, QKernelError, _q_orbit

__all__ = [
    "QUADRATURE_RULE",
    "InnerProductSpec",
    "discrete_inner",
    "jackson_integral",
    "continuous_inner_aw",
    "gram_matrix",
]

JACKSON_NODE_CAP = 10**4
JACKSON_TOL = 1e-15  # a Jackson term below it (relative to the running sum, or scale) is small
QUADRATURE_RULE = "trapezoid in theta (Gauss-Chebyshev-Lobatto in x) with nested node doubling"
# the node-doubling loop: first panel count, settling tolerance, doublings allowed
QUADRATURE_START_NODES, QUADRATURE_REL_TOL, QUADRATURE_MAX_DOUBLINGS = 32, 1e-9, 7


@dataclass(frozen=True)
class InnerProductSpec:
    """A discrete inner product: nodes s_i with weights Delta x(s_i - 1/2)."""

    lattice: object
    nodes: tuple


def _one(_):
    return 1.0


def discrete_inner(spec: InnerProductSpec, f, g):
    """sum_i f(s_i) g(s_i) Delta x(s_i - 1/2) as an ndarray (0-d for scalar terms).

    f and g are called once, on the array of all nodes.  An empty grid sums
    to 0; a term that is not finite raises QKernelError naming its node.
    """
    s = np.array(spec.nodes, dtype=complex)
    with np.errstate(all="ignore"):  # a term that is not finite is refused below
        terms = np.asarray(f(s) * g(s) * spec.lattice.delta_x_mid(s), dtype=complex)
    bad = ~np.isfinite(terms).all(axis=tuple(range(terms.ndim - 1)))  # per node
    if bad.any():
        raise QKernelError(f"discrete sum term is not finite at node s = {s[bad.argmax()]:g}")
    return _running_sums(terms)[..., -1]


def _running_sums(terms):
    """Running sums from a 0 column along the node axis: a node-by-node sum's rounding."""
    return np.cumsum(np.concatenate([np.zeros((*terms.shape[:-1], 1)), terms], axis=-1), axis=-1)


def _first(mask):
    """Index of the first True along the last axis of a 2-d mask, or its
    length where there is none."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), mask.shape[-1])


def _jackson_block(q: float) -> int:
    """Nodes in the first pass: a Gram entry's terms take about 2 log(JACKSON_TOL)/log(q)
    nodes to fall below JACKSON_TOL |d_n d_m| (|d_n d_m| reaches 1e-23), then 4 settle."""
    return min(math.ceil(2.0 * math.log(JACKSON_TOL) / math.log(q)) + 4, JACKSON_NODE_CAP)


def _jackson_zero_to(f, zs, base: QBase, scale):
    """int_0^z f(t) d_q t for each z != 0 of the 1-d array zs, endpoints last:
    a pass calls f once on the (endpoints, size) nodes z q^k, k < size, and
    every (entry, endpoint) stops at its own 4th consecutive small term.  While
    one has not stopped, the next pass starts again from the endpoints on
    twice the nodes, up to JACKSON_NODE_CAP."""
    q, size = base.q, _jackson_block(base.q)
    while True:
        # nodes past an entry's stop are evaluated but never read: whatever
        # they give must neither raise nor warn
        with np.errstate(all="ignore"):
            nodes = _q_orbit(zs, q, size)  # z q^k
            terms = np.asarray(f(nodes) * nodes, dtype=complex)
            shape, terms = terms.shape[:-1], terms.reshape(-1, size)
            floor = np.broadcast_to(np.abs(np.asarray(scale))[..., None], shape).reshape(-1, 1)
            sums = _running_sums(terms)[:, 1:]
            small = np.abs(terms) <= JACKSON_TOL * np.maximum(np.abs(sums), floor)
        # an entry stops at its 4th consecutive small term (size where it does not)
        stop = _first(small[:, :-3] & small[:, 1:-2] & small[:, 2:-1] & small[:, 3:]) + 3
        bad = _first(~np.isfinite(sums))
        hit = np.flatnonzero((bad < size) & (bad <= stop))
        if hit.size:
            row = hit[bad[hit].argmin()]  # rows run over (entry, endpoint)
            node = complex(nodes[row % len(zs), bad[row]])
            raise NonConvergedError(
                f"Jackson integrand is not finite near node {node:.3e} "
                f"(partial sum overflowed after {bad[row] + 1} nodes)"
            )
        if (stop < size).all():
            return (1.0 - q) * sums[np.arange(len(sums)), stop].reshape(shape)
        if size == JACKSON_NODE_CAP:
            raise NonConvergedError(f"Jackson integral tail did not decay below {JACKSON_TOL} "
                                    f"within {JACKSON_NODE_CAP} nodes")
        size = min(2 * size, JACKSON_NODE_CAP)


def jackson_integral(f, z1, z2, base: QBase, scale=1.0):
    """int_{z1}^{z2} f(t) d_q t = int_0^{z2} - int_0^{z1}, each as the
    displayed node series, as an ndarray of the integrand's leading shape
    (0-d for a scalar integrand).  An entry settles
    at 4 consecutive terms of at most JACKSON_TOL max(|running sum|, scale);
    `scale` is its natural magnitude, as in `continuous_inner_aw_converged`
    (the default 1 stops an entry far below 1 too early, 0 settles on the
    running sum alone).  One sweep serves both endpoints: f is called once
    per pass, on an (endpoints, size) node array from the endpoints.
    Requires 0 < q < 1."""
    if not base.allows_infinite_products:
        raise QKernelError(f"Jackson integral requires q < 1, got q={base.q}")
    zs = [complex(z) for z in (z1, z2) if z != 0]
    values = list(np.moveaxis(_jackson_zero_to(f, np.array(zs), base, scale), -1, 0)) if zs else []
    lo, hi = (values.pop(0) if z != 0 else complex(0.0) for z in (z1, z2))
    return np.asarray(hi - lo)


def _aw_values(f, g, weight_density, theta):
    """f g weight_density at x = cos(theta) for the 1-d array theta, node axis
    last; a value that is not finite raises NonConvergedError naming its node."""
    x = np.cos(theta)
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        v = np.asarray(f(x) * g(x) * weight_density(x))
        total = v.sum()
    if not np.isfinite(total):  # a finite total has only finite values
        bad = ~np.isfinite(v).all(axis=tuple(range(v.ndim - 1)))  # per node
        if bad.any():
            raise NonConvergedError(
                f"quadrature integrand is not finite at node x = {x[bad.argmax()]:g}")
    return np.broadcast_to(v, np.broadcast_shapes(v.shape, x.shape))


def _panel_sum(v):
    """The trapezoid sum of equispaced values (node axis last), before the step."""
    return (v[..., 0] + v[..., -1]) / 2 + v[..., 1:-1].sum(axis=-1)


def continuous_inner_aw(f, g, weight_density, nodes: int = 2000):
    """Quadrature of f g over x in (-1, 1) against the density:

        int f(x) g(x) weight_density(x) / sqrt(1-x^2) dx

    computed as the trapezoidal rule in theta (x = cos theta) on `nodes`
    panels, theta_j = j pi / nodes for j = 0..nodes, where the integrand is
    smooth and periodic.  f, g and `weight_density` are called once, on the
    array of all nodes, and return arrays whose last axis runs over the nodes
    (or scalars); the result is the ndarray of the remaining shape (0-d for
    scalars).  `weight_density` must already include any 1/(2 pi)
    normalization.
    """
    if nodes < 1:
        raise QKernelError("quadrature needs at least 1 panel")
    v = _aw_values(f, g, weight_density, np.arange(nodes + 1) * (math.pi / nodes))
    return np.asarray(_panel_sum(v) * (math.pi / nodes))


def continuous_inner_aw_converged(f, g, weight_density, scale=1.0):
    """Nested node-doubling loop of the rule of `continuous_inner_aw`, from
    QUADRATURE_START_NODES panels.

    Each node is evaluated once: the first call of f, g and the density covers
    the 2M + 1 nodes of the first two levels (M panels read from the
    even-indexed values), and each further doubling from P panels evaluates
    only the P new midpoints, in one call.  Settles when doubling changes
    every entry by less than QUADRATURE_REL_TOL relative to max(|value|,
    scale); `scale` (a scalar or an array matching the value) supplies the
    natural magnitude for entries whose true value is 0 (off-diagonal Gram
    entries).  The trapezoid converges exponentially here, so the loop stops
    at the first level whose doubling settles, from M = 32 to at most
    32 * 2^7 = 4096 panels.  Returns (value, history) with history the list
    of (panels, value) visited; raises NonConvergedError when
    QUADRATURE_MAX_DOUBLINGS doublings never settle, naming the finest panel
    count and the largest relative change between its last two levels.
    """
    panels = QUADRATURE_START_NODES
    v = _aw_values(f, g, weight_density, np.arange(2 * panels + 1) * (math.pi / (2 * panels)))
    total, mids = _panel_sum(v[..., ::2]), v[..., 1::2]
    history = [(panels, np.asarray(total * (math.pi / panels)))]
    for doubling in range(QUADRATURE_MAX_DOUBLINGS):
        if doubling:
            mids = _aw_values(f, g, weight_density, (np.arange(panels) + 0.5) * (math.pi / panels))
        prev = history[-1][1]
        total = total + mids.sum(axis=-1)
        panels *= 2
        cur = np.asarray(total * (math.pi / panels))
        history.append((panels, cur))
        floor = np.maximum(np.maximum(np.abs(cur), np.abs(scale)), 1e-30)
        if np.all(np.abs(cur - prev) <= QUADRATURE_REL_TOL * floor):
            return cur, history
    raise NonConvergedError(f"quadrature did not settle to {QUADRATURE_REL_TOL} after "
                            f"{QUADRATURE_MAX_DOUBLINGS} doublings ({panels} panels; largest "
                            f"change {np.max(np.abs(cur - prev) / floor):.1e})")


def _outer(v):
    """v_n v_m over the leading axis of v (any trailing node axis kept)."""
    return v[:, None] * v[None]


def gram_matrix(fam, N: int):
    """(G, history): G is the (N+1) x (N+1) matrix of inner products of the
    orthonormal functions phi_0..phi_N of a family: the integrals of
    P_n P_m w over its support divided by d_n d_m.  history is that of
    `FamilySpec.p_gram`: the continuous quadrature's node-doubling loop, as
    (panels, unnormalised matrix) pairs, or [] for sums and Jackson integrals.
    """
    M, history = fam.p_gram(N)
    return M / _outer(fam.d_n(range(N + 1))), history
