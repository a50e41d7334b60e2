import math
from dataclasses import replace

import pytest

from qladder.families import make_family, reference_params
from qladder.qkernel import QBase

REFERENCE_Q = 0.5

FAMILY_NAMES = (
    "asc1",
    "asc2",
    "big_q_jacobi",
    "q_dual_hahn",
    "askey_wilson",
    "continuous_q_hermite",
)


@pytest.fixture(scope="session")
def base():
    return QBase(REFERENCE_Q)


@pytest.fixture(scope="session")
def families(base):
    """All six families at the reference parameter sets (shared; FamilySpec
    caches are read-mostly and tests must not mutate them)."""
    return {name: make_family(name, reference_params(name), base) for name in FAMILY_NAMES}


def grid_for(name, count=5):
    """Default nondegenerate check grids (s-chain anchors, theta points)."""
    if name in ("asc1", "asc2", "big_q_jacobi"):
        return [0.25 + k for k in range(count)]
    if name == "q_dual_hahn":
        return [0.3 + k for k in range(count)]
    lnq = math.log(REFERENCE_Q)
    return [complex(0.0, 1.0) * ((j + 0.5) * math.pi / (count + 1)) / lnq for j in range(count)]


# real lattices whose default grid is 0.25 + k: every point sum is exact, so
# array and point-by-point evaluation agree bit for bit
EXACT_FAMILIES = ("asc1", "asc2", "big_q_jacobi")


def assert_matches_reference(got, want, name):
    """Bit for bit on EXACT_FAMILIES, else within max(1e-14, 1% relative)."""
    if name in EXACT_FAMILIES:
        assert got == want
    else:
        assert abs(got - want) <= max(1e-14, 0.01 * abs(want)), (got, want)


def worst_at(rep, ns):
    """The largest residual of a report's cases at the n in ns: where a
    suite's sweep is wider than ns, only the n a caller asked for meet its
    bound."""
    ns = set(ns)
    return max((c.residual for c in rep.cases if c.n in ns), default=0.0)


def truncated(fam):
    """fam with its discrete support one node short: the sums of the
    self-adjointness check lose their boundary condition (a negative
    control)."""
    lo, hi = fam.support
    return replace(fam, support=(lo, hi - 1))
