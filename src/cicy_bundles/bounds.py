"""Genus bounds, complete-intersection curve invariants, union genera and
liaison degrees.

Castelnuovo's bound pi(d, r) caps the arithmetic genus of an integral
nondegenerate degree-d curve in P^r; pi_one is the refinement for curves not
lying on a surface of minimal degree.  Both are used as pruning rules by the
classifier.
"""

from __future__ import annotations

from typing import NamedTuple

from .chow import CicyContext


class UnsupportedBoundError(ValueError):
    """Raised when a refined bound is requested outside its valid range."""


class LiaisonError(ValueError):
    """The liaison equation has no positive integer solution."""


def castelnuovo_pi(d: int, r: int) -> int:
    """Castelnuovo bound for integral nondegenerate degree-d curves in P^r.

    With m = floor((d-1)/(r-1)) and eps = (d-1) - m(r-1):
    pi(d, r) = m(m-1)(r-1)/2 + m*eps.  Requires d >= r >= 3; plane curves
    have the exact genus formula instead (see plane_genus).
    """
    if r < 3:
        raise ValueError("castelnuovo_pi needs r >= 3; use plane_genus for r = 2")
    if d < r:
        raise ValueError(f"degenerate for this span: degree {d} < span {r}")
    m, eps = divmod(d - 1, r - 1)
    return m * (m - 1) * (r - 1) // 2 + m * eps


def pi_one(d: int, r: int) -> int:
    """Harris's bound for integral nondegenerate curves on no surface of
    degree below r in P^r (Eisenbud-Harris, Curves in projective space).

    With d - 1 = m1*r + eps1: pi_1(d, r) = m1(m1-1)r/2 + m1(eps1+1) + mu1,
    where mu1 = 1 exactly when eps1 = r - 1.  Valid for d >= 2r + 1; below
    that, UnsupportedBoundError.
    """
    if r < 3:
        raise ValueError(f"pi_one needs r >= 3, got r = {r}")
    if d < r:
        raise ValueError(f"degenerate for this span: degree {d} < span {r}")
    if d < 2 * r + 1:
        raise UnsupportedBoundError(
            f"unsupported: the refined bound needs d >= 2r + 1, got (d, r) = ({d}, {r})")
    m1, eps1 = divmod(d - 1, r)
    return m1 * (m1 - 1) * r // 2 + m1 * (eps1 + 1) + (eps1 == r - 1)


def plane_genus(d: int) -> int:
    """Genus (d-1)(d-2)/2 of a smooth plane curve of degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return (d - 1) * (d - 2) // 2


class CurveInvariants(NamedTuple):
    degree: int
    omega_twist: int
    genus: int


def ci_curve_invariants(degrees: list[int], n: int) -> CurveInvariants:
    """Degree, dualizing twist and genus of a complete-intersection curve.

    A curve cut by n-1 hypersurfaces of the given degrees in P^n has
    degree = prod(d_i), omega = O(sum(d_i) - n - 1) by adjunction, and
    2g - 2 = degree * omega_twist, always even: with every d_i odd, the sum
    of the n - 1 degrees has the parity of n - 1.
    """
    if len(degrees) != n - 1:
        raise ValueError(
            f"a curve in P^{n} needs {n - 1} hypersurface degrees, got {len(degrees)}"
        )
    if any(d < 1 for d in degrees):
        raise ValueError("hypersurface degrees must be positive")
    degree = 1
    for d in degrees:
        degree *= d
    omega_twist = sum(degrees) - n - 1
    return CurveInvariants(degree, omega_twist, degree * omega_twist // 2 + 1)


def max_curve_degree(ctx: CicyContext, c1: int, rank: int) -> int:
    """Degree cap for the curve associated to a spanned bundle with det O(c1).

    The curve sits in the intersection of two sections of O(c1), so its
    degree is at most c1^2 * u.  For rank 2 and c1 = 2 the top three values
    are excluded (the extremes force the wrong dualizing twist), giving
    4u - 3.  For c1 = 1 the cap is the degree u of a bi-hyperplane section.
    """
    if c1 == 1:
        return ctx.u
    if c1 == 2:
        if rank == 2:
            return 4 * ctx.u - 3
        return 4 * ctx.u
    raise ValueError(f"unsupported first Chern class {c1}; only 1 and 2 are in range")


def union_genus(genera: list[int], pairwise_meets: int = 0) -> int:
    """Arithmetic genus of a nodal union: sum(g_i) - s + 1 + total meets."""
    if pairwise_meets < 0:
        raise ValueError("meeting count must be nonnegative")
    if not genera:
        raise ValueError("need at least one part")
    return sum(genera) - len(genera) + 1 + pairwise_meets


def liaison_solve(
    total_degree: int, omega_twist_total: int, omega_twist_target: int, cutting_degree: int
) -> int:
    """Degree of the admissible piece of a linked complete-intersection curve.

    Inside a complete intersection of total degree `total_degree` with
    dualizing twist `omega_twist_total`, a piece C with twist
    `omega_twist_target` linked by a hypersurface of degree `cutting_degree`
    satisfies (twist_total - twist_target) * d = cutting_degree * (total - d).
    With a positive twist gap, an exact quotient solves it with 0 < d < total.
    """
    if min(total_degree, cutting_degree) < 1:
        raise ValueError("degrees must be positive")
    coeff = omega_twist_total - omega_twist_target
    if coeff <= 0:
        raise LiaisonError("no liaison solution: target twist must be below the total twist")
    numerator = cutting_degree * total_degree
    denominator = coeff + cutting_degree
    if numerator % denominator:
        raise LiaisonError("no liaison solution: degree is not an integer")
    return numerator // denominator
