"""Kernel laws, oracles and guards of the genus bounds; the anchor values
themselves are asserted by ``verify`` (bounds checks)."""

from math import comb

import pytest

from cicy_bundles import (
    QUINTIC,
    X24,
    X33,
    UnsupportedBoundError,
    castelnuovo_pi,
    ci_curve_invariants,
    max_curve_degree,
    pi_one,
    plane_genus,
)


def castelnuovo_count(d, r):
    """Castelnuovo's count sum_k max(0, d - 1 - k(r-1)): the genus bound
    read off the Hilbert function of a general hyperplane section."""
    return sum(max(0, d - 1 - k * (r - 1)) for k in range(1, d + 1))


def koszul_invariants(degrees, n):
    """Degree, dualizing twist and genus of a complete-intersection curve from
    its Hilbert polynomial, which the Koszul resolution gives as
    chi(O_C(t)) = sum_k a_k C(n + t - k, n) with a_k from prod(1 - x^d_i)."""
    poly = [1] + [0] * sum(degrees)
    for d in degrees:
        for k in range(len(poly) - 1, d - 1, -1):
            poly[k] -= poly[k - d]
    t = sum(degrees) + 1
    chi = [sum(a * comb(n + s - k, n) for k, a in enumerate(poly)) for s in (t, t + 1)]
    degree = chi[1] - chi[0]
    genus = degree * t + 1 - chi[0]
    omega_twist = (2 * genus - 2) // degree
    return (degree, omega_twist, genus)


@pytest.mark.parametrize("d, r, expected", [
    (d, r, castelnuovo_count(d, r)) for d, r in (
        (6, 3), (7, 3), (8, 3), (5, 4), (6, 4), (7, 4), (11, 4),
        (14, 5), (16, 7), (3, 3))
])
def test_castelnuovo_anchors(d, r, expected):
    assert castelnuovo_pi(d, r) == expected


def test_castelnuovo_guards():
    with pytest.raises(ValueError, match="degenerate"):
        castelnuovo_pi(4, 5)
    with pytest.raises(ValueError, match="plane_genus"):
        castelnuovo_pi(6, 2)


def test_pi_one_refines():
    for r in range(3, 9):
        for d in range(2 * r + 1, 41):
            assert pi_one(d, r) <= castelnuovo_pi(d, r), (d, r)


def test_pi_one_refuses_unverified():
    for r in range(3, 9):
        for d in range(r, 2 * r + 1):
            with pytest.raises(UnsupportedBoundError, match="unsupported"):
                pi_one(d, r)
    with pytest.raises(ValueError):
        pi_one(2, 5)
    with pytest.raises(ValueError, match="needs r >= 3"):
        pi_one(100, 2)


@pytest.mark.parametrize("d, expected", [
    (d, castelnuovo_count(d, 2)) for d in (5, 1, 4, 3)
])
def test_plane_genus(d, expected):
    # Castelnuovo's count is exact for plane curves
    assert plane_genus(d) == expected


@pytest.mark.parametrize("degrees, n, expected", [
    (degrees, n, koszul_invariants(degrees, n)) for degrees, n in (
        ([2, 2, 2, 2], 5), ([1, 1, 2, 4], 5), ([1, 1, 3, 3], 5),
        ([2, 2, 2, 3], 5), ([1, 1, 5], 4), ([2, 2, 2], 4))
])
def test_ci_curve_invariants(degrees, n, expected):
    assert tuple(ci_curve_invariants(degrees, n)) == expected


def test_ci_parity_is_automatic():
    # the parity assertion holds across small inputs
    for a in range(1, 5):
        for b in range(1, 5):
            inv = ci_curve_invariants([a, b], 3)
            assert (inv.degree * inv.omega_twist) % 2 == 0


def test_ci_codimension_guard():
    with pytest.raises(ValueError, match="needs"):
        ci_curve_invariants([1, 1], 2)


def test_max_curve_degree():
    # c1^2 * u caps every curve; rank 2 with c1 = 2 drops the top three degrees
    for ctx in (QUINTIC, X24, X33):
        assert max_curve_degree(ctx, 1, 2) == ctx.u
        assert max_curve_degree(ctx, 2, 3) == 4 * ctx.u
        assert max_curve_degree(ctx, 2, 2) == 4 * ctx.u - 3
    with pytest.raises(ValueError, match="unsupported"):
        max_curve_degree(X24, 3, 2)
