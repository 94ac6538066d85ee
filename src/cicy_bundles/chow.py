"""Exact arithmetic in the truncated Chow ring of a CICY threefold.

Everything here is a pure function of immutable values and all arithmetic is
exact; no floating point is used anywhere.  The working ring is Q[H]/(H^4),
where H is the hyperplane class of the ambient projective space restricted to
the threefold.  A `TruncatedClass` holds four integer numerators over one
positive common denominator in lowest terms, so ring products and inverses
are integer arithmetic with one gcd per result.  `Fraction`s appear only in
its `coeffs` view, in Euler characteristics and where its constructor is
handed a coefficient that is not an exact `int` or `Fraction`.  Resolutions
never leave Z[H]/(H^4): `chern_from_resolution` works on plain integer
coefficients, with no class objects at all.

The two value types are plain classes that keep what `@dataclass(frozen=True)`
would generate: `dataclasses` imports `inspect`, the largest import a `chi`
cold start would make.  `BundleInvariants` is a `collections.namedtuple`, whose
module `fractions` already loads; `typing` would add 3 to 4 ms to that start.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

#: The five multidegrees of smooth complete-intersection Calabi-Yau threefolds.
KNOWN_MULTIDEGREES: tuple[tuple[int, ...], ...] = (
    (5,),
    (2, 4),
    (3, 3),
    (2, 2, 3),
    (2, 2, 2, 2),
)


class NotInvertibleError(ValueError):
    """Raised when inverting a truncated class with zero constant term."""


def _comb0(top: int, bottom: int) -> int:
    """Binomial coefficient with C(top, bottom) = 0 whenever top < bottom."""
    if top < bottom:
        return 0
    return math.comb(top, bottom)


_new = object.__new__
_set = object.__setattr__


class _Frozen:
    """Base of the two value types: no attribute can be set or deleted.  Instances
    are built with `object.__setattr__`; pickle and deepcopy restore their
    `__dict__`.  Each type spells out its own `__eq__`, `__hash__` and
    `__repr__`, as a frozen dataclass would: `verify` compares and formats
    ring classes thousands of times per pass."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CicyContext(_Frozen):
    """One complete-intersection Calabi-Yau threefold, given by its multidegree.

    In strict mode (the default) only the five smooth CICY multidegrees are
    accepted.  Lax mode accepts any multidegree satisfying the Calabi-Yau
    condition (degrees summing to ambient dimension + 1).  Two contexts are
    equal when their multidegrees are.
    """

    multidegree: tuple[int, ...]
    strict: bool
    #: Dimension n of the ambient projective space (codimension + 3).
    ambient_dim: int
    #: Degree of the threefold, the product of the defining degrees.
    u: int

    def __init__(self, multidegree, strict: bool = True) -> None:
        md = tuple(sorted(operator.index(d) for d in multidegree))
        _set(self, "multidegree", md)
        _set(self, "strict", strict)
        if not md or any(d < 1 for d in md):
            raise ValueError("multidegree must be a nonempty list of positive integers")
        # set once here: the judge reads both on its hot path
        _set(self, "ambient_dim", len(md) + 3)
        _set(self, "u", math.prod(md))
        if strict:
            if md not in KNOWN_MULTIDEGREES:
                names = ", ".join(",".join(map(str, m)) for m in KNOWN_MULTIDEGREES)
                raise ValueError(f"unknown threefold {md}; valid multidegrees: {names}")
            return
        if sum(md) != self.ambient_dim + 1:
            raise ValueError(
                f"multidegree {md} is not Calabi-Yau: degrees must sum to "
                f"{self.ambient_dim + 1} in P^{self.ambient_dim}"
            )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.multidegree,) == (other.multidegree,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.multidegree,))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(multidegree={self.multidegree!r}, "
                f"strict={self.strict!r})")

    def label(self) -> str:
        return ",".join(str(d) for d in self.multidegree)


ALL_CONTEXTS = QUINTIC, X24, X33, X223, X2222 = tuple(map(CicyContext, KNOWN_MULTIDEGREES))

#: The degree aliases "X5" to "X16": the five degrees u are distinct.
_ALIASES = {f"X{ctx.u}": ctx.multidegree for ctx in ALL_CONTEXTS}


def _reduced(numerators: tuple[int, int, int, int], denominator: int) -> "TruncatedClass":
    """The class numerators / denominator (denominator > 0), in lowest terms."""
    g = math.gcd(*numerators, denominator)
    if g != 1:
        numerators = tuple(n // g for n in numerators)
        denominator //= g
    value = _new(TruncatedClass)
    _set(value, "numerators", numerators)
    _set(value, "denominator", denominator)
    return value


#: Coefficient types whose `numerator`/`denominator` the constructor reads as is.
_EXACT = frozenset((int, Fraction))


class TruncatedClass(_Frozen):
    """Polynomial a0 + a1*H + a2*H^2 + a3*H^3 with rational coefficients, H^4 = 0.

    Stored as four integer `numerators` over one positive `denominator`, in
    lowest terms, so each spelling of a class has one representation and
    `ring_mul` and `ring_invert` are integer arithmetic with one gcd per
    result.  `coeffs` is the rational view, built as four `Fraction`s only
    when it is read.  Instances are immutable values with no arithmetic
    operators: the ring's arithmetic is `ring_mul` and `ring_invert`.
    """

    numerators: tuple[int, int, int, int]
    denominator: int

    def __init__(self, coeffs) -> None:
        # exact ints and Fractions are already in lowest terms; anything else,
        # bools and subclasses included, is read through Fraction
        values = [c if type(c) in _EXACT else Fraction(c) for c in coeffs]
        if len(values) != 4:
            raise ValueError("a truncated class has exactly 4 coefficients")
        a, b, c, d = values
        # over the lcm of reduced denominators the numerators share no factor
        denominator = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        _set(self, "numerators", (a.numerator * (denominator // a.denominator),
                                  b.numerator * (denominator // b.denominator),
                                  c.numerator * (denominator // c.denominator),
                                  d.numerator * (denominator // d.denominator)))
        _set(self, "denominator", denominator)

    @classmethod
    def of(cls, *coeffs) -> "TruncatedClass":
        return cls(coeffs + (0,) * (4 - len(coeffs)))

    @classmethod
    def unit(cls) -> "TruncatedClass":
        return _reduced((1, 0, 0, 0), 1)

    @classmethod
    def line(cls, twist: int) -> "TruncatedClass":
        """Total Chern class 1 + t*H of the line bundle O(t)."""
        return _reduced((1, twist, 0, 0), 1)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.numerators, self.denominator) == (other.numerators, other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(numerators={self.numerators!r}, "
                f"denominator={self.denominator!r})")

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


def ring_mul(x: TruncatedClass, y: TruncatedClass) -> TruncatedClass:
    """Product in Q[H]/(H^4); commutative and associative with unit (1,0,0,0)."""
    a0, a1, a2, a3 = x.numerators
    b0, b1, b2, b3 = y.numerators
    return _reduced(
        (
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a1 * b1 + a2 * b0,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        ),
        x.denominator * y.denominator,
    )


def ring_invert(x: TruncatedClass) -> TruncatedClass:
    """Two-sided inverse under ring_mul; requires a nonzero constant term.

    With numerators a_i over D, the inverse is D * B_k / a0^(k+1), where
    B_0 = 1 and B_k = -sum_{i=1..k} a_i * B_(k-i) * a0^(i-1)."""
    a0, a1, a2, a3 = x.numerators
    if a0 == 0:
        raise NotInvertibleError("not invertible: constant term is zero")
    b1 = -a1
    b2 = -(a1 * b1 + a2 * a0)
    b3 = -(a1 * b2 + a2 * b1 * a0 + a3 * a0 * a0)
    d = x.denominator
    square = a0 * a0
    # the common denominator a0^4 is positive whatever the sign of a0
    return _reduced((d * square * a0, d * b1 * square, d * b2 * a0, d * b3),
                    square * square)


class BundleInvariants(namedtuple("BundleInvariants", "rank c1 c2 c3", defaults=(None,))):
    """Rank and Chern numbers of a bundle, in the curve-degree convention.

    c2 is the degree of the associated curve in the ambient projective space,
    i.e. the H^2-coefficient of the Chern class times the threefold degree u.
    Instances are immutable.
    """

    __slots__ = ()

    def as_pair(self) -> tuple[int, int]:
        return (self.c1, self.c2)


def chern_from_resolution(
    sub_twists: list[int], quot_twists: list[int], ctx: CicyContext
) -> BundleInvariants:
    """Invariants of the bundle E in 0 -> (+)O(s_i) -> (+)O(q_j) -> E -> 0.

    By the Whitney formula c(E) = prod(1 + q_j H) / prod(1 + s_i H), truncated
    in degree 3.  The same arithmetic computes kernels 0 -> E -> (+)O(q_j) ->
    (+)O(s_i) -> 0, since only the Chern-class quotient matters.

    Every factor has constant term 1, so the quotient lies in Z[H]/(H^4): its
    numerator has the elementary symmetric sums e_k of the q_j as coefficients,
    and 1 / prod(1 + s_i H) has the complete homogeneous sums h_k of the -s_i.
    Twists must be integers (`operator.index`), as in the ring.
    """
    rank = len(quot_twists) - len(sub_twists)
    if rank < 1:
        raise ValueError("rank <= 0: need more quotient twists than sub twists")
    e1 = e2 = e3 = 0
    for q in map(operator.index, quot_twists):
        # times (1 + qH)
        e3 += e2 * q
        e2 += e1 * q
        e1 += q
    h1 = h2 = h3 = 0
    for s in map(operator.index, sub_twists):
        # times 1 / (1 + sH) = 1 - sH + s^2 H^2 - s^3 H^3
        h1 -= s
        h2 -= s * h1
        h3 -= s * h2
    u = ctx.u
    return BundleInvariants(rank=rank, c1=e1 + h1, c2=(e2 + e1 * h1 + h2) * u,
                            c3=(e3 + e2 * h1 + e1 * h2 + h3) * u)


def chern_of_extension(a: int, b: int, z_degree: int, ctx: CicyContext) -> BundleInvariants:
    """Rank-2 invariants of an extension 0 -> O(a) -> E -> I_Z(b) -> 0.

    Z is a curve of degree z_degree (possibly empty); c2 picks up the degree
    of Z on top of the split part: c2 = a*b*u + deg(Z).
    """
    if z_degree < 0:
        raise ValueError("z_degree must be nonnegative")
    return BundleInvariants(rank=2, c1=a + b, c2=a * b * ctx.u + z_degree)


def c2_dot_hyperplane(ctx: CicyContext) -> int:
    """Degree c2(X).H of the threefold's second Chern class (50 on the quintic).

    By the Euler and normal-bundle sequences c(TX) = (1 + H)^(n+1) /
    ((1 + 0H) prod(1 + d_i H)), the Chern class of a resolution quotient.
    """
    return chern_from_resolution([0, *ctx.multidegree], [1] * (ctx.ambient_dim + 1), ctx).c2


def chi_rank2(ctx: CicyContext, c1: int, c2: int) -> Fraction:
    """Euler characteristic of a rank-2 bundle with Chern numbers (c1, c2).

    Hirzebruch-Riemann-Roch with td(X) = 1 + c2(X)/12 on a Calabi-Yau
    threefold: chi = (u/6)c1^3 - c1*c2/2 + (c1/12) c2(X).H.
    """
    return (
        Fraction(ctx.u, 6) * c1**3
        - Fraction(c1 * c2, 2)
        + Fraction(c1 * c2_dot_hyperplane(ctx), 12)
    )


def twist_rank2(c1: int, c2: int, t: int, ctx: CicyContext) -> tuple[int, int]:
    """Chern numbers of E(t) for a rank-2 bundle E: (c1 + 2t, c2 + u*t*c1 + u*t^2)."""
    return (c1 + 2 * t, c2 + ctx.u * t * c1 + ctx.u * t * t)


def h0_line_bundle(ctx: CicyContext, t: int) -> int:
    """Number of global sections of O_X(t), from the Koszul resolution.

    Sections of O(t) on the ambient space restrict onto X with kernel cut by
    the defining equations: h0 = sum_k a_k C(n + t - k, n), where a_k are the
    coefficients of prod(1 - x^d_i) and binomials with top < n are 0.
    """
    if t < 0:
        return 0
    n = ctx.ambient_dim
    poly = [1] + [0] * sum(ctx.multidegree)
    for d in ctx.multidegree:
        for k in range(len(poly) - 1, d - 1, -1):
            poly[k] -= poly[k - d]
    return sum(a * _comb0(n + t - k, n) for k, a in enumerate(poly) if a)


def max_rank_no_trivial(sub_twists: list[int], ctx: CicyContext) -> int:
    """Largest rank of a globally generated quotient, with no trivial factor,
    of a direct sum of trivial bundles by (+)O(s_i) with all s_i < 0.

    Equals sum_i h0(O_X(-s_i)) minus the number of sub twists.
    """
    if not sub_twists or any(s >= 0 for s in sub_twists):
        raise ValueError("all sub twists must be negative")
    return sum(h0_line_bundle(ctx, -s) for s in sub_twists) - len(sub_twists)


def context_from_label(label: str, strict: bool = True) -> CicyContext:
    """Parse a threefold label like "5", "2,4" or the degree alias "X9"."""
    text = label.strip()
    if text.upper() in _ALIASES:
        md = _ALIASES[text.upper()]
    else:
        try:
            md = tuple(int(part) for part in text.replace(" ", "").split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse threefold label {label!r}") from exc
    return CicyContext(md, strict=strict)
