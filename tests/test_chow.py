import copy
import math
import pickle
import random
import warnings
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

from cicy_bundles import (
    ALL_CONTEXTS,
    QUINTIC,
    X24,
    X33,
    X223,
    X2222,
    BundleInvariants,
    CicyContext,
    DivisorClass,
    NotInvertibleError,
    RuledSurface,
    TruncatedClass,
    chern_from_resolution,
    chern_of_extension,
    chi_rank2,
    context_from_label,
    h0_line_bundle,
    max_rank_no_trivial,
    ring_invert,
    ring_mul,
    twist_rank2,
    verify,
)
from cicy_bundles.chow import c2_dot_hyperplane


def cls(*coeffs):
    return TruncatedClass.of(*coeffs)


rationals = st.fractions(min_value=-10, max_value=10).map(Fraction)
units = st.tuples(
    st.fractions(min_value=-10, max_value=10).filter(lambda x: x != 0),
    rationals, rationals, rationals,
).map(lambda t: TruncatedClass(tuple(Fraction(c) for c in t)))


# denominators up to 10^6, zero and negative coefficients, constant terms of
# either sign
wide = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
wide_classes = st.tuples(wide, wide, wide, wide).map(TruncatedClass)
wide_units = st.tuples(wide.filter(lambda x: x != 0), wide, wide, wide).map(TruncatedClass)


def units_draws(draw):
    # verify._random_units: a numerator, then a denominator, per coefficient
    while True:
        yield draw(-9, 9)
        yield draw(1, 9)


def resolution_draws(draw):
    # verify.check_resolution_additivity: the length of `sub`, its twists, then
    # the length of `quot` past len(sub), and its twists
    while True:
        subs = draw(0, 2)
        yield subs
        for _ in range(subs):
            yield draw(-3, -1)
        quots = draw(1, 4)
        yield quots
        for _ in range(subs + quots):
            yield draw(-2, 3)


def twist_draws(draw):
    # verify.check_twist_examples: c1, c2, the twist, then the threefold
    while True:
        yield draw(-4, 4)
        yield draw(-40, 40)
        yield draw(-3, 3)
        yield draw(0, 4)


def schoolbook_mul(a, b):
    # the Fraction schoolbook product, kept as the reference for ring_mul
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(4))


def schoolbook_invert(a):
    # the Fraction recurrence b_k = -(a_1 b_(k-1) + ... + a_k b_0) / a_0
    b = [1 / Fraction(a[0])]
    for k in range(1, 4):
        b.append(-sum((a[i] * b[k - i] for i in range(1, k + 1)), Fraction(0)) / a[0])
    return tuple(b)


def lowest_terms(x):
    return x.denominator > 0 and math.gcd(*x.numerators, x.denominator) == 1


def lax(*multidegree):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CicyContext(multidegree, strict=False)


class TestContexts:
    def test_the_five(self):
        # Riemann-Roch for O(t), t >= 1, with the adjunction c2(X).H equals the
        # Koszul section count (higher cohomology vanishes on a Calabi-Yau)
        for ctx in (*ALL_CONTEXTS, lax(1, 5), lax(1, 2, 4)):
            for t in range(1, 7):
                chi = Fraction(ctx.u * t**3, 6) + Fraction(t * c2_dot_hyperplane(ctx), 12)
                assert chi == h0_line_bundle(ctx, t), (ctx.multidegree, t)

    def test_strict_rejects_unknown(self):
        with pytest.raises(ValueError, match="valid multidegrees"):
            CicyContext((7,))
        with pytest.raises(ValueError, match="valid multidegrees"):
            CicyContext((2, 2, 4))

    def test_lax_accepts_cy_without_warning(self):
        # the quintic inside a hyperplane of P^5 is the quintic
        ctx = lax(1, 5)
        assert ctx.u == QUINTIC.u
        assert c2_dot_hyperplane(ctx) == c2_dot_hyperplane(QUINTIC)
        for c1 in range(-3, 4):
            for c2 in range(-30, 31):
                assert chi_rank2(ctx, c1, c2) == chi_rank2(QUINTIC, c1, c2)

    def test_c2_dot_hyperplane_matches_the_ring(self):
        # adjunction in Q[H]/(H^4): c(TX) = (1 + H)^(n+1) * (prod(1 + d_i H))^-1
        for ctx in (*ALL_CONTEXTS, lax(1, 5), lax(1, 1, 2, 4), lax(1, 2, 2, 3),
                    lax(1, 1, 1, 1, 5)):
            normal = TruncatedClass.unit()
            for d in ctx.multidegree:
                normal = ring_mul(normal, TruncatedClass.line(d))
            tangent = cls(*(comb(ctx.ambient_dim + 1, k) for k in range(4)))
            assert c2_dot_hyperplane(ctx) == \
                ring_mul(tangent, ring_invert(normal)).coeffs[2] * ctx.u

    def test_lax_rejects_non_cy(self):
        with pytest.raises(ValueError, match="not Calabi-Yau"):
            CicyContext((3, 4), strict=False)

    def test_degrees_must_be_integers(self):
        # 5.7 used to truncate to the quintic; a degree is read as an index
        for degrees in ([5.7], [5.0], ["5"], [2, 4.0]):
            for strict in (True, False):
                with pytest.raises(TypeError, match="integer"):
                    CicyContext(degrees, strict=strict)
        assert CicyContext([True, 5], strict=False) == lax(1, 5)

    def test_labels_and_aliases(self):
        assert context_from_label("2,4") == X24
        assert context_from_label(" 2, 2, 2, 2 ") == X2222
        for ctx in ALL_CONTEXTS:
            assert context_from_label(f"X{ctx.u}") == ctx
            assert context_from_label(f"x{ctx.u}") == ctx
        with pytest.raises(ValueError, match="cannot parse"):
            context_from_label("X10")


class TestValueTypes:
    # the contract the kernel values keep: CicyContext and the records
    # BundleInvariants, TruncatedClass, DivisorClass and RuledSurface are
    # frozen, equal and hashed on their compared fields only, with a
    # field-by-field repr, and copies keep the derived attributes
    def test_frozen(self):
        values = [(QUINTIC, ("multidegree", "strict", "ambient_dim", "u", "other")),
                  (BundleInvariants(2, 1, 5), ("rank", "c1", "c2", "c3", "other")),
                  (cls(Fraction(1, 2), 1), ("numerators", "denominator", "coeffs", "other")),
                  (DivisorClass(1, 2), ("a", "b", "other")),
                  (RuledSurface(1), ("e", "q", "other"))]
        for value, names in values:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, 1)
                with pytest.raises(AttributeError):
                    delattr(value, name)
        assert (QUINTIC.multidegree, QUINTIC.strict, QUINTIC.ambient_dim, QUINTIC.u) == \
            ((5,), True, 4, 5)

    def test_equality_and_hash(self):
        assert CicyContext((5,)) == CicyContext([5], strict=False) == lax(5)
        assert hash(CicyContext((5,))) == hash(CicyContext([5], strict=False)) == hash(((5,),))
        assert CicyContext((4, 2)) == X24 and CicyContext((1, 5), strict=False) != QUINTIC
        assert CicyContext.__eq__(QUINTIC, (5,)) is NotImplemented and QUINTIC != (5,)
        b = BundleInvariants(2, 1, 5)
        assert b == BundleInvariants(rank=2, c1=1, c2=5, c3=None) != BundleInvariants(2, 1, 5, 0)
        assert hash(b) == hash((2, 1, 5, None))
        assert b == (2, 1, 5, None)
        x = cls(Fraction(1, 2), 1)
        assert hash(x) == hash(((1, 2, 0, 0), 2))
        assert x == ((1, 2, 0, 0), 2)

    def test_repr(self):
        assert repr(QUINTIC) == "CicyContext(multidegree=(5,), strict=True)"
        assert repr(CicyContext((5, 1), False)) == "CicyContext(multidegree=(1, 5), strict=False)"
        assert repr(BundleInvariants(2, 1, 5)) == "BundleInvariants(rank=2, c1=1, c2=5, c3=None)"
        assert repr(chern_from_resolution([-1], [0, 0, 0], QUINTIC)) == \
            "BundleInvariants(rank=2, c1=1, c2=5, c3=5)"
        assert repr(cls(Fraction(1, 2), 1)) == \
            "TruncatedClass(numerators=(1, 2, 0, 0), denominator=2)"

    def test_copy_and_pickle(self):
        records = (BundleInvariants(2, 1, 5, 5), cls(Fraction(-1, 3), 2, 0, Fraction(5, 9)),
                   DivisorClass(-2, 7), RuledSurface(-1, 3))
        for value in (*ALL_CONTEXTS, lax(1, 5), *records):
            for other in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert other == value and repr(other) == repr(value)
                assert type(other) is type(value)
                fields = vars if type(value) is CicyContext else type(value)._asdict
                assert fields(other) == fields(value)
        ctx = pickle.loads(pickle.dumps(lax(1, 5)))
        assert (ctx.strict, ctx.ambient_dim, ctx.u) == (False, 5, 5)

    def test_records_rebuilt_through_their_constructors(self):
        # _make and _replace go through the constructor: a ring class stays in
        # lowest terms, a ruled surface keeps the Segre-Nagata bound
        assert TruncatedClass._make(((2, 0, 0, 0), 2)) == TruncatedClass.unit()
        half = cls(Fraction(1, 2), 1)
        assert half._replace(denominator=4) == cls(Fraction(1, 4), Fraction(1, 2))
        with pytest.raises(ValueError, match="exactly 4"):
            TruncatedClass._make(((1, 2, 3), 1))
        with pytest.raises(ValueError, match="Segre-Nagata"):
            RuledSurface(1)._replace(e=-2)
        with pytest.raises(ValueError, match="Segre-Nagata"):
            RuledSurface._make((-2, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            RuledSurface(0, -1)
        assert RuledSurface._make((-2, 2)) == RuledSurface(-2, 2) == (-2, 2)


class TestRing:
    def test_binomial_square(self):
        power = TruncatedClass.unit()
        for k in range(1, 8):
            power = ring_mul(power, cls(1, 1))
            assert power == cls(*(comb(k, j) for j in range(4)))

    def test_unit(self):
        x = cls(3, -1, 7, 2)
        assert ring_mul(TruncatedClass.unit(), x) == x

    def test_geometric_series(self):
        for a in range(-4, 5):
            assert ring_invert(cls(1, -a)) == cls(1, a, a * a, a**3)
        assert ring_invert(TruncatedClass.unit()) == TruncatedClass.unit()

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError, match="not invertible"):
            ring_invert(cls(0, 1))

    def test_round_trip_units_match_their_draws(self):
        # verify's round-trip check reads its coefficients from a table: its
        # 1000 units are the classes the seeded draws build one by one
        rng = random.Random(20260811)
        drawn = []
        for _ in range(1000):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            if coeffs[0] == 0:
                coeffs[0] = Fraction(1)
            drawn.append(TruncatedClass(tuple(coeffs)))
        assert verify._random_units() == drawn

    @pytest.mark.parametrize("seed, pattern", [(20260811, units_draws), (7, resolution_draws),
                                               (11, twist_draws)])
    def test_draw_helper_matches_randint_in_each_check(self, seed, pattern):
        # verify's three seeded checks draw through one helper: 10^4 of its
        # draws, in each check's order of ranges, are randint's, and leave the
        # generator in the same state
        fast, slow = random.Random(seed), random.Random(seed)
        ours = pattern(lambda lo, hi: verify._randint(fast, lo, hi))
        assert list(islice(ours, 10**4)) == list(islice(pattern(slow.randint), 10**4))
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("width", [1, 2, 8, 9, 16, 17, 19, 81])
    def test_draw_helper_matches_randint_at_each_width(self, width):
        # powers of two and one past them, where the number of bits drawn steps
        fast, slow = random.Random(width), random.Random(width)
        lo = -(width // 2)
        hi = lo + width - 1
        assert ([verify._randint(fast, lo, hi) for _ in range(10**4)]
                == [slow.randint(lo, hi) for _ in range(10**4)])
        assert fast.getstate() == slow.getstate()

    def test_draw_helper_matches_randrange(self):
        # randrange(5), the other spelling of the twist check's threefold draw,
        # draws the same as the helper's randint(0, 4)
        fast, slow = random.Random(11), random.Random(11)
        assert ([verify._randint(fast, 0, 4) for _ in range(10**4)]
                == [slow.randrange(5) for _ in range(10**4)])

    @given(units)
    def test_inverse_roundtrip(self, x):
        assert ring_mul(x, ring_invert(x)) == TruncatedClass.unit()
        assert ring_mul(ring_invert(x), x) == TruncatedClass.unit()

    @given(wide_classes, wide_classes)
    def test_mul_matches_schoolbook(self, x, y):
        product = ring_mul(x, y)
        assert product.coeffs == schoolbook_mul(x.coeffs, y.coeffs)
        assert lowest_terms(product)

    @given(wide_units)
    def test_invert_matches_schoolbook(self, x):
        inverse = ring_invert(x)
        assert inverse.coeffs == schoolbook_invert(x.coeffs)
        assert lowest_terms(inverse)

    def test_spellings_are_one_class(self):
        half = cls(Fraction(1, 2), Fraction(-3, 6), 0, Fraction(10, 4))
        other = TruncatedClass((Fraction(2, 4), Fraction(-1, 2), Fraction(0, 7), "5/2"))
        assert half == other and hash(half) == hash(other)
        assert half.numerators == (1, -1, 0, 5) and half.denominator == 2
        assert ring_mul(half, cls(2)) == cls(1, -1, 0, 5)
        assert hash(ring_mul(half, cls(2))) == hash(cls(1, -1, 0, 5))
        assert cls(1, 2) != cls(1, 2, 1) and cls(1) != Fraction(1)

    def test_immutable(self):
        x = cls(Fraction(1, 3), 2)
        for name in ("numerators", "denominator", "coeffs", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, (1, 0, 0, 0))
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == cls(Fraction(1, 3), 2)

    def test_copy_and_pickle(self):
        x = cls(Fraction(-1, 3), 2, 0, Fraction(5, 9))
        assert copy.deepcopy(x) == x == pickle.loads(pickle.dumps(x))

    def test_not_four_coefficients(self):
        with pytest.raises(ValueError, match="exactly 4"):
            TruncatedClass((1, 2, 3))
        with pytest.raises(ValueError, match="exactly 4"):
            cls(1, 2, 3, 4, 5)

    def test_constructor_matches_the_fraction_rule(self):
        # exact ints and Fractions are read as they are, everything else
        # through Fraction; both must give what the lcm over Fraction(c) gives
        class Ratio(Fraction):
            pass

        class Count(int):
            pass

        def fraction_rule(coeffs):
            values = [Fraction(c) for c in coeffs]
            denominator = math.lcm(*(v.denominator for v in values))
            return (tuple(v.numerator * (denominator // v.denominator) for v in values),
                    denominator)

        makers = [
            lambda n, d: n,
            lambda n, d: Fraction(n, d),
            lambda n, d: n > 0,
            lambda n, d: n / 2 ** (d % 4),
            lambda n, d: f"{n}/{d}",
            lambda n, d: Ratio(n, d),
            lambda n, d: Count(n),
        ]
        rng = random.Random(20261019)
        for _ in range(2000):
            coeffs = tuple(rng.choice(makers)(rng.randint(-12, 12), rng.randint(1, 12))
                           for _ in range(4))
            x = TruncatedClass(coeffs)
            assert (x.numerators, x.denominator) == fraction_rule(coeffs), coeffs
            assert all(type(n) is int for n in (*x.numerators, x.denominator)), coeffs
            assert lowest_terms(x) and x == TruncatedClass(x.coeffs)
        for coeffs in ((Fraction(1, 2), 1.5, "1/3"), (1, Fraction(1, 2), True, "2", 0.5)):
            with pytest.raises(ValueError, match="exactly 4"):
                TruncatedClass(coeffs)

    @given(wide_classes)
    def test_zero_constant_not_invertible(self, x):
        with pytest.raises(NotInvertibleError, match="not invertible"):
            ring_invert(TruncatedClass((0, *x.coeffs[1:])))

    @given(units, units)
    def test_commutative(self, x, y):
        assert ring_mul(x, y) == ring_mul(y, x)

    @given(units, units, units)
    def test_associative(self, x, y, z):
        assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))


class TestChi:
    @pytest.mark.parametrize("ctx, expected", [
        (ctx, ctx.ambient_dim + 1) for ctx in ALL_CONTEXTS
    ])
    def test_hyperplane_oracle(self, ctx, expected):
        # O(1) + O has the ambient linear forms as sections and no cohomology
        assert chi_rank2(ctx, 1, 0) == expected == h0_line_bundle(ctx, 1)

    @pytest.mark.parametrize("ctx", ALL_CONTEXTS)
    def test_trivial(self, ctx):
        assert chi_rank2(ctx, 0, 0) == 0

    def test_twisted_pair(self):
        # O(1) + O(1) has twice the section count of O(1)
        for ctx in ALL_CONTEXTS:
            assert chi_rank2(ctx, 2, ctx.u) == 2 * h0_line_bundle(ctx, 1)

    def test_exact_rational(self):
        value = chi_rank2(X33, 1, 1)
        assert isinstance(value, Fraction)
        assert value.denominator == 2


class TestResolutions:
    def test_quintic_cases(self):
        # c = 1 / (1 + sH) = 1 - sH + s^2 H^2 - s^3 H^3 for a cokernel of O(s)
        for ctx in ALL_CONTEXTS:
            for s in range(-3, 0):
                for k in range(2, 6):
                    inv = chern_from_resolution([s], [0] * k, ctx)
                    assert (inv.rank, inv.c1, inv.c2, inv.c3) == (
                        k - 1, -s, s * s * ctx.u, -(s**3) * ctx.u)

    def test_trivial_bundle(self):
        for ctx in ALL_CONTEXTS:
            inv = chern_from_resolution([], [0, 0], ctx)
            assert (inv.rank, inv.c1, inv.c2) == (2, 0, 0)

    @pytest.mark.parametrize("r", range(1, 6))
    def test_trivial_any_rank(self, r):
        inv = chern_from_resolution([], [0] * r, X24)
        assert (inv.rank, inv.c1, inv.c2) == (r, 0, 0)

    def test_rank_guard(self):
        with pytest.raises(ValueError, match="rank"):
            chern_from_resolution([0, 0], [0], QUINTIC)

    @pytest.mark.parametrize("ctx", (*ALL_CONTEXTS, lax(2, 2, 2, 2, 1)),
                             ids=lambda ctx: ctx.label())
    def test_symmetric_function_closed_form(self, ctx):
        # c(E) = prod(1 + q H) * sum (-1)^k h_k(s) H^k, expanded with no ring code
        def e(k, xs):
            return sum(prod(c) for c in combinations(xs, k))

        def h(k, xs):
            return sum(prod(c) for c in combinations_with_replacement(xs, k))

        rng = random.Random(f"closed form on {ctx.label()}")
        for _ in range(500):
            s = [rng.randint(-4, 3) for _ in range(rng.randint(0, 3))]
            q = [rng.randint(-3, 4) for _ in range(len(s) + rng.randint(1, 5))]
            inv = chern_from_resolution(s, q, ctx)
            assert (inv.rank, inv.c1, inv.c2, inv.c3) == (
                len(q) - len(s),
                e(1, q) - e(1, s),
                ctx.u * (e(2, q) - e(1, q) * h(1, s) + h(2, s)),
                ctx.u * (e(3, q) - e(2, q) * h(1, s) + e(1, q) * h(2, s) - h(3, s)),
            ), (s, q)

    @pytest.mark.parametrize("ctx", ALL_CONTEXTS, ids=lambda ctx: ctx.label())
    def test_integer_whitney_matches_the_ring(self, ctx):
        # the ring product of line classes times the inverse is the oracle
        def ring(sub, quot):
            total = TruncatedClass.unit()
            for q in quot:
                total = ring_mul(total, TruncatedClass.line(q))
            subs = TruncatedClass.unit()
            for s in sub:
                subs = ring_mul(subs, TruncatedClass.line(s))
            c = ring_mul(total, ring_invert(subs))
            assert c.denominator == 1
            _, c1, c2, c3 = c.numerators
            return BundleInvariants(len(quot) - len(sub), c1, c2 * ctx.u, c3 * ctx.u)

        rng = random.Random(f"whitney on {ctx.label()}")
        for _ in range(400):
            sub = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
            quot = [rng.randint(-4, 5) for _ in range(len(sub) + rng.randint(1, 5))]
            inv = chern_from_resolution(sub, quot, ctx)
            assert inv == ring(sub, quot), (sub, quot)
            assert all(type(v) is int for v in (inv.rank, inv.c1, inv.c2, inv.c3))

    def test_twists_must_be_integers(self):
        for sub, quot in (([-1], [0, 0.5, 0]), ([-1.0], [0, 0, 0]), ([], ["1", 0]),
                          (["-1"], [0, 0, 0])):
            with pytest.raises(TypeError, match="integer"):
                chern_from_resolution(sub, quot, QUINTIC)
        # bools are integers, as in the ring
        assert chern_from_resolution([True], [False, True, 0], X24) == \
            chern_from_resolution([1], [0, 1, 0], X24)

    def test_c1_additivity(self):
        rng = random.Random(3)
        for _ in range(300):
            sub = [rng.randint(-3, -1) for _ in range(rng.randint(0, 2))]
            quot = [rng.randint(-2, 3) for _ in range(len(sub) + rng.randint(1, 4))]
            inv = chern_from_resolution(sub, quot, X33)
            assert inv.c1 == sum(quot) - sum(sub)


class TestExtensionsAndTwists:
    def test_extension_examples(self):
        # with Z empty the extension splits as O(a) + O(b); Z adds its degree
        for ctx in ALL_CONTEXTS:
            for a in range(-2, 3):
                for b in range(-2, 3):
                    split = chern_from_resolution([], [a, b], ctx).as_pair()
                    assert chern_of_extension(a, b, 0, ctx).as_pair() == split
                    for z in (3, 16):
                        inv = chern_of_extension(a, b, z, ctx)
                        assert inv.as_pair() == (split[0], split[1] + z)

    def test_twist_examples(self):
        # twisting O + O by t gives O(t) + O(t); t = 0 is the identity
        for ctx in ALL_CONTEXTS:
            for t in range(-3, 4):
                assert twist_rank2(0, 0, t, ctx) == chern_of_extension(t, t, 0, ctx).as_pair()
                assert twist_rank2(t, 5 * t, 0, ctx) == (t, 5 * t)

    @given(st.integers(-5, 5), st.integers(-50, 50), st.integers(-4, 4),
           st.sampled_from(ALL_CONTEXTS))
    def test_twist_roundtrip(self, c1, c2, t, ctx):
        assert twist_rank2(*twist_rank2(c1, c2, t, ctx), -t, ctx) == (c1, c2)


class TestSections:
    def test_anchors(self):
        # inclusion-exclusion over subsets of the multidegree as the oracle
        for ctx in ALL_CONTEXTS:
            n, md = ctx.ambient_dim, ctx.multidegree
            for t in range(-2, 8):
                expected = sum(
                    (-1) ** size * comb(n + t - sum(sub), n)
                    for size in range(len(md) + 1) for sub in combinations(md, size)
                    if n + t - sum(sub) >= n) if t >= 0 else 0
                assert h0_line_bundle(ctx, t) == expected, (ctx.multidegree, t)

    def test_lax_long_multidegree(self):
        # forty extra linear equations cut P^44 down to the quintic's P^4
        ctx = lax(*[1] * 40, 5)
        for t in range(5):
            assert h0_line_bundle(ctx, t) == h0_line_bundle(QUINTIC, t)

    @pytest.mark.parametrize("ctx", ALL_CONTEXTS)
    def test_linear_forms_restrict(self, ctx):
        assert h0_line_bundle(ctx, 1) == ctx.ambient_dim + 1

    def test_max_rank(self):
        # each sub twist O(-t) contributes its h0(O(t)) sections less one
        for ctx in ALL_CONTEXTS:
            for t in range(1, 4):
                assert max_rank_no_trivial([-t], ctx) == h0_line_bundle(ctx, t) - 1
                assert max_rank_no_trivial([-t, -1], ctx) == (
                    max_rank_no_trivial([-t], ctx) + max_rank_no_trivial([-1], ctx))

    def test_max_rank_guard(self):
        with pytest.raises(ValueError, match="negative"):
            max_rank_no_trivial([1], QUINTIC)
