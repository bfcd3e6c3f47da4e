import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from padic_sylvester import (
    DivByZero,
    EmbeddingMismatch,
    EvenPrime,
    PLocal,
    Prime,
    QuadElement,
    frac_part_k,
    quad_digits,
    quad_frac_part_k,
    quad_ord,
    real_ceil,
    real_compare,
    real_floor,
)

from padic_sylvester.quadratic import _TRIAL_BOUND, _square_free

P7 = Prime(7)


def xi(sign="+"):
    # the element with square 1/11 that reduces to 4 mod 7
    return QuadElement.make(0, Fraction(1, 11), 11, sign, P7, 2)


def rand_elem(rng, ctx, bound=60):
    x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    y = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return QuadElement(x, y, ctx.D, ctx.real_sign, ctx.p, ctx.residue)


class TestConstruction:
    def test_normalizes_rational_radicand(self):
        # x + y*sqrt(1/11) with root 4 equals x + (y/11)*sqrt(11) with root 2
        alt = QuadElement.make(0, 1, Fraction(1, 11), "+", P7, 4)
        assert alt == xi("+")
        assert alt.D == 11 and alt.residue == 2

    def test_normalizes_square_factor(self):
        e = QuadElement.make(1, Fraction(1, 2), 44, "+", P7, 2 * 2 % 7)
        # sqrt(44) = 2*sqrt(11)
        assert e.D == 11 and e.y == 1 and e.residue == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            QuadElement.make(0, 1, Fraction(9, 4), "+", P7, 1)  # rational square
        with pytest.raises(ValueError):
            QuadElement.make(0, 1, -2, "+", P7, 1)
        with pytest.raises(ValueError):
            QuadElement.make(0, 1, 7, "+", P7, 0)  # ord_7(7) = 1
        with pytest.raises(ValueError):
            QuadElement.make(0, 1, 11, "+", P7, 3)  # 9 != 4 mod 7
        with pytest.raises(EvenPrime):
            QuadElement.make(0, 1, 11, "+", Prime(2), 1)


class TestArithmetic:
    def test_inverse_example(self):
        u = xi("+")
        v = u.inv()
        assert v.x == 0 and v.y == 1  # 1/((1/11)sqrt(11)) = sqrt(11)
        assert (u * v) == 1

    def test_sub_to_zero(self):
        u = xi("+")
        w = QuadElement(1, 1, u.D, u.real_sign, u.p, u.residue)
        assert (w - w).is_zero()

    def test_sqrt_squares_to_d(self):
        u = xi("+")
        root = QuadElement(0, 1, u.D, u.real_sign, u.p, u.residue)
        sq = root * root
        assert sq.x == 11 and sq.y == 0

    def test_field_axioms_random(self):
        rng = random.Random(301)
        ctx = xi("+")
        for _ in range(100):
            u, v = rand_elem(rng, ctx), rand_elem(rng, ctx)
            assert u * v == v * u
            assert u + v == v + u
            if not u.is_zero():
                assert u * u.inv() == 1

    def test_rational_embedding_consistent(self):
        # elements with y = 0 behave exactly like their rational values
        rng = random.Random(302)
        ctx = xi("+")
        for _ in range(50):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            u = ctx._wrap(a, Fraction(0))
            v = ctx._wrap(b, Fraction(0))
            assert (u * v).x == a * b and (u + v).x == a + b

    def test_mismatch(self):
        u = xi("+")
        v = xi("-")
        with pytest.raises(EmbeddingMismatch):
            u + v

    def test_scalar_mixing(self):
        u = xi("+")
        assert (u - u) == 0
        assert (1 - u * 0) == 1

    def test_inv_zero(self):
        u = xi("+") * 0
        with pytest.raises(DivByZero):
            u.inv()


class TestNumericProtocol:
    """Reflected operators, PLocal coercion, hash, truth and repr of
    QuadElement against Fraction arithmetic on its coordinates."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions(),
           st.integers(-10**3, 10**3), st.integers(-10**4, 10**4), st.integers(-6, 6),
           st.sampled_from([1, -1]))
    def test_matches_fraction_arithmetic(self, x, y, a, b, n, unit, exp, sign):
        u = QuadElement(x, y, 11, sign, P7, 2)
        v = QuadElement(a, b, 11, sign, P7, 2)
        w = PLocal(P7, unit, exp)
        fw = w.to_fraction()

        def coords(e):
            return e.x, e.y

        assert coords(n + u) == (n + x, y)
        assert coords(a + u) == (a + x, y)
        assert coords(n * u) == (n * x, n * y)
        assert coords(a * u) == (a * x, a * y)
        assert coords(u + w) == (x + fw, y)
        assert coords(u - w) == (x - fw, y)
        assert coords(u * w) == (x * fw, y * fw)
        assert coords(u * v) == (x * a + 11 * y * b, x * b + y * a)
        # Equal elements built along different paths hash equal.
        back = (u + v) - v
        assert back == u and hash(back) == hash(u)
        assert bool(u) == (x != 0 or y != 0)
        sign_text = "+" if sign > 0 else "-"
        assert repr(u) == f"QuadElement({x}, {y}, D=11, real_sign={sign_text}, p=7, residue=2)"
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"):
            assert getattr(u, name)("1") is NotImplemented
        with pytest.raises(TypeError):
            u + 1.5


class TestRealCompare:
    def test_examples(self):
        sqrt2 = QuadElement.make(0, 1, 2, "+", P7, 4)  # 4*4 = 16 = 2 mod 7
        assert real_compare(sqrt2, 1) == 1
        assert real_compare(xi("-"), 0) == -1
        rational = xi("+")._wrap(Fraction(3, 2), Fraction(0))
        assert real_compare(rational, Fraction(3, 2)) == 0

    def test_ceil_examples(self):
        root11 = QuadElement.make(0, 1, 11, "+", P7, 2)
        assert real_ceil(root11) == 4  # 3*3 < 11 < 4*4
        assert real_ceil(xi("-")) == 0
        rational = xi("+")._wrap(Fraction(5, 3), Fraction(0))
        assert real_ceil(rational) == 2

    def test_floor_ceil_bracketing(self):
        rng = random.Random(303)
        ctx = QuadElement.make(0, 1, 13, "+", Prime(3), 1)  # 1 = 13 mod 3
        for _ in range(300):
            u = rand_elem(rng, ctx)
            c = real_ceil(u)
            f = real_floor(u)
            # cross-check the isqrt path against the sign-comparison path
            assert real_compare(u, c) <= 0
            assert real_compare(u, c - 1) > 0
            assert real_compare(u, f) >= 0
            assert real_compare(u, f + 1) < 0
            if u.y != 0:
                assert c == f + 1

    def test_matches_float_estimate(self):
        # sanity only: exact comparisons agree with a float approximation
        rng = random.Random(304)
        ctx = xi("+")
        for _ in range(100):
            u = rand_elem(rng, ctx, bound=20)
            approx = float(u.x) + float(u.y) * u.real_sign * 11**0.5
            assert abs(real_floor(u) - floor(approx)) <= 1


class TestQuadOrd:
    def test_examples(self):
        u = xi("+")
        assert quad_ord(u) == 0
        assert quad_ord(u * 7) == 1
        assert quad_ord(u._wrap(Fraction(7), Fraction(0))) == 1

    def test_zero_raises(self):
        with pytest.raises(DivByZero):
            quad_ord(xi("+") * 0)

    def test_multiplicative(self):
        rng = random.Random(305)
        ctx = xi("+")
        for _ in range(100):
            u, v = rand_elem(rng, ctx), rand_elem(rng, ctx)
            if u.is_zero() or v.is_zero():
                continue
            assert quad_ord(u * v) == quad_ord(u) + quad_ord(v)

    def test_cancellation_case(self):
        # x = -y*s mod high powers: engineered so both coefficient orders agree
        u = xi("+")
        s2 = 16  # sqrt(11) mod 49
        v = u._wrap(Fraction(s2), Fraction(-1))
        # x + y*s = 16 - s = 0 mod 49, so the order is at least 2
        assert quad_ord(v) >= 2


class TestQuadFracPart:
    def test_example_first_digit(self):
        u = xi("+")
        got = quad_frac_part_k(u.inv(), 1)
        assert got.to_fraction() == 2  # sqrt(11) = 2 mod 7

    def test_agrees_with_rational_path(self):
        p3 = Prime(3)
        ctx = QuadElement.make(0, 1, 13, "+", p3, 1)
        u = ctx._wrap(Fraction(25, 473), Fraction(0))
        assert quad_frac_part_k(u, 1) == frac_part_k(p3, 1, Fraction(25, 473))

    def test_empty_window(self):
        u = xi("+") * 7**3
        assert quad_frac_part_k(u, 2).is_zero()

    def test_defining_property(self):
        rng = random.Random(306)
        ctx = xi("+")
        for _ in range(60):
            u = rand_elem(rng, ctx)
            if u.is_zero():
                continue
            k = rng.randint(-2, 4)
            t = quad_frac_part_k(u, k)
            rest = u - t.to_fraction()
            if rest.is_zero():
                continue
            assert quad_ord(rest) >= k
            assert 0 <= t.to_fraction() < Fraction(ctx.p) ** k or t.is_zero()


class TestQuadDigits:
    def test_window(self):
        from padic_sylvester import hensel_sqrt

        u = xi("+")
        d = quad_digits(u.inv(), 3)
        assert d.start == 0
        assert d.digits[0] == 2
        # oracle: base-7 digits of the lifted square root of 11
        s3 = hensel_sqrt(Prime(7), 11, 2, 3)
        expect = [(s3 // 7**i) % 7 for i in range(3)]
        assert list(d.digits) == expect


class TestSquareFree:
    # 1048573 and 1048583 are the primes on either side of 2**20.
    BELOW, ABOVE = 1048573, 1048583

    def test_bound(self):
        assert self.BELOW < _TRIAL_BOUND < self.ABOVE

    @pytest.mark.parametrize("n, want", [
        (12, (2, 3)), (11, (1, 11)), (2 * 3**5 * 7**2, (63, 6)),
        (BELOW**2 * 3 * 5**3, (5 * BELOW, 15)),
        # One prime factor above the bound, alone: D is squarefree.
        (4 * ABOVE * 7, (2, 7 * ABOVE)),
    ])
    def test_square_factors_below_the_bound_come_out(self, n, want):
        assert _square_free(n) == want

    def test_cofactor_above_the_bound_stays_in_d(self):
        # The square of a prime above the bound is not searched for.
        assert _square_free(4 * 7 * self.ABOVE**2) == (2, 7 * self.ABOVE**2)
        u = QuadElement.make(0, 1, 7 * self.ABOVE**2, "+", Prime(3), 1)
        assert u.D == 7 * self.ABOVE**2
