"""Property tests pinning the valuation and digit-window kernel to
independent oracles: exact powers for _strip, the per-digit Fraction loop
that digits_of and frac_part_k used to run, and the doubling-precision digit
search that quad_ord used to run, all kept here as references.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_sylvester import (
    DigitExpansion,
    DivByZero,
    EvenPrime,
    NotAResidue,
    PLocal,
    PrecisionExhausted,
    Prime,
    QuadElement,
    digits_of,
    frac_part_k,
    hensel_sqrt,
    ord_p,
    quad_digits,
    quad_frac_part_k,
    quad_ord,
    sqrt_mod_p,
)
from padic_sylvester.digits import _residue
from padic_sylvester.quadratic import PRECISION_CAP
from padic_sylvester.valuation import _strip

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

PRIMES = [Prime(2), Prime(3), Prime(5), Prime(7), Prime(101), Prime(2**61 - 1)]


def reference_ord(p, r):
    """ord_p by dividing out one p at a time."""
    r = Fraction(r)
    v = 0
    for n, sign in ((r.numerator, 1), (r.denominator, -1)):
        while n % p == 0:
            n //= p
            v += sign
    return v


def reference_digits_of(p, r, count):
    """digits_of as a loop of one Fraction step per digit."""
    r = Fraction(r)
    if r == 0:
        return DigitExpansion(p, 0, ())
    start = reference_ord(p, r)
    x = r / Fraction(p) ** start
    digits = []
    for _ in range(count):
        c = x.numerator * pow(x.denominator, -1, p) % p
        digits.append(c)
        x = (x - c) / p
    return DigitExpansion(p, start, tuple(digits))


def reference_frac_part_k(p, k, r):
    """frac_part_k by folding the reference digits back into one integer."""
    r = Fraction(r)
    if r == 0:
        return PLocal.zero(p)
    start = reference_ord(p, r)
    if start >= k:
        return PLocal.zero(p)
    window = reference_digits_of(p, r, k - start)
    n = 0
    for c in reversed(window.digits):
        n = n * p + c
    return PLocal(p, n, start)


@st.composite
def p_units(draw, primes=PRIMES):
    """A prime p and a nonzero integer unit u, possibly negative, with p not dividing u."""
    p = draw(st.sampled_from(primes))
    u = draw(st.integers(-(10**40), 10**40)) * p + draw(st.integers(1, p - 1))
    return p, u


@st.composite
def rationals(draw, primes=PRIMES[:5]):
    """p and a rational of either sign with a p-power factor of order -30..30, or zero."""
    p = draw(st.sampled_from(primes))
    num = draw(st.integers(-(10**15), 10**15))
    den = draw(st.integers(1, 10**15))
    return p, Fraction(num, den) * Fraction(p) ** draw(st.integers(-30, 30))


class TestStrip:
    @PROPERTY
    @given(p_units(), st.integers(0, 3000))
    def test_recovers_order_and_unit(self, pu, v):
        p, u = pu
        assert _strip(p, u * p**v) == (v, u)


class TestDigitWindow:
    @PROPERTY
    @given(rationals(), st.integers(1, 60))
    def test_digits_of_matches_reference(self, pr, count):
        p, r = pr
        assert digits_of(p, r, count) == reference_digits_of(p, r, count)

    @PROPERTY
    @given(rationals(), st.integers(-10, 60))
    def test_frac_part_k_matches_reference(self, pr, offset):
        # offset <= 0 covers the empty windows k <= ord_p(r).
        p, r = pr
        k = (reference_ord(p, r) if r else 0) + offset
        got = frac_part_k(p, k, r)
        want = reference_frac_part_k(p, k, r)
        assert (got.unit, got.exp) == (want.unit, want.exp)


class TestQuadDigits:
    @PROPERTY
    @given(st.fractions().filter(lambda x: x != 0), st.integers(1, 40),
           st.sampled_from(["+", "-"]))
    def test_rational_element_matches_digits_of(self, x, count, sign):
        p = Prime(7)
        u = QuadElement.make(x, 0, 11, sign, p, 2)
        assert quad_digits(u, count) == digits_of(p, x, count)


def reference_image_mod(u, mu, width):
    """_image_mod with one modular inverse per scaled coefficient."""
    if width > PRECISION_CAP:
        raise PrecisionExhausted(
            f"digit window of {width} exceeds the {PRECISION_CAP}-digit cap"
        )
    modulus = u.p**width
    root = hensel_sqrt(u.p, Fraction(u.D), u.residue, width)
    scale = Fraction(u.p) ** (-mu)
    return (_residue(u.x * scale, modulus) + _residue(u.y * scale, modulus) * root) % modulus


def reference_quad_ord(u):
    """quad_ord by extracting digits at doubling precision until one is nonzero."""
    if u.is_zero():
        raise DivByZero("order of the zero element")
    if u.y == 0:
        return ord_p(u.p, u.x)
    if u.x == 0:
        return ord_p(u.p, u.y)
    ox = ord_p(u.p, u.x)
    oy = ord_p(u.p, u.y)
    if ox != oy:
        return min(ox, oy)
    m = 8
    while True:
        n = reference_image_mod(u, ox, m)
        if n:
            return ox + ord_p(u.p, n)
        if m >= PRECISION_CAP:
            raise PrecisionExhausted(
                f"no nonzero digit within {m} working digits for {u!r}"
            )
        m *= 2


QUAD_PRIMES = [Prime(q) for q in (3, 5, 7, 11, 13, 101)]
SQUAREFREE = [d for d in range(2, 60) if all(d % (f * f) for f in range(2, 8))]


def p_unit_fraction(draw, p):
    """A rational of either sign whose numerator and denominator are prime to p."""
    num = draw(st.integers(-(10**12), 10**12)) * p + draw(st.integers(1, p - 1))
    den = draw(st.integers(0, 10**12)) * p + draw(st.integers(1, p - 1))
    return Fraction(num, den)


@st.composite
def quad_elements(draw):
    """(u, depth) with u built directly, quad_ord(u) >= depth.

    The coefficients have order o in -5..5; unless the y order is shifted,
    x = -y*sqrt(D) mod p**(o+m), which cancels the first m digits of u.
    """
    p = draw(st.sampled_from(QUAD_PRIMES))
    D = draw(st.sampled_from([d for d in SQUAREFREE if pow(d, (p - 1) // 2, p) == 1]))
    root = sqrt_mod_p(p, D)
    residue = draw(st.sampled_from([root, p - root]))
    o = draw(st.integers(-5, 5))
    m = draw(st.integers(0, 40))
    y = p_unit_fraction(draw, p)
    if m:
        modulus = p**m
        s = hensel_sqrt(p, D, residue, m)
        x = Fraction(-_residue(y, modulus) * s % modulus + draw(st.integers(-9, 9)) * modulus)
    else:
        x = p_unit_fraction(draw, p)
    c = p_unit_fraction(draw, p) * Fraction(p) ** o
    shift = draw(st.sampled_from([0, 0, 0, -2, 1]))
    depth = o + m if not shift else min(o, o + shift)
    u = QuadElement(c * x, c * y * Fraction(p) ** shift, D,
                    draw(st.sampled_from([1, -1])), p, residue)
    return u, depth


class TestQuadOrd:
    @PROPERTY
    @given(quad_elements())
    def test_matches_doubling_search(self, case):
        u, depth = case
        o = quad_ord(u)
        assert o == reference_quad_ord(u)
        assert o >= depth

    @PROPERTY
    @given(quad_elements())
    def test_conjugate_orders_add_up_to_norm(self, case):
        u, _ = case
        conj = QuadElement(u.x, -u.y, u.D, u.real_sign, u.p, u.residue)
        assert quad_ord(u) + quad_ord(conj) == ord_p(u.p, u.x * u.x - u.D * u.y * u.y)

    @pytest.mark.parametrize("p, D, residue, error", [
        (2, 3, 1, EvenPrime),
        (7, 11, 3, NotAResidue),  # 3**2 = 2, not 11 = 4 mod 7
        (7, 14, 0, ValueError),  # ord_7(14) = 1
    ])
    def test_bad_context_raises_like_the_lift(self, p, D, residue, error):
        u = QuadElement(1, 1, D, 1, Prime(p), residue)
        with pytest.raises(error):
            reference_quad_ord(u)
        with pytest.raises(error):
            quad_ord(u)


class TestQuadFracPartK:
    @PROPERTY
    @given(quad_elements(), st.integers(-3, 40))
    def test_matches_two_inverse_reference(self, case, offset):
        # offset <= 0 covers the empty windows k <= quad_ord(u).
        u, _ = case
        o = reference_quad_ord(u)
        k = o + offset
        mu = min(ord_p(u.p, u.x), ord_p(u.p, u.y))
        want = PLocal.zero(u.p) if o >= k else PLocal(u.p, reference_image_mod(u, mu, k - mu), mu)
        got = quad_frac_part_k(u, k)
        assert (got.unit, got.exp) == (want.unit, want.exp)
