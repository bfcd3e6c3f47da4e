"""Property tests pinning the valuation and digit-window kernel to
independent oracles: exact powers for _strip, and the per-digit Fraction
loop that digits_of and frac_part_k used to run, kept here as the reference.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padic_sylvester import (
    DigitExpansion,
    PLocal,
    Prime,
    QuadElement,
    digits_of,
    frac_part_k,
    quad_digits,
)
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
