"""Property tests pinning the valuation and digit-window kernel, the
report renderers, the Sylvester driver and the verifier to independent
oracles: exact powers for _strip, the per-digit Fraction loop that digits_of
and frac_part_k used to run, the doubling-precision digit search that
quad_ord used to run, the wide two-inverse image that quadratic digit
windows were read from, the squares ladder that real_compare ran, the
full-width square root that _surd_floor took, the window as one
extended-Euclid inverse, the Fraction-based report renderers, the ceiling
step that modified_sylvester ran on rationals and the QuadElement loop it
ran on quadratic elements, the Fraction re-sum that verify_expansion ran
and the stripping replay it ran next, the fs, Knopfmacher and p**k division
loops that ran before every algorithm stepped one chain, and the division
step that built each power of p from nothing, all kept here as references.
"""

import hashlib
from collections import Counter
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
import math
import operator
from math import ceil, gcd, isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from padic_sylvester import (
    CAP_REACHED,
    POS_INF,
    TERMINATED,
    DigitExpansion,
    DivByZero,
    EvenPrime,
    Expansion,
    KTooSmall,
    NonPositiveDivisor,
    NotAResidue,
    PLocal,
    PrecisionExhausted,
    PreconditionViolated,
    Prime,
    QuadElement,
    StepRecord,
    VerificationReport,
    adaptive_pk_greedy,
    check_nojump_correspondence,
    digits_of,
    frac_part,
    frac_part_k,
    fs_greedy,
    hensel_sqrt,
    knopfmacher_sylvester,
    modified_sylvester,
    ord_p,
    pk_greedy,
    quad_digits,
    quad_frac_part_k,
    quad_ord,
    real_ceil,
    real_compare,
    sqrt_mod_p,
    value_operands,
    verify_expansion,
)
from padic_sylvester import digits, expansion, quadratic, report, valuation
from padic_sylvester.cli import main
from padic_sylvester.digits import _residue, _window
from padic_sylvester.division import (
    CASE_1,
    CASE_2,
    DivisionStep,
    _below,
    _division_record_problems,
    _pk_divide,
    classical_divide,
    pk_divide,
)
from padic_sylvester.expansion import (
    CERTIFIED_NONTERMINATING,
    DEFAULT_MAX_TERMS,
    _floored_difference,
    _replay_tail,
    _tail_ord,
)
from padic_sylvester.quadratic import PRECISION_CAP, _surd_floor, _surd_ord, _surd_triple
from padic_sylvester.valuation import _LADDER_FROM, _powers, _strip

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


class _PowerLog(Prime):
    """A prime that logs every exponent it is raised to without a modulus."""

    def __new__(cls, p, log):
        self = super().__new__(cls, p)
        self.log = log
        return self

    def __pow__(self, exp, mod=None):
        if mod is None:
            self.log.append(exp)
        return int.__pow__(int(self), exp, mod)


def _timed_in_subprocess(setup: str, call: str):
    """[result, seconds] of the expression call after setup, run in a fresh
    interpreter with the library on its path and PLocal and Prime imported.
    Its timeout turns a call that builds a huge power of p into a failure
    instead of a hang of the suite."""
    code = (f"import json, time\nfrom padic_sylvester import PLocal, Prime\n{setup}\n"
            f"start = time.perf_counter()\ngot = {call}\n"
            f"print(json.dumps([got, time.perf_counter() - start]))")
    env = dict(os.environ, PYTHONPATH=str(Path(valuation.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestStrip:
    @PROPERTY
    @given(p_units(), st.integers(0, 3000))
    def test_recovers_order_and_unit(self, pu, v):
        p, u = pu
        assert _strip(p, u * p**v) == (v, u)

    @PROPERTY
    @given(p_units([2, 3, 101]), st.integers(0, 400),
           st.sampled_from([-2, -1, 0, 1, 2, "zero", "negative", "huge"]))
    def test_floor_never_changes_the_result(self, pu, v, floor):
        # Floors below, at and above the true order v, and 0, negative and
        # 10**9; a floor that holds costs exactly one power of p, and a power
        # wider than n is never built.
        p, u = pu
        n = u * p**v
        if isinstance(floor, str):
            floor = {"zero": 0, "negative": -v - 1, "huge": 10**9}[floor]
        else:
            floor += v
        log = []
        assert _strip(_PowerLog(p, log), n, floor) == _strip(p, n) == (v, u)
        assert all(f * (p.bit_length() - 1) <= n.bit_length() for f in log)
        if 0 < floor <= v:
            assert log == [floor]
        if floor <= 0 or floor == 10**9:
            assert log == []


def _wide_walks(wide):
    """A _strip that logs the bit size of every wide p-divisible integer it
    walks, that is, whose power of p a floor does not take out first."""
    strip = valuation._strip

    def spy(prime, n, floor=0, power=None):
        v, u = strip(prime, n, floor, power)
        if n.bit_length() > 1024 and n % prime == 0 and not 0 < floor <= v:
            wide.append(n.bit_length())
        return v, u

    return spy


class TestClaimedDifference:
    """A floor only speeds up _floored_difference: every floor gives the
    canonical x - z, and the true order walks no wide p-divisible integer."""

    @PROPERTY
    @given(p_units(), st.integers(0, 300), st.integers(-2, 2), st.integers(0, 3),
           st.integers(-3, 3))
    def test_every_claim_gives_the_canonical_value(self, pu, v, offset, s, den_exp):
        p, u = pu
        # x - z = u * p**v, with both at exponent -s unless x's unit strips.
        x, z = PLocal(p, u * p ** (v + s) + 1, -s), PLocal(p, 1, -s)
        wide = []
        spy = _wide_walks(wide)
        with mock.patch.object(valuation, "_strip", spy), \
                mock.patch.object(expansion, "_strip", spy):
            got = _floored_difference(x, z, v + offset - den_exp, den_exp, _powers(p))
        assert (got.unit, got.exp) == (u, v)
        if offset == 0:
            assert wide == []

    @pytest.mark.parametrize("claim", [None, -5, 0, 3, 10**12])
    def test_zero_and_out_of_range_claims_fall_back(self, claim):
        # A floor far wider than the difference must not build its power of
        # p, and a negative one must not divide a wide difference by a float.
        p = Prime(3)
        for x, z in ((PLocal(p, 5, 2), PLocal(p, 2, 2)), (PLocal(p, 3**2000 + 1), PLocal(p, 1))):
            assert _floored_difference(x, x, claim, 0, _powers(p)) == PLocal.zero(p)
            assert _floored_difference(x, z, claim, 0, _powers(p)) == x - z


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


# The window as one inverse by the extended Euclid, the reference for
# _window's Newton inverse on every width.
def reference_window(p, num, den, width):
    return num * pow(den, -1, p**width) % p**width


def _newton_edge(p):
    """The widest window whose modulus _inv_mod still inverts with pow."""
    m = 1
    while (p ** (m + 1)).bit_length() <= digits._NEWTON_FROM_BITS:
        m += 1
    return m


WINDOW_PRIMES = [Prime(3), Prime(7), Prime(101)]


@st.composite
def windows(draw):
    """(p, num, den, width): den a unit of either sign, num of either sign
    and up to 200 digits wider than p**width, widths 1..3000 and the two
    on each side of _inv_mod's switch to Newton."""
    p = draw(st.sampled_from(WINDOW_PRIMES))
    edge = _newton_edge(p)
    width = draw(st.one_of(st.integers(1, 3000), st.integers(edge - 1, edge + 2)))
    bits = (p**width).bit_length()
    num = draw(st.integers(-(2 ** (bits + 200)), 2 ** (bits + 200)))
    den = draw(st.integers(1, 2 ** (bits + draw(st.integers(0, 200)))))
    den += den % p == 0
    return p, num, den * draw(st.sampled_from([1, -1])), width


class TestWindowKernel:
    @PROPERTY
    @given(windows())
    def test_matches_extended_euclid(self, case):
        p, num, den, width = case
        assert _window(p, num, den, width) == reference_window(p, num, den, width)
        assert _window(p, num, den, width, p**width) == reference_window(p, num, den, width)

    @pytest.mark.parametrize("p", WINDOW_PRIMES, ids=int)
    def test_each_side_of_the_newton_switch(self, p):
        rng = random.Random(int(p))
        edge = _newton_edge(p)
        assert (p**edge).bit_length() <= digits._NEWTON_FROM_BITS < (p ** (edge + 1)).bit_length()
        for width in [*range(1, 9), edge, edge + 1, 2 * edge + 1, 1025, 2047, 3000]:
            for _ in range(3):
                num = rng.getrandbits((p**width).bit_length() + 64) - 2 ** 63
                den = rng.randrange(1, p ** (width + 3)) * p + rng.randrange(1, p)
                for d in (den, -den):
                    assert _window(p, num, d, width) == reference_window(p, num, d, width)

    def test_prime_wider_than_the_switch(self):
        # One digit of the prime 2**80 + 13 is already past the switch to
        # Newton, so the halving must end at one digit, not at the switch.
        p = Prime(2**80 + 13)
        rng = random.Random(1)
        for width in range(1, 9):
            num = rng.getrandbits(81 * width + 64) - 2 ** (81 * width)
            den = rng.randrange(1, p**width) * p + rng.randrange(1, p)
            assert _window(p, num, den, width) == reference_window(p, num, den, width)


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

    @PROPERTY
    @given(quad_elements())
    def test_surd_ord_never_depends_on_its_floor(self, case):
        # Floors at, below and above the order, negative and far too wide.
        u, _ = case
        n, y, m = _surd_triple(u)
        o, norm = _surd_ord(n, y, m, u.D, u.residue)
        assert o == reference_quad_ord(u)
        for floor in (o, o - 3, o + 1, -5, 10**9):
            assert _surd_ord(n, y, m, u.D, u.residue, floor) == (o, norm)

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


class TestQuadDigitsIrrational:
    @PROPERTY
    @given(quad_elements(), st.integers(1, 40))
    def test_matches_image_reference(self, case, count):
        # quad_elements cancels the first digits of most elements it draws.
        u, _ = case
        o = reference_quad_ord(u)
        mu = min(ord_p(u.p, u.x), ord_p(u.p, u.y))
        image = reference_image_mod(u, mu, o + count - mu)
        want = tuple(image // u.p ** (o - mu + i) % u.p for i in range(count))
        assert quad_digits(u, count) == DigitExpansion(u.p, o, want)


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


# real_compare as it was before it read the sign off _surd_floor, kept
# verbatim apart from names.


def reference_sign(f):
    return (f > 0) - (f < 0)


def reference_real_compare(u, q):
    q = Fraction(q)
    t = u.x - q
    w = u.y * u.real_sign
    if w == 0:
        return reference_sign(t)
    if t == 0:
        return reference_sign(w)
    if t > 0 and w > 0:
        return 1
    if t < 0 and w < 0:
        return -1
    lhs = t * t
    rhs = w * w * u.D
    # Equality would make sqrt(D) rational, impossible for squarefree D >= 2.
    if lhs == rhs:
        raise RuntimeError(f"sqrt({u.D}) compared equal to a rational")
    if t > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


FRACTIONS = st.fractions(-(10**9), 10**9, max_denominator=10**6)


@st.composite
def real_comparisons(draw):
    """(u, q): u = x + y*sqrt(D) of either real sign, y possibly 0, and q
    either x, a free rational, or x + y*sign*r with r a decimal cut just
    below or above sqrt(D), so that q lies near psi(u). The p-adic context
    plays no part in a real comparison."""
    D = draw(st.sampled_from(SQUAREFREE))
    x = draw(FRACTIONS)
    y = draw(st.one_of(st.just(Fraction(0)), FRACTIONS))
    sign = draw(st.sampled_from([1, -1]))
    u = QuadElement(x, y, D, sign, Prime(7), 0)
    kind = draw(st.sampled_from(["x", "free", "near"]))
    if kind == "x":
        return u, x
    if kind == "free":
        return u, draw(FRACTIONS)
    scale = 10 ** draw(st.integers(0, 30))
    r = Fraction(isqrt(D * scale * scale) + draw(st.sampled_from([0, 1])), scale)
    return u, x + y * sign * r


class TestRealCompare:
    @PROPERTY
    @given(real_comparisons())
    def test_matches_squares_reference(self, case):
        u, q = case
        assert real_compare(u, q) == reference_real_compare(u, q)


# The floor as it was before it took sqrt(D) to the precision the quotient
# needs: one integer square root at full width.
def reference_surd_floor(x, w, g, D):
    t = w * w * D
    f = isqrt(t) if w >= 0 else -isqrt(t) - 1
    return (x + f) // g


NONSQUARES = [d for d in range(2, 61) if isqrt(d) ** 2 != d]


def _signed(draw, bits):
    """An integer of exactly `bits` bits (0 for none) and either sign."""
    n = draw(st.integers(2 ** bits // 2, 2**bits - 1)) if bits else 0
    return n * draw(st.sampled_from([1, -1]))


@st.composite
def surd_floors(draw):
    """(x, w, g, D): w of 0 to 40k bits and either sign, g from 1 up to 64
    bits past w (narrow enough for the exact root, and wide enough for the
    short one), and x of either sign about as wide as g*w*sqrt(D)."""
    D = draw(st.sampled_from(NONSQUARES))
    wbits = draw(st.sampled_from([0, 1, 10, 33, 64, 100, 1000, 10000, 40000]))
    w = _signed(draw, wbits)
    g = abs(_signed(draw, draw(st.integers(1, wbits + 64))))
    x = _signed(draw, draw(st.integers(0, wbits + g.bit_length() + 4)))
    return x, w, g, D


class TestSurdFloor:
    @PROPERTY
    @given(surd_floors(), st.sampled_from([0, 1, quadratic._FLOOR_GUARD]))
    def test_matches_isqrt_floor(self, case, guard):
        # A guard of 0 or 1 leaves most intervals too wide to settle, so the
        # exact fallback runs often; the result never depends on the guard.
        with mock.patch.object(quadratic, "_FLOOR_GUARD", guard):
            assert _surd_floor(*case) == reference_surd_floor(*case)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("D", [2, 11, 59])
    def test_next_to_a_multiple_of_g(self, sign, D):
        # x + floor(w*sqrt(D)) at g*j and at g*j - 1, where one unit moves
        # the quotient: the bounds for w < 0 must be -hi-1 and -lo-1. A g
        # just past the guard leaves an interval of a few units, so the
        # floor is often its end.
        rng = random.Random(D)
        guard = quadratic._FLOOR_GUARD
        sizes = [(100, guard + 2), (1000, guard + 8)] * 20
        for wbits, gbits in sizes + [(1000, 200), (10000, 9000), (40000, 39950)]:
            w = sign * (rng.getrandbits(wbits) | 1 << (wbits - 1))
            g = rng.getrandbits(gbits) | 1 << (gbits - 1)
            f = reference_surd_floor(0, w, 1, D)
            j = rng.getrandbits(64)
            for x, want in [(g * j - f, j), (g * j - f - 1, j - 1)]:
                assert _surd_floor(x, w, g, D) == want == reference_surd_floor(x, w, g, D)

    def test_short_root_settles_a_wide_quotient_alone(self):
        # A 10k-bit w over a 9k-bit g: one square root, of about twice the
        # quotient's 1k bits plus the guard, not of w*w*D's 20k bits.
        rng = random.Random(7)
        for D in NONSQUARES:
            w = (rng.getrandbits(10000) | 1 << 9999) * rng.choice([1, -1])
            g = rng.getrandbits(9000) | 1 << 8999
            x = rng.getrandbits(10000) * rng.choice([1, -1])
            with mock.patch.object(quadratic, "isqrt", wraps=isqrt) as spy:
                assert _surd_floor(x, w, g, D) == reference_surd_floor(x, w, g, D)
            (arg,), = [c.args for c in spy.call_args_list]
            assert arg.bit_length() <= 2 * (1000 + quadratic._FLOOR_GUARD) + D.bit_length()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_ambiguous_interval_falls_back_to_the_exact_root(self, sign):
        # h + k*sqrt(2) = (3 + 2*sqrt(2))**200 solves Pell's h*h - 2*k*k = 1,
        # so k*sqrt(2) = h - 1/(h + k*sqrt(2)) lies within 2**-500 below h.
        # With x = g*j - sign*h, x + sign*k*sqrt(2) falls just below or
        # above g*j, and the short root's interval, about g/2**guard wide,
        # holds both sides: only the exact isqrt settles the floor.
        h, k = 1, 0
        for _ in range(200):
            h, k = 3 * h + 4 * k, 2 * h + 3 * k
        assert h * h - 2 * k * k == 1
        g, j = 2**200 + 1, 12345
        x, w = g * j - sign * h, sign * k
        want = j - 1 if sign > 0 else j
        with mock.patch.object(quadratic, "isqrt", wraps=isqrt) as spy:
            assert _surd_floor(x, w, g, 2) == want == reference_surd_floor(x, w, g, 2)
        assert [c.args for c in spy.call_args_list][-1] == (w * w * 2,)
        assert len(spy.call_args_list) == 2


# --- Report rendering ----------------------------------------------------
# The Fraction-based renderers that report.py used before it rendered from
# PLocal integers, kept verbatim (apart from names) as references.


def reference_to_fraction(x):
    return Fraction(x.unit) * Fraction(x.p) ** x.exp


def reference_frac_str(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def reference_term_display(q, initial=False):
    if initial:
        f = reference_to_fraction(q) if isinstance(q, PLocal) else Fraction(q)
        return reference_frac_str(f)
    if isinstance(q, PLocal):
        if q.unit > 0 and q.exp <= 0:
            j = -q.exp
            if j == 0:
                return f"1/{q.unit}"
            if j == 1:
                return f"{int(q.p)}/{q.unit}"
            return f"{int(q.p)}^{j}/{q.unit}"
        return reference_frac_str(1 / reference_to_fraction(q))
    return reference_frac_str(Fraction(1) / Fraction(q))


def reference_plocal_json(x):
    if x is None:
        return None
    return {"unit": str(x.unit), "exp": str(x.exp),
            "value": reference_frac_str(reference_to_fraction(x))}


def reference_division_json(d):
    if d is None:
        return None
    return {
        "a": reference_plocal_json(d.a),
        "b": reference_plocal_json(d.b),
        "q": reference_plocal_json(d.q),
        "r": reference_plocal_json(d.r),
        "rbar": str(d.rbar),
        "jumped": d.jumped,
        "case": d.case,
    }


def reference_sum_text(e):
    return " + ".join(
        reference_term_display(q, initial=(e.initial and i == 0)) for i, q in enumerate(e.terms)
    )


def reference_expansion_json(e, verification=None):
    terms = []
    for i, q in enumerate(e.terms):
        initial = e.initial and i == 0
        entry = {"initial": initial, "display": reference_term_display(q, initial=initial)}
        if isinstance(q, PLocal):
            entry["unit"] = str(q.unit)
            entry["exp"] = str(q.exp)
            entry["value"] = reference_frac_str(reference_to_fraction(q))
        else:
            entry["q"] = str(q)
        terms.append(entry)
    trace = []
    for i, rec in enumerate(e.trace):
        trace.append({
            "index": str(i),
            "k": None if rec.k is None else str(rec.k),
            "initial": e.initial and i == 0,
            "tail_ord": report._ord_str(rec.tail_ord),
            "q": reference_plocal_json(rec.q) if isinstance(rec.q, PLocal) else str(rec.q),
            "division": reference_division_json(rec.division),
            "lhs": None if rec.division is None else reference_plocal_json(rec.division.b),
            "remainder": None if rec.remainder is None else str(rec.remainder),
        })
    out = {
        "schema": report.SCHEMA,
        "command": "expand",
        "algorithm": e.algorithm,
        "p": None if e.p is None else str(int(e.p)),
        "k": None if e.k is None else str(e.k),
        "input": (report._input_json(e.value) if isinstance(e.value, QuadElement)
                  else {"type": "rational", "value": reference_frac_str(Fraction(e.value))}),
        "expansion": reference_sum_text(e),
        "terms": terms,
        "status": e.status,
        "certificate": None if e.certificate is None else reference_frac_str(e.certificate),
        "trace": trace,
    }
    if verification is not None:
        out["verification"] = report.verification_json(verification)
    return out


def reference_step_text(i, rec, initial):
    bits = [f"step {i}:"]
    if initial:
        bits.append(f"a0={reference_term_display(rec.q, initial=True)}")
    else:
        bits.append(f"q={rec.q}")
        bits.append(f"term={reference_term_display(rec.q)}")
    if rec.k is not None and not initial:
        bits.append(f"k={rec.k}")
    if rec.division is not None:
        d = rec.division
        bits.append(f"r={reference_frac_str(reference_to_fraction(d.r))}")
        bits.append(f"rbar={d.rbar}")
        bits.append(f"jump={'yes' if d.jumped else 'no'}")
        bits.append(d.case)
    if rec.remainder is not None:
        bits.append(f"r={rec.remainder}")
    if rec.tail_ord is not None:
        bits.append(f"ord(tail)={rec.tail_ord}")
    return " ".join(bits)


def reference_expansion_text(e, verification=None):
    shown = str(e.value) if isinstance(e.value, QuadElement) else reference_frac_str(e.value)
    lines = [f"input: {shown}"]
    head = f"algorithm: {e.algorithm}"
    if e.p is not None:
        head += f"  p: {int(e.p)}"
    if e.k is not None:
        head += f"  k: {e.k}"
    lines.append(head)
    lines.append(f"expansion: {reference_sum_text(e)}")
    lines.append(f"status: {e.status}")
    if e.certificate is not None:
        lines.append(f"certificate: remainder {reference_frac_str(e.certificate)} is negative")
    if e.trace:
        lines.append("trace:")
        for i, rec in enumerate(e.trace):
            lines.append("  " + reference_step_text(i, rec, e.initial and i == 0))
    if verification is not None:
        lines.append("verification: " + report.verification_text(verification))
    return "\n".join(lines)


@st.composite
def plocals(draw):
    """A PLocal of either sign, including 0 and +-1, with order -40..40."""
    p = draw(st.sampled_from(PRIMES))
    unit = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**30), 10**30)))
    return PLocal(p, unit, draw(st.integers(-40, 40)))


class TestRenderers:
    @PROPERTY
    @given(plocals())
    def test_to_fraction_matches_reference(self, x):
        got, want = x.to_fraction(), reference_to_fraction(x)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @PROPERTY
    @given(plocals())
    def test_plocal_str_matches_reference(self, x):
        assert report._plocal_str(x) == reference_frac_str(reference_to_fraction(x))

    @PROPERTY
    @given(st.one_of(plocals(), st.integers(-(10**30), 10**30), st.sampled_from([0, 1, -1])),
           st.booleans())
    def test_term_display_matches_reference(self, q, initial):
        try:
            want = reference_term_display(q, initial=initial)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                report.term_display(q, initial=initial)
            return
        assert report.term_display(q, initial=initial) == want

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_power_refuses_what_str_would(self, limit):
        # Around the exponent where p**e passes the int/str digit limit, the
        # renderers of a value with that exponent raise exactly when
        # str(p**e) would, with str()'s message; _power raises before it
        # builds the power.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for p in (2, 3, 7, 101, 2**61 - 1):
                edge = int(limit / math.log10(p))
                for e in range(max(edge - 3, 0), edge + 4):
                    try:
                        want = str(p**e)
                    except ValueError:
                        for render in [
                                lambda: report._power(p, e),
                                lambda: report._plocal_str(PLocal(Prime(p), 1, e)),
                                lambda: report._plocal_str(PLocal(Prime(p), 1, -e)),
                                lambda: report.term_display(PLocal(Prime(p), -1, -e)),
                                lambda: report.term_display(PLocal(Prime(p), 1, e))]:
                            with pytest.raises(ValueError, match="^Exceeds the limit"):
                                render()
                    else:
                        assert str(report._power(p, e)) == want
                        assert report._plocal_str(PLocal(Prime(p), 1, e)) == want
        finally:
            sys.set_int_max_str_digits(saved)

    def test_power_is_refused_before_it_is_built(self):
        # 3**(10**400) could never be built; with no limit the power is. A
        # positive unit over a power of p displays as p^j/unit, without it.
        start = time.perf_counter()
        for x in (PLocal(Prime(3), 1, 10**400), PLocal(Prime(3), -1, -(10**400))):
            with pytest.raises(ValueError, match="^Exceeds the limit"):
                report._plocal_str(x)
            with pytest.raises(ValueError, match="^Exceeds the limit"):
                report.term_display(x)
        assert report.term_display(PLocal(Prime(3), 1, -(10**400))) == f"3^{10**400}/1"
        assert time.perf_counter() - start < 1
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert report._plocal_str(PLocal(Prime(3), 2, 10**4)) == str(2 * 3**10**4)
        finally:
            sys.set_int_max_str_digits(saved)


def _seeded_expansions(seed, count):
    """Every algorithm on `count` seeded rationals v of either sign: the
    p-adic ones on v*p^e for e in -3..3, the classical greedy on v itself.
    |v| <= 1 with a numerator below 10^4 keeps the classical greedy from
    making the dozens of doubling terms that larger inputs can need."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice(PRIMES[:5])
        num, den = sorted((rng.randint(1, 10**4), rng.randint(1, 10**4)))
        v = Fraction(num, den) * rng.choice([1, 1, -1])
        if v > -1:
            yield fs_greedy(*value_operands(v))
        value = v * Fraction(p) ** rng.randint(-3, 3)
        k = max(1, 1 - ord_p(p, value))
        yield pk_greedy(p, k, *value_operands(value))
        yield adaptive_pk_greedy(p, 1, value)
        yield modified_sylvester(p, k, value)
        yield knopfmacher_sylvester(p, value, max_terms=8)


class TestWholeReports:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_match_reference(self, seed):
        for e in _seeded_expansions(seed, 40):
            v = verify_expansion(None if e.algorithm == "fs" else e.p, e.value, e)
            assert v.ok, v.problems
            assert json.dumps(report.expansion_json(e, v), indent=2) == \
                json.dumps(reference_expansion_json(e, v), indent=2)
            assert json.dumps(report.expansion_json(e)) == json.dumps(reference_expansion_json(e))
            assert report.expansion_text(e, v) == reference_expansion_text(e, v)
            assert report.expansion_sum_text(e) == reference_sum_text(e)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parse_and_render_again_is_identity(self, seed):
        # The parser reads each value once and derives every copy, so the
        # parsed run is the run and renders to the same report.
        for e in _seeded_expansions(seed, 40):
            v = verify_expansion(None if e.algorithm == "fs" else e.p, e.value, e)
            for verification in (v, None):
                d = json.loads(json.dumps(report.expansion_json(e, verification)))
                p, value, back = report.expansion_from_json(d)
                assert back == e
                assert report.expansion_json(back, verification) == d

    @pytest.mark.parametrize("sign, expansion, sha256", [
        ("+", "1/9 + 7/66 + 7^3/4709 + 7^7/72282453",
         "0214bf638aa90d181c2240d9941fac6daa6b671612e24e1e155f590b7e002bcc"),
        ("-", "1/2 + 7/12 + 7^3/617 + 7^7/1045103",
         "f6cb542f8b0da31d5a7db3ea8515b6c0ad95ee28f079d864560fd23053ec466f"),
    ])
    def test_readme_xi_json_bytes(self, capsys, sign, expansion, sha256):
        code = main(["expand", "--alg", "sylvester", "--p", "7", "--k", "1", "--sqrt", "11",
                     "--x", "0", "--y", "1/11", "--real-sign", sign, "--padic-residue", "2",
                     "--max-terms", "4", "--output", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["expansion"] == expansion
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


# --- Sylvester driver and verifier ----------------------------------------
# The rational branch of modified_sylvester (the ceiling step on Fractions)
# and verify_expansion (the Fraction re-sum) as they were before rationals
# ran the p**k division driver and the verifier replayed the division
# chain, kept verbatim apart from names, the quadratic branches of the
# driver, and quad_order_or_inf, which is inlined. The quadratic branch (the
# same step in QuadElement arithmetic), as it was before quadratic runs
# stepped an integer triple, is kept verbatim apart from its name and entry.


def reference_rational_sylvester(p, k, zeta, max_terms=DEFAULT_MAX_TERMS):
    zeta = Fraction(zeta)
    if zeta == 0:
        raise PreconditionViolated("cannot expand zero")
    pk = Fraction(p) ** k
    start_ord = ord_p(p, zeta)
    if k <= -start_ord:
        raise KTooSmall(f"need k > {-start_ord} for this value, got k = {k}")
    cur = zeta
    terms = []
    trace = []
    status = TERMINATED
    while True:
        if cur == 0:
            break
        if len(terms) >= max_terms:
            status = CAP_REACHED
            break
        t = frac_part_k(p, k, 1 / cur)
        tf = t.to_fraction()
        c = ceil((1 - tf * cur) / (pk * cur))
        tail_ord = ord_p(p, cur)
        q = PLocal.from_fraction(p, tf + c * pk)
        terms.append(q)
        trace.append(StepRecord(q, k, tail_ord))
        cur = cur - 1 / q.to_fraction()
    return Expansion("sylvester", zeta, p, k, tuple(terms), status, tuple(trace))


def reference_quadratic_sylvester(p, k, zeta, max_terms=DEFAULT_MAX_TERMS):
    if zeta.is_zero():
        raise PreconditionViolated("cannot expand zero")
    start_ord = zeta.ord()
    if k <= -start_ord:
        raise KTooSmall(f"need k > {-start_ord} for this value, got k = {k}")
    pk = Fraction(p) ** k
    cur = zeta
    terms = []
    trace = []
    status = TERMINATED
    while not cur.is_zero():
        if len(terms) >= max_terms:
            status = CAP_REACHED
            break
        tf = quad_frac_part_k(cur.inv(), k).to_fraction()
        c = real_ceil((1 - cur * tf) / (cur * pk))
        q = PLocal.from_fraction(p, tf + c * pk)
        terms.append(q)
        trace.append(StepRecord(q, k, cur.ord()))
        cur = cur - 1 / q.to_fraction()
    return Expansion("sylvester", zeta, p, k, tuple(terms), status, tuple(trace))


def reference_order_of(p, v):
    if isinstance(v, QuadElement):
        return POS_INF if v.is_zero() else quad_ord(v)
    return ord_p(p, v)


def reference_division_record_problems(rec, i):
    d, k = rec.division, rec.k
    a, b, r = d.a, d.b, d.r
    if k is None or d.k != k:
        return [f"step {i}: division record has k {d.k}, the step has k {k}"]
    problems = []
    if PLocal(d.p, d.rbar, a.exp + k) != r:
        problems.append(f"step {i}: rbar {d.rbar} does not match r")
    if d.jumped != (not r.is_zero() and r.exp > a.exp + k):
        problems.append(f"step {i}: jump flag does not match r")
    if d.case != (CASE_1 if not b.is_zero() and k > b.exp - a.exp else CASE_2):
        problems.append(f"step {i}: case does not match a, b and k")
    return problems


def reference_verify_expansion(p, value, e):
    problems = []
    if len(e.terms) != len(e.trace) or any(q != rec.q for q, rec in zip(e.terms, e.trace)):
        problems.append("terms differ from the trace's q values")
    quad = isinstance(value, QuadElement)
    cur = value if quad else Fraction(value)
    padic = p is not None
    orders = [reference_order_of(p, cur)] if padic else []
    ks = []
    for i, rec in enumerate(e.trace):
        initial = e.initial and i == 0
        qf = rec.q.to_fraction() if isinstance(rec.q, PLocal) else Fraction(rec.q)
        if initial:
            cur = cur - qf
        else:
            cur = cur - 1 / qf
        if padic:
            orders.append(reference_order_of(p, cur))
            ks.append(None if initial else rec.k)
        if rec.division is not None:
            problems.extend(reference_division_record_problems(rec, i))

    sum_exact = None
    if e.status == TERMINATED:
        final_zero = cur.is_zero() if quad else cur == 0
        sum_exact = bool(final_zero)
        if not final_zero:
            problems.append(f"terminated run does not sum to its input (tail {cur})")

    strictly_increasing = None
    growth_ok = None
    if padic:
        strictly_increasing = True
        growth_ok = True
        for i in range(len(orders) - 1):
            s, nxt = orders[i], orders[i + 1]
            k_i = ks[i]
            if k_i is None:
                if not nxt >= 1:
                    growth_ok = False
                    problems.append(f"initial step left order {nxt} < 1")
                continue
            if not nxt > s:
                strictly_increasing = False
                problems.append(f"order not increasing at step {i}: {s} -> {nxt}")
            if s != POS_INF and not nxt >= k_i + 2 * s:
                growth_ok = False
                problems.append(
                    f"growth bound failed at step {i}: ord {nxt} < {k_i} + 2*{s}"
                )

    return VerificationReport(
        ok=not problems,
        sum_exact=sum_exact,
        tail_orders=orders,
        strictly_increasing=strictly_increasing,
        growth_ok=growth_ok,
        problems=problems,
    )


SYLVESTER_PRIMES = PRIMES[:5]


@st.composite
def sylvester_inputs(draw):
    """p, a rational of either sign times p**(-3..3), and a k from one below
    the least valid value to three above it."""
    p = draw(st.sampled_from(SYLVESTER_PRIMES))
    v = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    v *= draw(st.sampled_from([1, -1])) * Fraction(p) ** draw(st.integers(-3, 3))
    k = 1 - ord_p(p, v) + draw(st.integers(-1, 3))
    return p, k, v


def _same_verification(p, value, e):
    got, want = verify_expansion(p, value, e), reference_verify_expansion(p, value, e)
    assert got == want


def _check_verifiers_agree(p, value, e):
    """The verifiers agree on a run and on the run cut one term short and
    marked terminated, whose tail is left nonzero. The cut run drops any
    certificate, which only a certified run may carry."""
    _same_verification(p, value, e)
    if e.terms:
        cut = e._replace(terms=e.terms[:-1], trace=e.trace[:-1],
                         status=TERMINATED, certificate=None)
        assert not verify_expansion(p, value, cut).sum_exact
        _same_verification(p, value, cut)


class TestSylvesterDriver:
    @PROPERTY
    @given(sylvester_inputs(), st.sampled_from([0, 1, 2, 3, 64]))
    def test_rational_matches_ceiling_reference(self, case, max_terms):
        p, k, v = case
        try:
            want = reference_rational_sylvester(p, k, v, max_terms=max_terms)
        except KTooSmall:
            with pytest.raises(KTooSmall):
                modified_sylvester(p, k, v, max_terms=max_terms)
            return
        got = modified_sylvester(p, k, v, max_terms=max_terms)
        assert got == want
        assert type(got.value) is Fraction


@st.composite
def quadratic_runs(draw):
    """A quadratic element, a k from one below the least valid value to three
    above it, and a term cap."""
    u, _ = draw(quad_elements())
    k = 1 - reference_quad_ord(u) + draw(st.integers(-1, 3))
    return u, k, draw(st.sampled_from([0, 1, 4, 12]))


def _outcome(run, u, k, max_terms):
    try:
        return run(u.p, k, u, max_terms=max_terms)
    except (KTooSmall, PrecisionExhausted) as exc:
        return type(exc), str(exc)


class TestQuadraticDriver:
    @PROPERTY
    @given(quadratic_runs())
    def test_matches_quadelement_reference(self, case):
        u, k, max_terms = case
        want = _outcome(reference_quadratic_sylvester, u, k, max_terms)
        assert _outcome(modified_sylvester, u, k, max_terms) == want

    @PROPERTY
    @given(quadratic_runs(), st.sampled_from([1, 3, 10, 40, 200]))
    def test_precision_cap_hits_the_same_inputs(self, case, cap):
        u, k, max_terms = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "PRECISION_CAP", cap)
            want = _outcome(reference_quadratic_sylvester, u, k, max_terms)
            assert _outcome(modified_sylvester, u, k, max_terms) == want


class TestVerifier:
    @PROPERTY
    @given(sylvester_inputs(), st.integers(1, 6))
    def test_rational_runs_match_reference(self, case, max_terms):
        # A Knopfmacher run that is neither finished nor certified squares its
        # term size at each step, so the caps stay small.
        p, k, v = case
        k = max(k, 1 - ord_p(p, v))
        a, b = value_operands(v)
        runs = [
            (p, pk_greedy(p, k, a, b)),
            (p, adaptive_pk_greedy(p, k - 1, v)),
            (p, modified_sylvester(p, k, v, max_terms=max_terms)),
            (p, knopfmacher_sylvester(p, v, max_terms=max_terms)),
        ]
        if -1 < v <= 1:  # the classical greedy takes about v steps on a large v
            runs.append((None, fs_greedy(a, b)))
        for prime, e in runs:
            _check_verifiers_agree(prime, v, e)

    @PROPERTY
    @given(quad_elements(), st.integers(0, 2), st.integers(1, 4))
    def test_quadratic_runs_match_reference(self, case, offset, max_terms):
        u, _ = case
        e = modified_sylvester(u.p, 1 - quad_ord(u) + offset, u, max_terms=max_terms)
        _check_verifiers_agree(u.p, u, e)


def reference_stripping_verify_expansion(p, value, e):
    """verify_expansion as it was before it checked claims: it puts each
    replayed num*q - den into canonical form, stripping every power of p.
    It tests the fs, rational sylvester and Knopfmacher term rules in its own
    terms: the least q with a*q >= b, a remainder in [0, a*p**k) as
    Fractions, and a window value in [0, p). It lists a step's problems
    together, in step order, before the run's own."""
    problems: list[str] = []
    zero = next((i for i, rec in enumerate(e.trace)
                 if not (e.initial and i == 0) and not rec.q), None)
    trace = e.trace[:zero]

    y = None
    if isinstance(value, QuadElement):
        p = value.p
        num, y, den = _surd_triple(value)
    else:
        num, den = Fraction(value).as_integer_ratio()
        if num < 0:  # a > 0, as the division drivers take their operands
            num, den = -num, -den
        if p is not None:
            num, den = PLocal(p, num), PLocal(p, den)
    knopf = e.algorithm == "knopfmacher" and p is not None and y is None
    sylvester = e.algorithm == "sylvester" and p is not None and y is None
    fs = e.algorithm == "fs"
    orders = []
    for i, rec in enumerate(trace):
        initial = e.initial and i == 0
        q, d = rec.q, rec.division
        if d is not None:
            problems.extend(_division_record_problems(rec, i))
        if p is not None:
            o = _tail_ord(p, num, y, den, value, None)[0]
            orders.append(o)
            if rec.tail_ord != (None if o == POS_INF else o):
                problems.append(f"step {i}: tail_ord {rec.tail_ord} is not the order {o}")
            if not initial and e.algorithm in ("pk", "sylvester", "adaptive"):
                want = e.k
                if e.algorithm == "adaptive" and e.k is not None and o != POS_INF and e.k <= -o:
                    want = 1 - o
                if rec.k != want:
                    problems.append(f"step {i}: k {rec.k} is not the {e.algorithm} k {want}")
        # The window <.>_1 takes its values in [0, p).
        if knopf and q and not 0 <= q.to_fraction() < p:
            problems.append(f"step {i}: term {q} is outside the window [0, {int(p)})")
        if initial:
            num -= den * q
            continue
        if d is not None and i == 0:
            if d.a * den == d.b * num:
                num, den = d.a, d.b
            else:
                problems.append(f"step {i}: a/b differs from the input")
        elif d is not None:
            if d.a != num:
                problems.append(f"step {i}: a is not the previous step's r")
            if d.b != den:
                problems.append(f"step {i}: b is not the previous step's b*q")
        # The classical greedy term is the least q with a*q >= b, for a > 0.
        a, greedy = num, not fs or num > 0 and q == -(-den // num)
        num, den = num * q - den, den * q
        if y is not None:
            y = y * q
        if d is not None and d.r != num:
            problems.append(f"step {i}: r is not a*q - b")
        if rec.remainder is not None and rec.remainder != num:
            problems.append(f"step {i}: remainder {rec.remainder} is not a*q - b")
        if not greedy:
            problems.append(f"step {i}: remainder {num} is outside [0, {a})")
        if sylvester and rec.k is not None and \
                not 0 <= num.to_fraction() < a.to_fraction() * Fraction(p) ** rec.k:
            bound = PLocal(p, a.unit, a.exp + rec.k)
            problems.append(f"step {i}: remainder {num} is outside [0, {bound})")
    if zero is not None:
        problems.append(f"step {zero}: term is zero")
    if p is not None:
        orders.append(_tail_ord(p, num, y, den, value, None)[0])
    if len(e.terms) != len(e.trace) or any(q != rec.q for q, rec in zip(e.terms, e.trace)):
        problems.append("terms differ from the trace's q values")

    sum_exact = None
    if e.status == TERMINATED:
        sum_exact = zero is None and not num and not y
        if zero is None and not sum_exact:
            tail = _replay_tail(num, y, den, value)
            problems.append(f"terminated run does not sum to its input (tail {tail})")
    if e.status != TERMINATED and zero is None and not num and not y:
        problems.append(f"status {e.status} but the replayed tail is zero")
    c = e.certificate
    if e.status == CERTIFIED_NONTERMINATING and c is None:
        problems.append(f"status {e.status} without a certificate")
    if c is not None:
        if e.status != CERTIFIED_NONTERMINATING:
            problems.append(f"certificate {c} on a run with status {e.status}")
        if zero is None and c != _replay_tail(num, y, den, value):
            problems.append(f"certificate {c} is not the final tail")
        if not c < 0:
            problems.append(f"certificate {c} is not negative")

    strictly_increasing = None
    growth_ok = None
    if orders:
        strictly_increasing = True
        growth_ok = True
        for i in range(len(orders) - 1):
            s, nxt = orders[i], orders[i + 1]
            k_i = None if e.initial and i == 0 else trace[i].k
            if k_i is None:
                # Additive initial term: only ord >= 1 is promised.
                if not nxt >= 1:
                    growth_ok = False
                    problems.append(f"initial step left order {nxt} < 1")
                continue
            if not nxt > s:
                strictly_increasing = False
                problems.append(f"order not increasing at step {i}: {s} -> {nxt}")
            if s != POS_INF and not nxt >= k_i + 2 * s:
                growth_ok = False
                problems.append(
                    f"growth bound failed at step {i}: ord {nxt} < {k_i} + 2*{s}"
                )

    return VerificationReport(
        ok=not problems,
        sum_exact=sum_exact,
        tail_orders=orders,
        strictly_increasing=strictly_increasing,
        growth_ok=growth_ok,
        problems=problems,
    )


def _run_with_edit(p, e, i, field, delta):
    """e with one claim of step i moved by delta: the unit or exponent of its
    r (an fs remainder), the unit of its a or b, the unit of its q (in the
    terms, the trace and the record alike), or the tail_ord the next step
    claims (none without a prime)."""
    trace = list(e.trace)
    rec = trace[i]
    d = rec.division
    if field == "tail_ord" and p is None:
        return e

    def bump(x, attr="unit"):
        if not isinstance(x, PLocal):
            return x + delta
        if attr == "unit":
            return PLocal(p, x.unit + delta, x.exp)
        return PLocal(p, x.unit, x.exp + delta)

    if field == "tail_ord":
        j = min(i + 1, len(trace) - 1)
        t = trace[j].tail_ord
        trace[j] = trace[j]._replace(tail_ord=delta if t is None else t + delta)
    elif field == "q":
        q = bump(rec.q)
        new_d = d and d._replace(q=q)
        trace[i] = rec._replace(q=q, division=new_d)
        terms = list(e.terms)
        terms[i] = q
        return e._replace(terms=tuple(terms), trace=tuple(trace))
    elif d is not None:
        name, attr = {"r_unit": ("r", "unit"), "r_exp": ("r", "exp"),
                      "a": ("a", "unit"), "b": ("b", "unit")}[field]
        trace[i] = rec._replace(division=d._replace(
            **{name: bump(getattr(d, name), attr)}))
    elif field == "r_unit" and rec.remainder is not None:
        trace[i] = rec._replace(remainder=rec.remainder + delta)
    return e._replace(trace=tuple(trace))


class TestClaimedReplay:
    """verify_expansion confirms division records and finds every other
    order from the growth bound instead of stripping each replayed remainder
    from scratch; on runs with one claim moved it must still give the
    stripping replay's report, problem for problem."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sylvester_inputs(), st.sampled_from(["pk", "adaptive", "sylvester", "knopf", "fs"]),
           st.integers(1, 6), st.integers(0, 10**6),
           st.sampled_from(["r_unit", "r_exp", "a", "b", "q", "tail_ord"]),
           st.sampled_from([-1, 1]))
    def test_edited_runs_match_stripping_reference(self, case, alg, max_terms, at, field, delta):
        p, k, v = case
        k = max(k, 1 - ord_p(p, v))
        a, b = value_operands(v)
        if alg == "fs" and not -1 < v <= 1:  # the classical greedy takes about v steps
            alg = "pk"
        prime, e = {
            "pk": lambda: (p, pk_greedy(p, k, a, b)),
            "adaptive": lambda: (p, adaptive_pk_greedy(p, k - 1, v)),
            "sylvester": lambda: (p, modified_sylvester(p, k, v, max_terms=max_terms)),
            "knopf": lambda: (p, knopfmacher_sylvester(p, v, max_terms=max_terms)),
            "fs": lambda: (None, fs_greedy(a, b)),
        }[alg]()
        if e.trace:
            e = _run_with_edit(prime, e, at % len(e.trace), field, delta)
        got = verify_expansion(prime, v, e)
        want = reference_stripping_verify_expansion(prime, v, e)
        assert got == want


class TestTermRuleComparison:
    """The fs rule 0 <= r < a and the rational sylvester rule 0 <= r < a*p**k
    share one comparison, which reads PLocals by bit lengths first."""

    @PROPERTY
    @given(plocals(), plocals(), st.integers(-300, 300), st.integers(-40, 40))
    def test_matches_fractions(self, r, b, shift, k):
        b = PLocal(r.p, b.unit, b.exp + shift)
        assert _below(r, b, k) == (0 <= r.to_fraction() < b.to_fraction() * Fraction(r.p) ** k)
        assert _below(r.unit, b.unit) == (0 <= r.unit < b.unit)

    def test_wide_gaps_build_no_power(self):
        got, seconds = _timed_in_subprocess(
            "from padic_sylvester.division import _below\n"
            "p = Prime(101)",
            "[_below(PLocal(p, 5, 10**400), PLocal(p, 7)),"
            " _below(PLocal(p, 5), PLocal(p, 7, 10**400))]")
        assert got == [False, True]
        assert seconds < 1


class TestVerifierDoesNotStrip:
    """verify_expansion takes each replayed remainder's power of p from the
    growth bound, a capped run's final tail included, so on a valid deep run
    it never walks the powers of p of a wide integer."""

    @pytest.mark.parametrize("alg", ["pk", "adaptive", "sylvester", "sylvester-capped"])
    def test_no_wide_strip(self, alg, monkeypatch):
        p = Prime(101)
        v = Fraction(10**20 + 7, 10**20 + 9)
        a, b = value_operands(v)
        e = {"pk": lambda: pk_greedy(p, 1, a, b),
             "adaptive": lambda: adaptive_pk_greedy(p, 1, v),
             "sylvester": lambda: modified_sylvester(p, 1, v),
             "sylvester-capped": lambda: modified_sylvester(p, 1, v, max_terms=12)}[alg]()
        wide = []
        spy = _wide_walks(wide)
        monkeypatch.setattr(valuation, "_strip", spy)
        monkeypatch.setattr(expansion, "_strip", spy)
        report = verify_expansion(p, v, e)
        assert report.ok
        assert wide == []


QUAD_POOL = Path(__file__).resolve().parents[1] / "bench" / "quad_pool.json"


class TestGrowthFloor:
    """The quadratic driver and the replay both find each order from the
    floor the growth bound ord(z_{i+1}) >= k + 2*ord(z_i) puts under it. On
    valid runs every floor holds, so each norm costs one exact division and
    a strip of what is left, never the full walk."""

    def test_every_floor_divides(self, monkeypatch):
        xi = QuadElement.make(0, Fraction(1, 11), 11, "+", Prime(7), 2)
        runs = [(xi, 15)] + [
            (QuadElement.make(Fraction(c["x"]), Fraction(c["y"]), c["d"], c["sign"],
                              Prime(c["p"]), c["residue"]), 12)
            for c in json.loads(QUAD_POOL.read_text())
        ]
        floors = []
        strip = valuation._strip

        def spy(p, n, floor=0, power=None):
            v, u = strip(p, n, floor, power)
            if floor > 0:
                floors.append((floor, v))
            return v, u

        for module in (valuation, quadratic, expansion):
            monkeypatch.setattr(module, "_strip", spy)
        for u, terms in runs:
            e = modified_sylvester(u.p, 1, u, max_terms=terms)
            assert len(e.terms) == terms
            assert verify_expansion(u.p, u, e).ok
        bad = [(floor, v) for floor, v in floors if v < floor]
        assert bad == []
        # Nearly every step after the first in the driver, and every tail
        # after the first in the replay, has a norm that cancels and a
        # positive floor; one pool element has a step whose coefficients'
        # orders differ, so nothing cancels there.
        assert len(floors) >= sum(2 * terms - 2 for _, terms in runs)

    @staticmethod
    def _floors(monkeypatch):
        """Patch a _strip spy into every module that calls it; returns the
        list of the floors it is passed, in call order."""
        floors = []
        strip = valuation._strip

        def spy(p, n, floor=0, power=None):
            floors.append(floor)
            return strip(p, n, floor, power)

        for module in (valuation, quadratic, expansion):
            monkeypatch.setattr(module, "_strip", spy)
        return floors

    def test_replay_floors_are_the_drivers(self, monkeypatch):
        # The replay steps the same triples as the driver and bounds each
        # order with the same rule, so tails 1-14 get the driver's floors,
        # and the final tail, which the driver never orders, one more.
        xi = QuadElement.make(0, Fraction(1, 11), 11, "+", Prime(7), 2)
        floors = self._floors(monkeypatch)
        e = modified_sylvester(xi.p, 1, xi, max_terms=15)
        driver = [f for f in floors if f > 0]
        floors.clear()
        assert verify_expansion(xi.p, xi, e).ok
        replay = [f for f in floors if f > 0]
        assert len(driver) == 14
        assert replay[:-1] == driver

    def test_claims_do_not_move_the_floors(self, monkeypatch):
        # tail_ord is only compared: moving every claim changes the report's
        # problems, not one floor the replay passes to _strip.
        xi = QuadElement.make(0, Fraction(1, 11), 11, "+", Prime(7), 2)
        v = Fraction(10**20 + 7, 10**20 + 9)
        runs = [(xi, modified_sylvester(xi.p, 1, xi, max_terms=15)),
                (v, modified_sylvester(Prime(101), 1, v))]
        floors = self._floors(monkeypatch)
        for value, e in runs:
            moved = e._replace(trace=tuple(
                rec._replace(tail_ord=rec.tail_ord + 1000) for rec in e.trace))
            floors.clear()
            assert verify_expansion(e.p, value, e).ok
            want = list(floors)
            floors.clear()
            assert not verify_expansion(e.p, value, moved).ok
            assert floors == want
            assert any(f > 0 for f in want)


# The loops that fs_greedy, knopfmacher_sylvester and the p**k division
# drivers (pk_greedy, adaptive_pk_greedy, check_nojump_correspondence and the
# rational branch of modified_sylvester) ran before every algorithm stepped
# one chain, kept verbatim apart from names; the division loop steps
# reference_pk_divide. The Knopfmacher loop steps its tail in Fraction
# arithmetic, with one gcd per step.


def reference_fs_greedy(a: int, b: int) -> Expansion:
    """Classical greedy expansion of a/b into unit fractions with integer
    denominators. Requires a > 0, gcd(a, b) = 1 and a/b > -1; always
    terminates with Sum 1/q_i = a/b.
    """
    a, b = int(a), int(b)
    if a <= 0:
        raise PreconditionViolated(f"a must be positive, got {a}")
    if b == 0:
        raise PreconditionViolated("b must be nonzero")
    if gcd(a, abs(b)) != 1:
        raise PreconditionViolated(f"gcd({a}, {b}) must be 1")
    value = Fraction(a, b)
    if value <= -1:
        raise PreconditionViolated(f"a/b must exceed -1, got {value}")
    lhs, divisor = b, a
    terms: list[int] = []
    trace: list[StepRecord] = []
    while True:
        q, r = classical_divide(divisor, lhs)
        terms.append(q)
        trace.append(StepRecord(q, remainder=r))
        if r == 0:
            break
        lhs *= q
        divisor = r
    return Expansion("fs", value, None, None, tuple(terms), TERMINATED, tuple(trace))


def reference_pk_divide(p: Prime, k: int, a, b) -> DivisionStep:
    """pk_divide as it was before a run carried its powers of p: every power
    is built from nothing, the zero remainder's too."""
    a = PLocal.from_fraction(p, a)
    b = PLocal.from_fraction(p, b)
    if a.unit <= 0:
        raise NonPositiveDivisor(f"divisor must be positive, got {a}")
    if b.is_zero():
        zero = PLocal.zero(p)
        return DivisionStep(p, k, a, b, zero, zero, 0, False, CASE_2)
    alpha, ahat = a.exp, a.unit
    beta, bhat = b.exp, b.unit
    rbar = -bhat * pow(p, beta - alpha - k, ahat) % ahat
    if k > beta - alpha:
        num = rbar * p ** (alpha + k - beta) + bhat
        case = CASE_1
        q_exp = beta - alpha
    else:
        num = rbar + bhat * p ** (beta - alpha - k)
        case = CASE_2
        q_exp = k
    q_unit, rem = divmod(num, ahat)
    if rem:
        raise RuntimeError("division step did not cancel exactly")
    q = PLocal(p, q_unit, q_exp)
    r = PLocal(p, rbar, alpha + k)
    jumped = rbar != 0 and rbar % p == 0
    return DivisionStep(p, k, a, b, q, r, rbar, jumped, case)


def reference_division_expansion(
    p: Prime,
    a: PLocal,
    b: PLocal,
    algorithm: str,
    k_echo: int,
    choose_k,
    max_steps: "int | None" = None,
) -> Expansion:
    value = a.to_fraction() / b.to_fraction()
    lhs, divisor = b, a
    terms: list[PLocal] = []
    trace: list[StepRecord] = []
    status = TERMINATED
    while True:
        if max_steps is not None and len(terms) >= max_steps:
            status = CAP_REACHED
            break
        tail_ord = divisor.exp - lhs.exp
        k_i = choose_k(len(terms), tail_ord)
        step = reference_pk_divide(p, k_i, divisor, lhs)
        if step.q.is_zero():
            raise RuntimeError(f"quotient 0 at step {len(terms)}; k = {k_i} is too small here")
        terms.append(step.q)
        trace.append(
            StepRecord(
                q=step.q,
                k=k_i,
                tail_ord=tail_ord,
                division=step,
            )
        )
        if step.r.is_zero():
            break
        lhs = lhs * step.q
        divisor = step.r
    return Expansion(algorithm, value, p, k_echo, tuple(terms), status, tuple(trace))


def reference_knopfmacher_sylvester(p: Prime, v, max_terms: int = DEFAULT_MAX_TERMS) -> Expansion:
    """Knopfmacher-style Sylvester expansion: a_0 = <v>, then repeatedly
    a_n = <1/z_n> and z_{n+1} = z_n - 1/a_n.

    Stops on z = 0 (terminated), on a negative remainder (certified
    non-terminating), or after max_terms reciprocal terms (cap reached).
    """
    v = Fraction(v)
    a0 = frac_part(p, v)
    terms: list[PLocal] = [a0]
    trace = [StepRecord(q=a0, k=1, tail_ord=reference_finite_ord(p, v))]
    zeta = v - a0.to_fraction()
    certificate = None
    recip = 0
    while True:
        if zeta == 0:
            status = TERMINATED
            break
        if zeta < 0:
            status = CERTIFIED_NONTERMINATING
            certificate = zeta
            break
        if recip >= max_terms:
            status = CAP_REACHED
            break
        an = frac_part(p, 1 / zeta)
        terms.append(an)
        trace.append(StepRecord(q=an, k=1, tail_ord=ord_p(p, zeta)))
        zeta = zeta - 1 / an.to_fraction()
        recip += 1
    return Expansion(
        "knopfmacher", v, p, None, tuple(terms), status, tuple(trace),
        initial=True, certificate=certificate,
    )


def reference_finite_ord(p, v):
    o = ord_p(p, v)
    return None if o == POS_INF else o


def _same_run(got, want):
    """Equal Expansions, down to the types of the value, the certificate and
    each term, which == between Fraction, int and PLocal does not see."""
    assert got == want
    assert type(got.value) is type(want.value)
    assert type(got.certificate) is type(want.certificate)
    assert [type(q) for q in got.terms] == [type(q) for q in want.terms]


@st.composite
def small_values(draw, low, high):
    """A rational in (low, high]."""
    d = draw(st.integers(1, 10**4))
    n = draw(st.integers(low * d + 1, high * d).filter(bool))
    return Fraction(n, d)


# CPython 3.12 and later hand divmod to _pylong's recursive division once
# the divisor passes 300 digits of 30 bits (and the quotient 150 more).
PYLONG_DIVISOR_BITS = 300 * 30


@st.composite
def reductions(draw):
    """(x, m): m = p**w, from one digit to past PYLONG_DIVISOR_BITS and on
    each side of it, and x of either sign up to three times m's width."""
    p = draw(st.sampled_from([Prime(2), *WINDOW_PRIMES]))
    bits = draw(st.one_of(st.integers(1, 3000),
                          st.integers(PYLONG_DIVISOR_BITS - 300, PYLONG_DIVISOR_BITS + 300)))
    m = p ** max(1, round(bits / math.log2(p)))
    width = draw(st.integers(0, 3 * m.bit_length()))
    return draw(st.integers(-(2**width), 2**width)), m


class TestModKernel:
    @PROPERTY
    @given(reductions())
    def test_matches_percent(self, case):
        x, m = case
        assert digits._mod(x, m) == x % m

    @pytest.mark.parametrize("p", [Prime(2), *WINDOW_PRIMES], ids=int)
    def test_each_side_of_the_recursive_division(self, p):
        rng = random.Random(int(p))
        w = round(PYLONG_DIVISOR_BITS / math.log2(p))
        for m in (p ** (w - 20), p ** (w + 20)):
            for bits in (m.bit_length() - 1, 2 * m.bit_length(), 3 * m.bit_length()):
                x = rng.getrandbits(bits)
                for y in (x, -x, x + m, -x - m):
                    assert digits._mod(y, m) == y % m


class TestAlgorithmRows:
    """Each algorithm is one _ALGORITHMS row, built at import: a rational
    run's expand and verify hand _walk that row itself, building none."""

    def test_rational_runs_walk_the_rows(self, monkeypatch):
        walked, walk = [], expansion._walk
        monkeypatch.setattr(expansion, "_walk",
                            lambda alg, *args, **kw: walked.append(alg) or walk(alg, *args, **kw))
        p, v = Prime(7), Fraction(355, 113)
        runs = [pk_greedy(p, 1, 355, 113), adaptive_pk_greedy(p, 1, v), modified_sylvester(p, 1, v),
                knopfmacher_sylvester(p, v), fs_greedy(355, 113)]
        for e in runs:
            assert verify_expansion(None if e.algorithm == "fs" else p, v, e).ok
        rows = [expansion._ALGORITHMS[e.algorithm] for e in runs] * 2
        assert len(walked) == len(rows) and all(map(operator.is_, walked, rows))


class TestChainDriver:
    """Every algorithm steps one chain; each must give the Expansion its own
    loop gave, trace, division records, status and certificate included."""

    @PROPERTY
    @given(sylvester_inputs(), st.integers(-2, 2))
    def test_pk_matches_reference(self, case, shift):
        p, k, v = case
        k = max(k, 1 - ord_p(p, v))
        a, b = (Fraction(x) * Fraction(p) ** shift for x in value_operands(v))
        want = reference_division_expansion(
            p, PLocal.from_fraction(p, a), PLocal.from_fraction(p, b), "pk", k, lambda i, t: k
        )
        _same_run(pk_greedy(p, k, a, b), want)

    @PROPERTY
    @given(sylvester_inputs(), st.integers(-3, 0))
    def test_adaptive_matches_reference(self, case, offset):
        p, k, v = case
        k += offset
        a, b = value_operands(v)

        def choose(i: int, tail_ord: int) -> int:
            return 1 - tail_ord if k <= -tail_ord else k

        want = reference_division_expansion(p, PLocal(p, a), PLocal(p, b), "adaptive", k, choose)
        _same_run(adaptive_pk_greedy(p, k, v), want)

    @PROPERTY
    @given(sylvester_inputs(), st.sampled_from([0, 1, 3, 64]))
    def test_knopf_matches_reference(self, case, max_terms):
        p, _, v = case
        want = reference_knopfmacher_sylvester(p, v, max_terms=max_terms)
        _same_run(knopfmacher_sylvester(p, v, max_terms=max_terms), want)

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_knopf_zero_matches_reference(self, p):
        p = Prime(p)
        _same_run(knopfmacher_sylvester(p, 0), reference_knopfmacher_sylvester(p, 0))

    @PROPERTY
    @given(small_values(-1, 3))
    def test_fs_matches_reference(self, v):
        a, b = value_operands(v)
        _same_run(fs_greedy(a, b), reference_fs_greedy(a, b))

    @PROPERTY
    @given(st.sampled_from(SYLVESTER_PRIMES), small_values(0, 3), st.integers(-3, 3),
           st.integers(0, 3))
    def test_nojump_runs_match_reference(self, p, v, power, below):
        v *= Fraction(p) ** power
        k = -ord_p(p, v) - below
        while v * Fraction(p) ** k > 3:  # the classical greedy takes about v steps
            k -= 1
        aa, bb = value_operands(v)
        classical = reference_fs_greedy(*value_operands(v * Fraction(p) ** k))
        padic = reference_division_expansion(
            p, PLocal(p, aa), PLocal(p, bb), "pk", k, lambda i, t: k,
            max_steps=len(classical.terms) + 4,
        )
        got = check_nojump_correspondence(p, k, aa, bb)
        _same_run(got.classical, classical)
        _same_run(got.padic, padic)


class TestExponentBound:
    """The replay ends at a term exponent too far from its tail's order to be
    valid. Even with no allowance past the valid range, no run the library
    makes trips it: case 2 of the p**k division (k <= -ord(tail), as in the
    no-jump comparison) included."""

    @PROPERTY
    @given(st.sampled_from(SYLVESTER_PRIMES), small_values(0, 3), st.integers(-3, 3),
           st.integers(0, 3))
    def test_case_2_runs_need_no_allowance(self, p, v, power, below):
        v *= Fraction(p) ** power
        k = -ord_p(p, v) - below
        while v * Fraction(p) ** k > 3:  # the classical greedy takes about v steps
            k -= 1
        e = check_nojump_correspondence(p, k, *value_operands(v)).padic
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expansion, "_CLAIM_BITS", 0)
            problems = verify_expansion(p, v, e).problems
        assert not [prob for prob in problems if "too far" in prob]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_runs_need_no_allowance(self, seed, monkeypatch):
        monkeypatch.setattr(expansion, "_CLAIM_BITS", 0)
        for e in _seeded_expansions(seed, 40):
            assert verify_expansion(None if e.algorithm == "fs" else e.p, e.value, e).ok

    def test_head_is_measured_from_its_order(self, monkeypatch):
        # A Knopfmacher head's valid exponent is its tail's order o, not -o:
        # 2/3^5 has head 2*3^-5, and one exponent off is near, even with no
        # allowance; only the claims it breaks are listed.
        monkeypatch.setattr(expansion, "_CLAIM_BITS", 0)
        p, v = Prime(3), Fraction(2, 3**5)
        e = knopfmacher_sylvester(p, v)
        a0 = PLocal(p, 2, -4)
        bad = e._replace(terms=(a0,), trace=(e.trace[0]._replace(q=a0),))
        assert verify_expansion(p, v, bad).problems == [
            "terminated run does not sum to its input (tail -4/243)",
            "initial step left order -5 < 1",
        ]

    def test_far_term_ends_the_replay(self, monkeypatch):
        # With no allowance, exponent 20 at step 1 of the 473/25 pk run is
        # too far from -1: the replay ends there, with that step's tail order
        # as its last, and lists no problem of the steps it did not replay.
        monkeypatch.setattr(expansion, "_CLAIM_BITS", 0)
        p = Prime(3)
        e = pk_greedy(p, 1, PLocal(p, 473), PLocal(p, 25))
        q = PLocal(p, e.trace[1].q.unit, 20)
        trace = (e.trace[0], e.trace[1]._replace(q=q, division=e.trace[1].division._replace(q=q)),
                 *e.trace[2:])
        v = verify_expansion(p, Fraction(473, 25), e._replace(terms=(e.terms[0], q, *e.terms[2:]),
                                                             trace=trace))
        assert v.problems == ["step 1: term exponent 20 is too far from the order 1 to be valid"]
        assert v.tail_orders == [0, 1]


class TestNoProductAfterFinalTerm:
    """den*q after the final term is never read and is the widest product of
    a run, so a terminated rational run forms den*q once per term but the
    last."""

    @pytest.mark.parametrize("alg", ["pk", "adaptive", "sylvester"])
    def test_one_product_per_term_but_the_last(self, alg, monkeypatch):
        p = Prime(101)
        v = Fraction(10**16 + 7, 10**16 + 9)
        a, b = value_operands(v)
        products = []
        mul = PLocal.__mul__

        def spy(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(PLocal, "__mul__", spy)
        e = {"pk": lambda: pk_greedy(p, 1, a, b),
             "adaptive": lambda: adaptive_pk_greedy(p, 1, v),
             "sylvester": lambda: modified_sylvester(p, 1, v)}[alg]()
        assert e.status == TERMINATED
        assert len(e.terms) == 12
        assert len(products) == len(e.terms) - 1


def _division_sweep(seed: int, count: int):
    """(p, k, a, b) for p in 2, 3, 5, 7, 101 and k from -3 to 3: per (p, k),
    count pairs of each kind, a b drawn at random, a b that unit(a) divides
    (rbar = 0) and a b made for a nonzero rbar divisible by p (a jump). The
    orders of a and b lie 200 apart at most, so some powers of p are wide
    enough for a ladder."""
    rng = random.Random(seed)

    def unit(low, high):
        while True:
            u = rng.randrange(low, high)
            if u % p:
                return u

    for p in map(Prime, (2, 3, 5, 7, 101)):
        for k in range(-3, 4):
            for kind in ("random", "zero", "jump") * count:
                ahat = unit(p + 1, 10**6)
                alpha, beta = rng.randint(-100, 100), rng.randint(-100, 100)
                if kind == "random":
                    bhat = unit(1, 10**12)
                elif kind == "zero":
                    bhat = ahat * unit(1, 10**6)
                else:
                    rbar = p * rng.randint(1, (ahat - 1) // p)
                    bhat = -rbar * pow(p, alpha + k - beta, ahat) % ahat
                    while bhat % p == 0:
                        bhat += ahat
                yield p, k, PLocal(p, ahat, alpha), PLocal(p, rng.choice((1, -1)) * bhat, beta)


class TestPowerLadder:
    """A rational run builds each power of p once: a step's power is the
    previous step's squared times a small power of p, and the zero
    remainder's, the run's widest, is never built. The division step, the
    drivers and the replay must still give what the old formula gave."""

    def test_pk_divide_matches_reference(self):
        kinds = Counter()
        ladders = {}
        for p, k, a, b in _division_sweep(16, 20):
            want = reference_pk_divide(p, k, a, b)
            # One ladder per prime across the whole sweep: its exponents
            # rise, fall and repeat, so every branch of _powers runs.
            ladder = ladders.setdefault(p, _powers(p))
            for got in (pk_divide(p, k, a, b), _pk_divide(p, k, a, b, ladder)):
                for f in DivisionStep._fields:
                    assert getattr(got, f) == getattr(want, f), f
            e = abs(a.exp + k - b.exp)
            kinds[p, want.case, want.rbar == 0, want.jumped, e >= _LADDER_FROM] += 1
        for p in (2, 3, 5, 7, 101):
            for case in (CASE_1, CASE_2):
                assert kinds[p, case, True, False, True] and kinds[p, case, False, True, True]
                assert kinds[p, case, False, False, False]

    def test_powers_match_builtin_pow(self):
        # Every exponent gives p**e. One below _LADDER_FROM builds p**e and
        # leaves the ladder as it was; from there up, the last one asked
        # again builds no power, one at least twice the last builds
        # p**(e - 2*last), and any other p**e.
        rng = random.Random(16)
        for p in (2, 3, 101):
            log = []
            power = _powers(_PowerLog(p, log))
            last = 0
            for e in [0, 64, 64, 128, 300, 299, 1000, 2000, 2000, 5, 4001] + [
                    rng.randrange(5000) for _ in range(50)] + list(range(_LADDER_FROM)):
                log.clear()
                assert power(e) == p**e
                if e < _LADDER_FROM:
                    assert log == [e]
                    continue
                assert log == ([] if e == last else [e - 2 * last] if 2 * last <= e else [e])
                last = e

    def test_far_record_r_fails_at_once(self):
        # A division record's r whose exponent is 10**400 above or below b's
        # is only compared with the replay's a*q - b: it builds no
        # p**(10**400).
        got, seconds = _timed_in_subprocess(
            "from padic_sylvester import pk_greedy, verify_expansion\n"
            "p = Prime(3)\n"
            "e = pk_greedy(p, 1, 473, 25)\n"
            "def far(exp):\n"
            "    d = e.trace[1].division\n"
            "    rec = e.trace[1]._replace(division=d._replace(r=PLocal(p, d.r.unit, exp)))\n"
            "    return e._replace(trace=e.trace[:1] + (rec,) + e.trace[2:])",
            "['step 1: r is not a*q - b' in verify_expansion(p, e.value, far(exp)).problems"
            " for exp in (10**400, -(10**400))]")
        assert got == [True, True]
        assert seconds < 1

    @pytest.mark.parametrize("p", [2, 101])
    def test_ladder_runs_match_reference(self, p):
        # The (10**n + 7)/(10**n + 9) ladder, n = 8..20; its largest terms
        # pass 400k bits at p = 101, and jumps come often at p = 2.
        p = Prime(p)
        jumps = 0
        for n in range(8, 21):
            v = Fraction(10**n + 7, 10**n + 9)
            a, b = value_operands(v)
            want = reference_division_expansion(
                p, PLocal(p, a), PLocal(p, b), "pk", 1, lambda i, t: 1)
            adaptive = reference_division_expansion(
                p, PLocal(p, a), PLocal(p, b), "adaptive", 1,
                lambda i, t: 1 - t if 1 <= -t else 1)
            sylvester = want._replace(algorithm="sylvester", trace=tuple(
                rec._replace(division=None) for rec in want.trace))
            runs = ((pk_greedy(p, 1, a, b), want),
                    (adaptive_pk_greedy(p, 1, v), adaptive),
                    (modified_sylvester(p, 1, v), sylvester))
            for got, ref in runs:
                _same_run(got, ref)
                assert verify_expansion(p, v, got).ok
            jumps += sum(rec.division.jumped for rec in want.trace)
        if p == 2:
            assert jumps

    @pytest.mark.parametrize("alg", ["pk", "adaptive", "sylvester"])
    def test_each_power_is_built_once(self, alg, monkeypatch):
        # (10**20 + 7)/(10**20 + 9) at p = 101, k = 1: 16 steps whose
        # exponents k + ord(tail) double from 1 to 32768, the last step's,
        # whose remainder is zero. Neither the run nor its replay builds
        # that power, or any power above 1024 twice; in fact every power
        # above 1024 is a square of the last, so no such exponent is passed.
        # Neither asks its ladder for the zero remainder's power.
        log, asked = [], []
        ladder = valuation._powers

        def spy(prime):
            power = ladder(prime)

            def logged(e):
                asked.append(e)
                return power(e)

            return logged

        monkeypatch.setattr(expansion, "_powers", spy)
        p = _PowerLog(101, log)
        v = Fraction(10**20 + 7, 10**20 + 9)
        a, b = value_operands(v)
        run = {"pk": lambda p: pk_greedy(p, 1, a, b),
               "adaptive": lambda p: adaptive_pk_greedy(p, 1, v),
               "sylvester": lambda p: modified_sylvester(p, 1, v)}[alg]
        e = run(p)
        expanded = (list(log), list(asked))
        assert e == run(Prime(101))
        assert 1 + e.trace[-1].tail_ord == 32768
        log.clear()
        asked.clear()
        assert verify_expansion(p, v, e).ok
        for powers, ladder_asks in (expanded, (log, asked)):
            assert 32768 not in powers
            assert all(n == 1 for x, n in Counter(powers).items() if x > 1024)
            assert max(powers) <= 1024
            assert 32768 not in ladder_asks
            assert len(set(ladder_asks)) == len(ladder_asks)
