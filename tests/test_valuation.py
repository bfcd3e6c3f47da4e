import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_sylvester import (
    NotInRing,
    NotPrime,
    PLocal,
    POS_INF,
    Prime,
    ZeroInput,
    ord_p,
    p_abs,
    unit_part,
)
from padic_sylvester.errors import DivByZero
from padic_sylvester.report import _ord_str


PROTOCOL = settings(max_examples=200, deadline=None, derandomize=True)
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
SMALL_PRIMES = st.sampled_from([Prime(2), Prime(3), Prime(5), Prime(7)])


def rand_fraction(rng, bound=500, nonzero=False):
    num = rng.randint(-bound, bound)
    while nonzero and num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


class TestPrime:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 104729, 2**61 - 1):
            assert Prime(p) == p

    def test_rejects_composites_and_small(self):
        for n in (0, 1, 4, 9, 91, 561, 2**61 - 3):
            with pytest.raises(NotPrime):
                Prime(n)

    def test_rejects_composites_without_small_factors(self):
        # No factor up to 41, so Miller-Rabin itself must find a witness.
        for n in (2021, 1373653, 3215031751, 43 * 2**61 - 43):
            with pytest.raises(NotPrime, match="is not prime"):
                Prime(n)

    def test_agrees_with_a_sieve_below_2000(self):
        # Below 43**2 the trial divisions by the witnesses decide alone;
        # 43**2 = 1849 is the first composite that Miller-Rabin must reject.
        sieve = [False, False] + [True] * 1998
        for i in range(2, 45):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, 2000, i))
        for n, prime in enumerate(sieve):
            if prime:
                assert Prime(n) == n
            else:
                with pytest.raises(NotPrime):
                    Prime(n)

    def test_rejects_strong_pseudoprimes_to_the_witnesses(self):
        # 399165290221 * 798330580441 passes every witness up to 37.
        with pytest.raises(NotPrime, match="is not prime"):
            Prime(318665857834031151167461)
        # 1287836182261 * 2575672364521 passes every witness up to 41, so
        # bases from it up are refused, naming the bound.
        for n in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(NotPrime, match="only below 3317044064679887385961981"):
                Prime(n)

    def test_accepts_the_largest_prime_below_the_bound(self):
        assert Prime(3317044064679887385961813) == 3317044064679887385961813

    def test_behaves_like_int(self):
        p = Prime(7)
        assert p**2 == 49 and p % 2 == 1


class TestOrd:
    def test_paper_values(self):
        assert ord_p(Prime(11), Fraction(5, 121)) == -2
        assert ord_p(Prime(7), Fraction(1, 11)) == 0
        assert ord_p(Prime(3), Fraction(1150, 19683)) == -9

    def test_zero_is_positive_infinity(self):
        o = ord_p(Prime(3), 0)
        assert o == POS_INF
        assert o > 10**9
        assert o >= POS_INF
        assert not o > POS_INF
        assert min(5, o) == 5

    def test_multiplicative(self):
        rng = random.Random(101)
        p = Prime(5)
        for _ in range(300):
            x = rand_fraction(rng, nonzero=True)
            y = rand_fraction(rng, nonzero=True)
            assert ord_p(p, x * y) == ord_p(p, x) + ord_p(p, y)

    def test_ultrametric(self):
        rng = random.Random(102)
        p = Prime(3)
        for _ in range(300):
            x = rand_fraction(rng, nonzero=True)
            y = rand_fraction(rng, nonzero=True)
            ox, oy, os = ord_p(p, x), ord_p(p, y), ord_p(p, x + y)
            assert os >= min(ox, oy)
            if ox != oy:
                assert os == min(ox, oy)


class TestUnitPart:
    def test_examples(self):
        assert unit_part(Prime(11), Fraction(5, 121)) == 5
        # 921 = 307 * 3, and 3 does not divide 307
        assert 921 == 307 * 3 and 307 % 3 != 0
        assert unit_part(Prime(3), 921) == 307
        assert unit_part(Prime(3), Fraction(50, 27)) == 50

    def test_zero_raises(self):
        with pytest.raises(ZeroInput):
            unit_part(Prime(3), 0)

    def test_reconstruction(self):
        rng = random.Random(103)
        p = Prime(7)
        for _ in range(200):
            r = rand_fraction(rng, nonzero=True)
            assert unit_part(p, r) * Fraction(p) ** ord_p(p, r) == r


class TestPAbs:
    def test_examples(self):
        assert p_abs(Prime(3), 0) == 0
        assert p_abs(Prime(3), 18) == Fraction(1, 9)
        assert p_abs(Prime(7), Fraction(1, 11)) == 1


class TestPLocal:
    def test_from_fraction_examples(self):
        p = Prime(3)
        x = PLocal.from_fraction(p, Fraction(115, 81))
        assert (x.unit, x.exp) == (115, -4)
        with pytest.raises(NotInRing):
            PLocal.from_fraction(p, Fraction(5, 7))
        z = PLocal.from_fraction(p, 0)
        assert (z.unit, z.exp) == (0, 0) and z.is_zero()
        assert PLocal.from_fraction(p, x) is x
        with pytest.raises(ValueError):
            PLocal.from_fraction(Prime(5), x)

    def test_canonical_form(self):
        p = Prime(3)
        x = PLocal(p, 18, -1)  # 18 * 3^-1 = 2 * 3^1
        assert (x.unit, x.exp) == (2, 1)
        assert PLocal(p, 0, 5).exp == 0

    def test_arith_examples(self):
        p = Prime(3)
        assert PLocal(p, 2) * PLocal(p, 5, -1) == PLocal(p, 10, -1)
        assert (PLocal(p, 1) - PLocal(p, 1)).is_zero()
        q = PLocal(p, 921) / PLocal(p, 307)
        assert (q.unit, q.exp) == (1, 1)

    def test_arith_matches_fractions(self):
        # oracle: exact Fraction arithmetic on the same values
        rng = random.Random(104)
        p = Prime(5)
        for _ in range(300):
            x = PLocal(p, rng.randint(-200, 200), rng.randint(-4, 4))
            y = PLocal(p, rng.randint(-200, 200), rng.randint(-4, 4))
            assert (x + y).to_fraction() == x.to_fraction() + y.to_fraction()
            assert (x - y).to_fraction() == x.to_fraction() - y.to_fraction()
            assert (x * y).to_fraction() == x.to_fraction() * y.to_fraction()

    def test_division_exactness(self):
        p = Prime(3)
        with pytest.raises(NotInRing):
            PLocal(p, 5) / PLocal(p, 2)
        with pytest.raises(DivByZero):
            PLocal(p, 5) / PLocal(p, 0)
        # (10 * 3^2) / (5 * 3^-1) = 2 * 3^3
        assert PLocal(p, 10, 2) / PLocal(p, 5, -1) == PLocal(p, 2, 3)

    def test_round_trip(self):
        rng = random.Random(105)
        p = Prime(7)
        for _ in range(200):
            x = PLocal(p, rng.randint(-10**6, 10**6), rng.randint(-6, 6))
            assert PLocal.from_fraction(p, x.to_fraction()) == x

    def test_comparisons(self):
        p = Prime(3)
        assert PLocal(p, 5, -1) < 2
        assert PLocal(p, 5, -1) > Fraction(3, 2)
        assert PLocal(p, 2) == 2

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            PLocal(Prime(3), 1) + PLocal(Prime(5), 1)

    def test_mixed_primes_not_ordered(self):
        x, y = PLocal(Prime(2), 0), PLocal(Prime(3), 0)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(ValueError, match="mixed primes"):
                op(x, y)
        assert x != y

    def test_ord(self):
        p = Prime(3)
        assert PLocal(p, 45).ord() == 2
        assert PLocal.zero(p).ord() == POS_INF


class TestPLocalProtocol:
    """Comparisons, reflected operators, hash and repr of PLocal against the
    same operations on its value as a Fraction."""

    @PROTOCOL
    @given(SMALL_PRIMES, st.integers(-10**6, 10**6), st.integers(-8, 8),
           st.integers(-10**6, 10**6), st.integers(-8, 8), st.integers(-10**3, 10**3),
           st.fractions())
    def test_matches_fraction_arithmetic(self, p, u, e, w, f, n, r):
        x, y = PLocal(p, u, e), PLocal(p, w, f)
        fx, fy = x.to_fraction(), y.to_fraction()
        assert hash(x) == hash(fx)
        for op in ORDERINGS:
            assert op(x, y) == op(fx, fy)
            assert op(x, n) == op(fx, n)
            assert op(x, r) == op(fx, r)
            assert op(n, x) == op(n, fx)  # reflected to x's own methods
            assert op(r, x) == op(r, fx)
        assert (n + x).to_fraction() == n + fx
        assert (n - x).to_fraction() == n - fx
        assert (n * x).to_fraction() == n * fx
        assert (x + n).to_fraction() == fx + n
        assert (x - n).to_fraction() == fx - n
        assert repr(x) == f"PLocal(p={int(p)}, unit={x.unit}, exp={x.exp})"
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__",
                     "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(x, name)("1") is NotImplemented
        with pytest.raises(TypeError):
            x + 1.5
        with pytest.raises(TypeError):
            x <= 1.5


class TestPosInfProtocol:
    """POS_INF orders, compares and hashes as math.inf does among ints and
    Fractions."""

    @PROTOCOL
    @given(st.one_of(st.integers(), st.fractions()))
    def test_matches_float_infinity(self, n):
        for op in ORDERINGS:
            assert op(POS_INF, n) == op(math.inf, n)
            assert op(n, POS_INF) == op(n, math.inf)
            assert op(POS_INF, POS_INF) == op(math.inf, math.inf)
        assert min(n, POS_INF) == n and max(n, POS_INF) is POS_INF
        assert hash(POS_INF) == hash(type(POS_INF)())
        assert repr(POS_INF) == "+Infinity"

    def test_printed_forms(self):
        assert str(POS_INF) == f"{POS_INF}" == repr(POS_INF) == "+Infinity"
        assert _ord_str(POS_INF) == "+inf"

    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_the_printed_form(self, round_trip):
        back = round_trip(POS_INF)
        assert back == POS_INF
        assert str(back) == repr(back) == "+Infinity"
