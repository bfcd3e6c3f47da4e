import random
from fractions import Fraction

import pytest

from padic_sylvester import (
    BudgetExceeded,
    HypothesisViolated,
    NonPositiveDivisor,
    PLocal,
    Prime,
    brute_force_divide,
    check_scaling_correspondence,
    classical_divide,
    p_abs,
    pk_divide,
)

P3 = Prime(3)
P11 = Prime(11)


def assert_division_conditions(p, k, a, b, q, r):
    """The three defining conditions, checked on exact rationals."""
    pk = Fraction(p) ** k
    assert b == a * q - r
    assert 0 <= r < a * pk
    assert p_abs(p, r) <= p_abs(p, a * pk)


class TestClassicalDivide:
    def test_examples(self):
        assert classical_divide(5, 11) == (3, 4)
        assert classical_divide(1, 17) == (17, 0)
        assert classical_divide(7, -3) == (0, 3)

    def test_conditions_random(self):
        rng = random.Random(401)
        for _ in range(300):
            a = rng.randint(1, 10**6)
            b = rng.randint(-(10**6), 10**6)
            q, r = classical_divide(a, b)
            assert b == a * q - r
            assert 0 <= r < a

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveDivisor):
            classical_divide(0, 5)
        with pytest.raises(NonPositiveDivisor):
            classical_divide(-2, 5)


class TestPkDivide:
    def test_first_step_of_473_25(self):
        s = pk_divide(P3, 1, 473, 25)
        assert s.q == PLocal(P3, 2)
        assert s.r.to_fraction() == 921
        assert s.rbar == 307 and not s.jumped and s.case == "case1"

    def test_second_step_has_fractional_quotient(self):
        s = pk_divide(P3, 1, 921, 50)
        assert s.q.to_fraction() == Fraction(5, 3)
        assert s.r.to_fraction() == 1485
        assert s.jumped  # rbar = 165 = 3 * 55

    def test_k4_step(self):
        s = pk_divide(P3, 4, 473, 25)
        assert s.q.to_fraction() == 23
        assert s.r.to_fraction() == 10854
        assert 473 * 23 - 25 == 10854
        assert_division_conditions(3, 4, Fraction(473), Fraction(25), s.q.to_fraction(), s.r.to_fraction())

    def test_b_zero(self):
        s = pk_divide(P3, 2, 7, 0)
        assert s.q.is_zero() and s.r.is_zero() and s.rbar == 0

    def test_unit_one_divisor(self):
        s = pk_divide(P3, 1, PLocal(P3, 1, 2), PLocal(P3, 14))
        assert s.r.is_zero()
        assert s.q.to_fraction() == Fraction(14, 9)

    def test_k_zero_matches_classical_when_p_does_not_divide_a(self):
        rng = random.Random(402)
        for _ in range(500):
            p = Prime(rng.choice([3, 5, 7, 11, 13]))
            a = rng.randint(1, 10**4)
            while a % p == 0:
                a = rng.randint(1, 10**4)
            b = rng.randint(-(10**4), 10**4)
            q, r = classical_divide(a, b)
            s = pk_divide(p, 0, a, b)
            assert s.q.to_fraction() == q
            assert s.r.to_fraction() == r

    def test_oracle_equivalence_random(self):
        rng = random.Random(403)
        for _ in range(400):
            p = Prime(rng.choice([3, 5, 7, 11, 13]))
            k = rng.randint(-3, 6)
            ahat = rng.randint(1, 2000)
            while ahat % p == 0:
                ahat = rng.randint(1, 2000)
            a = PLocal(p, ahat, rng.randint(-3, 3))
            if rng.random() < 0.05:
                b = PLocal.zero(p)
            else:
                b = PLocal(p, rng.choice([-1, 1]) * rng.randint(1, 2000), rng.randint(-3, 3))
            fast = pk_divide(p, k, a, b)
            slow = brute_force_divide(p, k, a, b)
            assert fast == slow
            assert_division_conditions(
                p, k, a.to_fraction(), b.to_fraction(),
                fast.q.to_fraction(), fast.r.to_fraction(),
            )

    def test_no_jump_when_p_exceeds_unit(self):
        rng = random.Random(404)
        p = Prime(101)
        for _ in range(200):
            a = PLocal(p, rng.randint(1, 100), rng.randint(-2, 2))
            b = PLocal(p, rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(-2, 2))
            assert not pk_divide(p, rng.randint(-2, 4), a, b).jumped

    def test_case_classification(self):
        s = pk_divide(P11, 1, 5, 121)
        assert s.case == "case2"  # k = 1 <= ord(121) - ord(5) = 2
        assert s.q.to_fraction() == 33
        s = pk_divide(P11, 3, 5, 121)
        assert s.case == "case1"


class TestBruteForce:
    def test_trivial(self):
        s = brute_force_divide(P3, 1, 1, 1)
        assert s.q.to_fraction() == 1 and s.r.is_zero()

    def test_matches_named_example(self):
        assert brute_force_divide(P3, 1, 473, 25) == pk_divide(P3, 1, 473, 25)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_divide(P3, 1, PLocal(P3, 10**6 + 1), PLocal(P3, 5), budget=10**6)


class TestScalingCorrespondence:
    def test_instance(self):
        # ord(b) - ord(a) = 2 >= k = 1
        assert check_scaling_correspondence(P11, 1, 5, 121)

    def test_k_zero_any_pair(self):
        rng = random.Random(406)
        for _ in range(200):
            p = Prime(rng.choice([3, 5, 7, 11, 13]))
            a = rng.randint(1, 500)
            while a % p == 0:
                a = rng.randint(1, 500)
            b = rng.randint(-500, 500)
            assert check_scaling_correspondence(p, 0, a, b)

    def test_random_hypothesis_tuples(self):
        rng = random.Random(407)
        for _ in range(300):
            p = Prime(rng.choice([3, 5, 7, 11, 13]))
            k = rng.randint(-3, 3)
            alpha = rng.randint(0, 3)
            beta = alpha + k + rng.randint(0, 3)
            if beta < 0:
                continue
            ahat = rng.randint(1, 500)
            while ahat % p == 0:
                ahat = rng.randint(1, 500)
            bhat = rng.choice([-1, 1]) * rng.randint(1, 500)
            while bhat % p == 0:
                bhat = rng.choice([-1, 1]) * rng.randint(1, 500)
            a = ahat * p**alpha
            b = bhat * p**beta
            assert check_scaling_correspondence(p, k, a, b)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolated):
            check_scaling_correspondence(P11, 3, 5, 121)
