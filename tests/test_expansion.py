import random
from fractions import Fraction

import pytest

from padic_sylvester import (
    CAP_REACHED,
    CERTIFIED_NONTERMINATING,
    DivisionStep,
    HOLDS,
    HOLDS_DESPITE_JUMP,
    HypothesisViolated,
    KTooSmall,
    PLocal,
    PreconditionViolated,
    Prime,
    QuadElement,
    TERMINATED,
    adaptive_pk_greedy,
    check_nojump_correspondence,
    fs_greedy,
    knopfmacher_sylvester,
    modified_sylvester,
    ord_p,
    pk_greedy,
    value_operands,
    verify_expansion,
)

P3 = Prime(3)
P7 = Prime(7)
P11 = Prime(11)


def term_values(e):
    return e.term_fractions()


class TestFsGreedy:
    def test_5_11(self):
        e = fs_greedy(5, 11)
        assert e.terms == (3, 9, 99)
        assert e.total() == Fraction(5, 11)

    def test_one_half(self):
        assert fs_greedy(1, 2).terms == (2,)

    def test_4_5(self):
        e = fs_greedy(4, 5)
        assert e.terms == (2, 4, 20)
        assert e.total() == Fraction(4, 5)

    def test_improper_and_negative(self):
        e = fs_greedy(473, 25)
        assert e.total() == Fraction(473, 25)
        e = fs_greedy(2, -5)
        assert e.total() == Fraction(-2, 5)

    def test_textbook_greedy_on_proper_fractions(self):
        # each q_i is the least integer whose reciprocal fits under the tail
        rng = random.Random(501)
        for _ in range(200):
            b = rng.randint(2, 400)
            a = rng.randint(1, b - 1)
            from math import gcd

            if gcd(a, b) != 1:
                continue
            e = fs_greedy(a, b)
            tail = Fraction(a, b)
            for q in e.terms:
                assert Fraction(1, q) <= tail
                assert Fraction(1, q - 1) > tail
                tail -= Fraction(1, q)
            assert tail == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            fs_greedy(0, 5)
        with pytest.raises(PreconditionViolated):
            fs_greedy(2, 4)
        with pytest.raises(PreconditionViolated):
            fs_greedy(5, -4)  # value -5/4 < -1
        with pytest.raises(PreconditionViolated):
            fs_greedy(5, 0)


class TestPkGreedy:
    def test_473_25_k1(self):
        e = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        assert term_values(e) == [2, Fraction(5, 3), Fraction(115, 81), Fraction(1150, 19683)]
        assert [r.division.r.to_fraction() for r in e.trace] == [921, 1485, 2025, 0]
        assert e.status == TERMINATED
        assert e.total() == Fraction(473, 25)

    def test_473_25_k4(self):
        e = pk_greedy(P3, 4, PLocal(P3, 473), PLocal(P3, 25))
        assert term_values(e) == [23, Fraction(5635, 81), Fraction(28175, 3**12)]
        assert e.total() == Fraction(473, 25)

    def test_plocal_operands(self):
        # a = 50/27 and b = 7: value = 50/189... a in Z[1/3], b plain
        e = pk_greedy(P3, 4, PLocal(P3, 50, -3), PLocal(P3, 7))
        assert e.status == TERMINATED
        assert e.total() == Fraction(50, 27) / 7

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            pk_greedy(P11, 1, PLocal(P11, 5), PLocal(P11, 121))

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            pk_greedy(P3, 1, PLocal(P3, -2), PLocal(P3, 5))
        with pytest.raises(PreconditionViolated):
            pk_greedy(P3, 1, PLocal(P3, 4), PLocal(P3, 2))
        with pytest.raises(PreconditionViolated):
            pk_greedy(P3, 1, PLocal(P3, 4), PLocal.zero(P3))

    def test_remainder_units_strictly_decrease(self):
        rng = random.Random(502)
        for _ in range(200):
            p = Prime(rng.choice([3, 5, 7]))
            v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 400), rng.randint(1, 400))
            if v == 0:
                continue
            k = -ord_p(p, v) + rng.randint(1, 2)
            a, b = value_operands(v)
            e = pk_greedy(p, k, PLocal(p, a), PLocal(p, b))
            units = [rec.division.r.unit for rec in e.trace]
            assert units[-1] == 0
            positives = units[:-1]
            assert all(u > 0 for u in positives)
            assert all(x > y for x, y in zip(positives, positives[1:]))
            if positives:
                assert len(e.terms) <= positives[0] + 1
            assert e.total() == v


class TestKnopfmacher:
    def test_terminates_immediately(self):
        e = knopfmacher_sylvester(P3, Fraction(4, 3))
        assert e.status == TERMINATED
        assert e.initial and e.terms[0].to_fraction() == Fraction(4, 3)
        assert e.total() == Fraction(4, 3)

    def test_family_certificate(self):
        e = knopfmacher_sylvester(P3, Fraction(2, 5))
        assert e.status == CERTIFIED_NONTERMINATING
        assert e.terms[0].to_fraction() == 1
        assert e.certificate == Fraction(-3, 5)

    def test_family_other_prime(self):
        e = knopfmacher_sylvester(Prime(5), Fraction(2, 7))
        assert e.status == CERTIFIED_NONTERMINATING
        assert e.terms[0].to_fraction() == 1
        assert e.certificate == Fraction(-5, 7)

    @pytest.mark.parametrize("p, v, max_terms, certificate", [
        (2, Fraction(2, 5), 1, Fraction(-8, 5)),  # negative after the last term the cap allows
        (3, Fraction(-2, 5), 0, Fraction(-12, 5)),  # negative after the initial term
    ])
    def test_certified_before_the_cap(self, p, v, max_terms, certificate):
        e = knopfmacher_sylvester(Prime(p), v, max_terms=max_terms)
        assert e.status == CERTIFIED_NONTERMINATING
        assert e.certificate == certificate
        assert len(e.terms) == 1 + max_terms

    def test_zero_input(self):
        e = knopfmacher_sylvester(P3, 0)
        assert e.status == TERMINATED and e.total() == 0

    def test_terminating_runs_sum_exactly(self):
        rng = random.Random(503)
        seen = 0
        for _ in range(300):
            p = Prime(rng.choice([3, 5, 7]))
            v = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            e = knopfmacher_sylvester(p, v, max_terms=6)
            if e.status == TERMINATED:
                assert e.total() == v
                seen += 1
            elif e.status == CERTIFIED_NONTERMINATING:
                assert e.certificate < 0
        assert seen > 20

    def test_certified_runs_never_terminate(self):
        # oracle: replay certified runs by hand with the certificate disabled
        # and confirm the remainder never reaches zero within a deep cap
        from padic_sylvester import frac_part

        rng = random.Random(507)
        checked = 0
        for _ in range(60):
            p = Prime(rng.choice([3, 5, 7]))
            v = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            e = knopfmacher_sylvester(p, v, max_terms=6)
            if e.status != CERTIFIED_NONTERMINATING:
                continue
            zeta = v - frac_part(p, v).to_fraction()
            for _ in range(10):
                assert zeta != 0
                an = frac_part(p, 1 / zeta)
                assert an.to_fraction() > 0
                zeta = zeta - 1 / an.to_fraction()
            assert zeta != 0
            checked += 1
        assert checked > 5


class TestModifiedSylvester:
    def test_xi_plus(self):
        xi = QuadElement.make(0, Fraction(1, 11), 11, "+", P7, 2)
        e = modified_sylvester(P7, 1, xi, max_terms=4)
        assert term_values(e) == [
            9,
            Fraction(66, 7),
            Fraction(4709, 343),
            Fraction(72282453, 7**7),
        ]
        assert e.status == CAP_REACHED

    def test_xi_minus(self):
        xi = QuadElement.make(0, Fraction(1, 11), 11, "-", P7, 2)
        e = modified_sylvester(P7, 1, xi, max_terms=4)
        assert term_values(e) == [
            2,
            Fraction(12, 7),
            Fraction(617, 343),
            Fraction(1045103, 7**7),
        ]

    def test_rational_matches_pk_greedy(self):
        e1 = modified_sylvester(P3, 1, Fraction(473, 25))
        e2 = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        assert term_values(e1) == term_values(e2)
        assert e1.status == TERMINATED

    def test_equivalence_random(self):
        rng = random.Random(504)
        for _ in range(300):
            p = Prime(rng.choice([3, 5, 7]))
            v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 300), rng.randint(1, 300))
            if v == 0:
                continue
            k = -ord_p(p, v) + rng.randint(1, 3)
            a, b = value_operands(v)
            e1 = modified_sylvester(p, k, v)
            e2 = pk_greedy(p, k, PLocal(p, a), PLocal(p, b))
            assert term_values(e1) == term_values(e2), (v, p, k)

    @pytest.mark.parametrize("x", [1, Fraction(3, 49), Fraction(-2, 5), Fraction(1000001, 7)])
    def test_quadratic_with_zero_y_matches_rational(self, x):
        # x + 0*sqrt(11) is a quadratic element whose tails all have y = 0:
        # its run has the rational run's terms, and it verifies.
        u = QuadElement.make(x, 0, 11, "+", P7, 2)
        for k in (1, 3):
            if k <= -ord_p(P7, x):
                with pytest.raises(KTooSmall):
                    modified_sylvester(P7, k, u)
                continue
            e = modified_sylvester(P7, k, u)
            assert e.terms == modified_sylvester(P7, k, Fraction(x)).terms
            assert e.status == TERMINATED
            assert verify_expansion(P7, u, e).ok

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            modified_sylvester(P11, 1, Fraction(5, 121))

    def test_zero_rejected(self):
        with pytest.raises(PreconditionViolated):
            modified_sylvester(P3, 1, Fraction(0))

    def test_max_terms_zero(self):
        e = modified_sylvester(P3, 1, Fraction(473, 25), max_terms=0)
        assert e.terms == () and e.trace == ()
        assert e.status == CAP_REACHED


class TestAdaptive:
    def test_5_121_k1(self):
        e = adaptive_pk_greedy(P11, 1, Fraction(5, 121))
        assert term_values(e) == [1089, 55, 45]
        assert [rec.k for rec in e.trace] == [3, 2, 1]
        assert e.status == TERMINATED
        assert e.total() == Fraction(5, 121)

    def test_5_121_negative_k(self):
        e = adaptive_pk_greedy(P11, -1, Fraction(5, 121))
        assert e.status == TERMINATED
        assert e.total() == Fraction(5, 121)
        assert all(rec.k > -rec.tail_ord for rec in e.trace)

    def test_no_adaptation_needed(self):
        e1 = adaptive_pk_greedy(P3, 1, Fraction(473, 25))
        e2 = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        assert term_values(e1) == term_values(e2)
        assert [rec.k for rec in e1.trace] == [1, 1, 1, 1]

    def test_all_rationals_terminate(self):
        rng = random.Random(505)
        for _ in range(200):
            p = Prime(rng.choice([3, 5, 11]))
            v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.randint(1, 200))
            k = rng.randint(-3, 3)
            e = adaptive_pk_greedy(p, k, v)
            assert e.status == TERMINATED
            assert e.total() == v


class TestNoJumpCorrespondence:
    def test_5_121_holds_without_jumps(self):
        res = check_nojump_correspondence(P11, 1, 5, 121)
        assert res.verdict == HOLDS
        assert res.jumps == ()
        assert term_values(res.padic) == [33, 99, 1089]
        assert list(res.classical.terms) == [3, 9, 99]

    def test_22_45_holds_despite_jump(self):
        res = check_nojump_correspondence(P3, 1, 22, 45)
        assert res.verdict == HOLDS_DESPITE_JUMP
        assert res.jumps != ()
        assert list(res.classical.terms) == [1, 3, 8, 120]
        scaled = [q * 3 for q in res.classical.terms]
        assert term_values(res.padic) == scaled

    def test_large_prime_never_jumps(self):
        # once p exceeds every unit in sight the residues cannot pick up a p
        rng = random.Random(506)
        p = Prime(997)
        for _ in range(50):
            a = rng.randint(1, 40)
            beta = rng.randint(1, 2)
            b = rng.randint(1, 40) * p**beta
            from math import gcd

            if gcd(a, b) != 1:
                continue
            k = rng.randint(1, beta)
            res = check_nojump_correspondence(p, k, a, b)
            assert res.verdict == HOLDS

    def test_hypothesis_checked(self):
        with pytest.raises(HypothesisViolated):
            check_nojump_correspondence(P3, 1, 473, 25)  # k > -ord
        with pytest.raises(HypothesisViolated):
            check_nojump_correspondence(P3, 0, -1, 9)


class TestVerifyExpansion:
    def test_terminated_sum(self):
        e = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        v = verify_expansion(P3, Fraction(473, 25), e)
        assert v.ok and v.sum_exact and v.strictly_increasing and v.growth_ok

    def test_quadratic_run_orders(self):
        xi = QuadElement.make(0, Fraction(1, 11), 11, "+", P7, 2)
        e = modified_sylvester(P7, 1, xi, max_terms=4)
        v = verify_expansion(P7, xi, e)
        assert v.ok
        assert v.tail_orders == [0, 1, 3, 7, 16]
        assert v.strictly_increasing and v.growth_ok

    @pytest.mark.parametrize("p, k, a, b", [(P11, 1, 5, 121), (P3, 1, 22, 45), (P3, 2, 2, 9)])
    def test_case2_and_jump_records_recompute(self, p, k, a, b):
        # k <= -ord(a/b) makes every step case 2, 2/9 with k = ord(b) - ord(a)
        # at step 0, and 22/45 jumps; no division record may be flagged.
        e = check_nojump_correspondence(p, k, a, b).padic
        v = verify_expansion(p, Fraction(a, b), e)
        assert not [prob for prob in v.problems if prob.startswith("step ")]

    @pytest.mark.parametrize("k, a, b", [(2, PLocal(P3, 1, -1), PLocal(P3, 5)),
                                         (4, PLocal(P3, 50, -3), PLocal(P3, 7))])
    def test_unreduced_operands(self, k, a, b):
        # a/b as a pair other than the input in lowest terms; the second run
        # has nonzero remainders, which such a pair scales.
        e = pk_greedy(P3, k, a, b)
        assert (e.trace[0].division.a, e.trace[0].division.b) == (a, b)
        v = verify_expansion(P3, a.to_fraction() / b.to_fraction(), e)
        assert v.ok, v.problems

    def test_fs_checks_sum_only(self):
        e = fs_greedy(5, 11)
        v = verify_expansion(None, Fraction(5, 11), e)
        assert v.ok and v.sum_exact
        assert v.strictly_increasing is None and v.growth_ok is None

    @pytest.mark.parametrize("terms, remainders, problems", [
        # Greedy gives 2, 6; 3, 3 sums to 2/3 too.
        ((3, 3), (3, 0), ["step 0: remainder 3 is outside [0, 2)"]),
        ((1, -3), (-1, 0), ["step 0: remainder -1 is outside [0, 2)",
                            "step 1: remainder 0 is outside [0, -1)"]),
    ], ids=["too-large", "negative"])
    def test_fs_rejects_terms_greedy_does_not_pick(self, terms, remainders, problems):
        e = fs_greedy(2, 3)
        bad = e._replace(terms=terms, trace=tuple(
            rec._replace(q=q, remainder=r) for rec, q, r in zip(e.trace, terms, remainders)))
        v = verify_expansion(None, Fraction(2, 3), bad)
        assert v.sum_exact and not v.ok
        assert v.problems == problems

    def test_knopfmacher_rejects_initial_term_outside_window(self):
        # The window gives a0 = 1; a0 = 4 keeps ord(2/5 - a0) >= 1, and its
        # certificate 2/5 - 4 is the final tail.
        e = knopfmacher_sylvester(P3, Fraction(2, 5))
        a0 = PLocal(P3, 4)
        bad = e._replace(terms=(a0,), trace=(e.trace[0]._replace(q=a0),),
                         certificate=Fraction(-18, 5))
        v = verify_expansion(P3, Fraction(2, 5), bad)
        assert v.problems == ["step 0: term 4 is outside the window [0, 3)"]

    def test_knopfmacher_rejects_integer_initial_term(self):
        # <3> = 0 for p = 3; a0 = 3 sums to 3 on its own.
        e = knopfmacher_sylvester(P3, Fraction(3))
        a0 = PLocal(P3, 3)
        bad = e._replace(terms=(a0,), trace=(e.trace[0]._replace(q=a0, tail_ord=1),))
        v = verify_expansion(P3, Fraction(3), bad)
        assert v.sum_exact
        assert v.problems == ["step 0: term 1*3^1 is outside the window [0, 3)"]

    @pytest.mark.parametrize("shift, shown", [(3, "16*3^-1"), (-3, "-2*3^-1")])
    def test_knopfmacher_rejects_reciprocal_term_outside_window(self, shift, shown):
        e = knopfmacher_sylvester(P3, Fraction(3, 7))
        assert [str(q) for q in e.terms] == ["0", "7*3^-1"]
        q = e.terms[1] + shift
        bad = e._replace(terms=(e.terms[0], q), trace=(e.trace[0], e.trace[1]._replace(q=q)))
        v = verify_expansion(P3, Fraction(3, 7), bad)
        assert f"step 1: term {shown} is outside the window [0, 3)" in v.problems

    def test_detects_wrong_terms(self):
        e = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        bad = e._replace(terms=e.terms[:-1], trace=e.trace[:-1])
        v = verify_expansion(P3, Fraction(473, 25), bad)
        assert not v.ok and v.sum_exact is False

    def test_empty_run_of_zero(self):
        from padic_sylvester import Expansion

        e = Expansion("pk", Fraction(0), P3, 1, (), TERMINATED)
        v = verify_expansion(P3, Fraction(0), e)
        assert v.ok and v.sum_exact

    def test_knopfmacher_zero_initial_term(self):
        # <3> = 0 for p = 3, so a_0 = 0; only a zero reciprocal term is an error.
        e = knopfmacher_sylvester(P3, Fraction(3))
        assert e.terms[0].is_zero() and len(e.terms) == 2
        v = verify_expansion(P3, Fraction(3), e)
        assert v.ok and v.sum_exact

    def test_knopfmacher_certified_prefix(self):
        e = knopfmacher_sylvester(P3, Fraction(2, 5))
        v = verify_expansion(P3, Fraction(2, 5), e)
        assert v.ok

    def test_step_problems_come_together_in_step_order(self):
        # q moved at step 1 (in the terms, the trace and its record) breaks
        # the chain from there on; each step's problems come together, in
        # step order, then the run's and last the growth bound's.
        e = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        rec = e.trace[1]
        q = PLocal(P3, rec.q.unit + 3, rec.q.exp)
        trace = (e.trace[0], rec._replace(q=q, division=rec.division._replace(q=q)),
                 *e.trace[2:])
        bad = e._replace(terms=tuple(r.q for r in trace), trace=trace)
        chain = ["a is not the previous step's r", "b is not the previous step's b*q",
                 "r is not a*q - b"]
        assert verify_expansion(P3, Fraction(473, 25), bad).problems == [
            "step 1: r is not a*q - b",
            "step 2: tail_ord 4 is not the order 2", *(f"step 2: {c}" for c in chain),
            "step 3: tail_ord 9 is not the order 2", *(f"step 3: {c}" for c in chain),
            "terminated run does not sum to its input (tail 9/40)",
            "growth bound failed at step 1: ord 2 < 1 + 2*1",
            "order not increasing at step 2: 2 -> 2",
            "growth bound failed at step 2: ord 2 < 1 + 2*2",
            "order not increasing at step 3: 2 -> 2",
            "growth bound failed at step 3: ord 2 < 1 + 2*2",
        ]

    def test_claimed_null_k_is_one_misfit(self):
        # Every step but an fs one takes an int k, a Knopfmacher head's too.
        # A step claiming k None is one misfit, its record's k unread, and
        # the replay ends before it: the orders stop at its tail, and no
        # sum is confirmed.
        def null_k(e, i):
            rec = e.trace[i]
            rec = rec._replace(k=None, division=rec.division and rec.division._replace(k=None))
            return e._replace(trace=e.trace[:i] + (rec,) + e.trace[i + 1:])

        e = adaptive_pk_greedy(P3, -20, Fraction(2, 3**6 * 5))
        v = verify_expansion(P3, e.value, null_k(e, 0))
        assert v.problems == ["step 0: k does not fit a adaptive run"]
        assert v.tail_orders == [-6] and v.sum_exact is False
        e = knopfmacher_sylvester(P3, Fraction(3, 7))
        assert verify_expansion(P3, e.value, null_k(e, 0)).problems == [
            "step 0: k does not fit a knopfmacher run"]
        e = pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))
        v = verify_expansion(P3, e.value, null_k(e, 2))
        assert v.problems == ["step 2: k does not fit a pk run"]
        assert v.tail_orders == verify_expansion(P3, e.value, e).tail_orders[:3]
        assert v.sum_exact is False and v.strictly_increasing and v.growth_ok


def _pk_473_25():
    return pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))


def _term(q):
    """An edit of a step: its term, and its division's q, set to q."""
    return lambda rec: rec._replace(q=q, division=rec.division and rec.division._replace(q=q))


def _record(field, new):
    """An edit of a step: its division's field set to new(the old value)."""
    return lambda rec: rec._replace(
        division=rec.division._replace(**{field: new(getattr(rec.division, field))}))


def _over_5(x):
    return PLocal(Prime(5), x.unit, x.exp)


def _adaptive_473_25():
    return adaptive_pk_greedy(P3, 1, Fraction(473, 25))


def _knopf_3_7():
    return knopfmacher_sylvester(P3, Fraction(3, 7))


def _step(field, new):
    """An edit of a step: its field set to new."""
    return lambda rec: rec._replace(**{field: new})


def _at(run, i, edit):
    """run with step i edited, its terms the edited trace's q values."""
    def edited():
        e = run()
        trace = e.trace[:i] + (edit(e.trace[i]),) + e.trace[i + 1:]
        return e._replace(terms=tuple(rec.q for rec in trace), trace=trace)

    return edited


# An int past CPython's 4300-digit int/str limit.
_WIDE = 10**5000


XI = QuadElement.make(0, Fraction(1, 11), 11, "+", P7, 2)


class TestVerifyInputClaims:
    """A run's value, p and initial flag are claims about its input, and its
    terms copy the trace's q values; each is checked like any other claim. A
    run over another prime than the replay's is not replayed, so no
    arithmetic mixes primes."""

    @pytest.mark.parametrize("p, value, run, problems", [
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(value=Fraction(3, 7)),
         ["value 3/7 is not the input 473/25"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(p=Prime(5)),
         ["p 5 is not the input's p 3"]),
        (Prime(5), Fraction(473, 25), _pk_473_25, ["p 3 is not the input's p 5"]),
        (None, Fraction(473, 25), _pk_473_25, ["p 3 is not the input's p None"]),
        (P3, Fraction(2, 5),
         lambda: knopfmacher_sylvester(P3, Fraction(2, 5))._replace(initial=False),
         ["initial flag False does not fit a knopfmacher run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(initial=True),
         ["initial flag True does not fit a pk run"]),
        # A quadratic input is replayed over its own prime, whatever p is passed.
        (P3, XI, lambda: modified_sylvester(P7, 1, XI, max_terms=3), []),
        (P7, XI, lambda: modified_sylvester(P7, 1, XI, max_terms=3)._replace(p=P3),
         ["p 3 is not the input's p 7"]),
        (P3, Fraction(5, 11), lambda: fs_greedy(5, 11), ["p None is not the input's p 3"]),
        (P3, Fraction(473, 25),
         lambda: _pk_473_25()._replace(terms=(PLocal(P3, 3),) + _pk_473_25().terms[1:]),
         ["terms differ from the trace's q values"]),
        # A run has a prime exactly when its algorithm is not fs.
        (None, Fraction(473, 25), lambda: _pk_473_25()._replace(p=None),
         ["p None does not fit a pk run"]),
        (P3, Fraction(5, 11), lambda: fs_greedy(5, 11)._replace(p=P3),
         ["p 3 does not fit a fs run"]),
        # Each field of a run is typed before anything reads it: a field of
        # the wrong kind is one problem, shows no value and ends the replay
        # before its first step, and none of the run's claims is checked.
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(p="x"),
         ["p does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _adaptive_473_25()._replace(k="1"),
         ["k does not fit a adaptive run"]),
        (P3, Fraction(473, 25), lambda: _adaptive_473_25()._replace(k=()),
         ["k does not fit a adaptive run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(terms=5),
         ["terms does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(trace=5),
         ["trace does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(trace=None),
         ["trace does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(
            trace=_pk_473_25().trace[:1] + (5,) + _pk_473_25().trace[2:]),
         ["trace does not fit a pk run"]),
        (P3, Fraction(3, 7), lambda: _knopf_3_7()._replace(certificate="x"),
         ["certificate does not fit a knopfmacher run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(value="473/25"),
         ["value does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(status="done"),
         ["status does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(initial=0),
         ["initial flag does not fit a pk run"]),
        # A run has a k exactly on pk, adaptive and sylvester: Knopfmacher's
        # steps all take k = 1, and fs has none.
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(k=None),
         ["k does not fit a pk run"]),
        (P3, Fraction(473, 25), lambda: _adaptive_473_25()._replace(k=None),
         ["k does not fit a adaptive run"]),
        (P3, Fraction(473, 25),
         lambda: modified_sylvester(P3, 1, Fraction(473, 25))._replace(k=None),
         ["k does not fit a sylvester run"]),
        (P3, Fraction(3, 7), lambda: _knopf_3_7()._replace(k=1),
         ["k does not fit a knopfmacher run"]),
        (None, Fraction(5, 11), lambda: fs_greedy(5, 11)._replace(k=1),
         ["k does not fit a fs run"]),
    ], ids=["value", "run-p", "replay-p", "no-replay-p", "knopf-initial", "pk-initial",
            "quadratic-own-p", "quadratic-p", "fs-with-p", "terms", "pk-without-prime",
            "fs-with-prime", "str-p", "adaptive-str-k", "adaptive-tuple-k", "int-terms",
            "int-trace", "no-trace", "int-in-trace", "str-certificate", "str-value",
            "unknown-status", "int-initial", "pk-null-k", "adaptive-null-k",
            "sylvester-null-k", "knopf-int-k", "fs-int-k"])
    def test_claim_is_one_problem(self, p, value, run, problems):
        v = verify_expansion(p, value, run())
        assert v.problems == problems
        assert v.ok == (not problems)

    @pytest.mark.parametrize("p", [Prime(5), None])
    def test_other_prime_is_not_replayed(self, p):
        # The replay ends before its first step, as at a zero term: the sum
        # is not confirmed, yet no problem claims it wrong.
        v = verify_expansion(p, Fraction(473, 25), _pk_473_25())
        assert v.sum_exact is False
        assert not any("sum" in problem for problem in v.problems)

    @pytest.mark.parametrize("value, run, i, edit, problem", [
        # Step 0's term 2 of 473/25, and its division's q, as an int: equal
        # in value, but not the Z[1/3] term a pk run carries.
        (Fraction(473, 25), _pk_473_25, 0, _term(2), "step 0: term 2 does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _term(PLocal(Prime(5), 3, -1)),
         "step 1: term 3*5^-1 does not fit a pk run"),
        (Fraction(5, 11), lambda: fs_greedy(5, 11), 1, _term(PLocal(P3, 9)),
         "step 1: term 1*3^2 does not fit a fs run"),
        # A term past the int/str digit limit is shown by its bit length.
        (Fraction(473, 25), _pk_473_25, 1, _term(10**5000),
         "step 1: term 16610-bit/1-bit does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _term(PLocal(Prime(5), 1, _WIDE)),
         "step 1: term 1-bit*5^16610-bit/1-bit does not fit a pk run"),
        # A division record's values and a step's k are typed before the
        # step-0 reseed or the record check reads them.
        *[(Fraction(473, 25), _pk_473_25, 0, _record(f, _over_5),
           f"step 0: division {f} does not fit a pk run") for f in "abqr"],
        *[(Fraction(473, 25), _pk_473_25, i, edit, f"step {i}: {f} does not fit a pk run")
          for i in (0, 1) for f, edit in (("k", lambda rec: rec._replace(k="1")),
                                          ("rbar", _record("rbar", lambda x: "1")))],
        # A step without a record reads its k too: Knopfmacher's floor.
        (Fraction(473, 25), lambda: knopfmacher_sylvester(P3, Fraction(473, 25), max_terms=3),
         1, lambda rec: rec._replace(k="1"), "step 1: k does not fit a knopfmacher run"),
        # A record's own p and k are typed too, so neither is blamed on
        # another field (p over 5 listed "rbar 165 does not match r").
        (Fraction(473, 25), _pk_473_25, 1, _record("p", lambda x: "x"),
         "step 1: division p does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _record("p", lambda x: Prime(5)),
         "step 1: division p does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _record("p", int),
         "step 1: division p does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _record("k", lambda x: "1"),
         "step 1: division k does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _record("jumped", lambda x: "no"),
         "step 1: jumped does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _record("case", lambda x: 1),
         "step 1: case does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _step("division", 5),
         "step 1: division record does not fit a pk run"),
        (Fraction(473, 25), _pk_473_25, 1, _step("tail_ord", "1"),
         "step 1: tail_ord does not fit a pk run"),
        (Fraction(5, 11), lambda: fs_greedy(5, 11), 1, _step("remainder", "3"),
         "step 1: remainder does not fit a fs run"),
        # A remainder a pk run does not carry, of the wrong kind: one problem,
        # and the replay ends before it compares it.
        (Fraction(473, 25), _pk_473_25, 1, _step("remainder", "3"),
         "step 1: remainder does not fit a pk run"),
        # A record, a remainder or a k that the algorithm does not make.
        (Fraction(473, 25), lambda: modified_sylvester(P3, 1, Fraction(473, 25)), 1,
         _step("division", _pk_473_25().trace[1].division),
         "step 1: division record does not fit a sylvester run"),
        (Fraction(473, 25), _pk_473_25, 1, _step("remainder", 3),
         "step 1: remainder does not fit a pk run"),
        (Fraction(5, 11), lambda: fs_greedy(5, 11), 1, _step("k", 1),
         "step 1: k does not fit a fs run"),
    ], ids=["int-in-pk", "other-prime-in-pk", "plocal-in-fs", "huge-int-in-pk",
            "huge-exp-in-pk", "record-a-over-5", "record-b-over-5", "record-q-over-5",
            "record-r-over-5", "str-k-0", "str-rbar-0", "str-k-1", "str-rbar-1", "str-k-knopf",
            "str-record-p",
            "record-p-5", "int-record-p", "str-record-k", "str-jumped", "int-case", "int-division", "str-tail-ord",
            "str-fs-remainder", "str-pk-remainder", "sylvester-record", "int-pk-remainder",
            "int-fs-k"])
    def test_term_outside_the_ring_ends_the_replay(self, value, run, i, edit, problem):
        # Like a zero term: the replay stops at the step, so the sum is not
        # confirmed, and no later step's arithmetic mixes rings or types.
        bad = _at(run, i, edit)()
        v = verify_expansion(bad.p, value, bad)
        assert v.problems == [problem]
        assert v.sum_exact is False and not v.ok

    @pytest.mark.parametrize("p, value, run, problems", [
        (P3, Fraction(473, 25), _at(_pk_473_25, 1, _step("k", _WIDE)), [
            "step 1: division record has k 1, the step has k 16610-bit/1-bit",
            "step 1: k 16610-bit/1-bit is not the pk k 1",
            "growth bound failed at step 1: ord 4 < 16610-bit/1-bit + 2*1"]),
        (P3, Fraction(473, 25), _at(_pk_473_25, 1, _step("tail_ord", _WIDE)),
         ["step 1: tail_ord 16610-bit/1-bit is not the order 1"]),
        (P3, Fraction(473, 25), _at(_pk_473_25, 1, _record("rbar", lambda x: _WIDE)),
         ["step 1: rbar 16610-bit/1-bit is outside [0, unit(a))",
          "step 1: rbar 16610-bit/1-bit does not match r"]),
        (P3, Fraction(473, 25), _at(_pk_473_25, 1, _record("k", lambda x: _WIDE)),
         ["step 1: division record has k 16610-bit/1-bit, the step has k 1"]),
        (P3, Fraction(473, 25), lambda: _pk_473_25()._replace(k=_WIDE),
         [f"step {i}: k 1 is not the pk k 16610-bit/1-bit" for i in range(4)]),
        (None, Fraction(5, 11), _at(lambda: fs_greedy(5, 11), 0, _step("remainder", _WIDE)),
         ["step 0: remainder 16610-bit/1-bit is not a*q - b"]),
        (None, Fraction(5, 11), lambda: fs_greedy(5, 11)._replace(certificate=Fraction(_WIDE, 3)),
         ["certificate 16610-bit/2-bit on a run with status terminated",
          "certificate 16610-bit/2-bit is not the final tail",
          "certificate 16610-bit/2-bit is not negative"]),
        (P3, Fraction(12, 19), _at(lambda: knopfmacher_sylvester(P3, Fraction(12, 19)), 1,
                                   _term(PLocal(P3, _WIDE + 1, 0))),
         ["step 1: term 16610-bit is outside the window [0, 3)",
          "step 2: tail_ord 3 is not the order 0",
          "certificate -2187/6916 is not the final tail",
          "order not increasing at step 1: 1 -> 0",
          "growth bound failed at step 1: ord 0 < 1 + 2*1",
          "order not increasing at step 2: 0 -> 0",
          "growth bound failed at step 2: ord 0 < 1 + 2*0"]),
    ], ids=["pk-step-k", "pk-tail-ord", "pk-rbar", "pk-record-k", "pk-run-k", "fs-remainder",
            "fs-certificate", "knopf-term"])
    def test_claim_past_the_digit_limit_shows_its_bits(self, p, value, run, problems):
        # A claimed int or Fraction too wide for str() is listed by its bit
        # lengths, in every text that shows a claimed value.
        assert verify_expansion(p, value, run()).problems == problems


# Values of many kinds and sizes, each set in turn into every field of a
# run, its steps and its division records.
_ODD_VALUES = ("x", 1.5, None, [], {}, -1, 10**400, _WIDE)
_MAYBE_INT = (int, type(None))
# The kinds report.expansion_from_json builds, as (record, field): kind.
_PARSED_KINDS = {
    **{("Expansion", field): kind for field, kind in (
        ("value", (Fraction, QuadElement)), ("p", Prime), ("k", _MAYBE_INT),
        ("terms", (tuple, list)), ("status", str), ("trace", (tuple, list)),
        ("initial", bool), ("certificate", (Fraction, type(None))))},
    **{("StepRecord", field): kind for field, kind in (
        ("q", PLocal), ("k", _MAYBE_INT), ("tail_ord", _MAYBE_INT),
        ("division", (DivisionStep, type(None))), ("remainder", _MAYBE_INT))},
    **{("DivisionStep", field): kind for field, kind in (
        ("p", Prime), ("k", _MAYBE_INT), ("a", PLocal), ("b", PLocal), ("q", PLocal),
        ("r", PLocal), ("rbar", int), ("jumped", bool), ("case", str))},
}


def _field_edits(e):
    """(record, field, own value, the run with that field set to x) for
    every field of run e, of its steps and of their division records."""
    def run_with(i, rec):
        return e.trace[:i] + (rec,) + e.trace[i + 1:]

    for field in e._fields:
        yield "Expansion", field, getattr(e, field), lambda x, f=field: e._replace(**{f: x})
    for i, rec in enumerate(e.trace):
        for field in rec._fields:
            yield "StepRecord", field, getattr(rec, field), lambda x, i=i, rec=rec, f=field: (
                e._replace(trace=run_with(i, rec._replace(**{f: x}))))
        d = rec.division
        for field in d._fields if d is not None else ():
            yield "DivisionStep", field, getattr(d, field), lambda x, i=i, rec=rec, f=field: (
                e._replace(trace=run_with(i, rec._replace(division=rec.division._replace(
                    **{f: x})))))


class TestVerifyFieldFuzz:
    """Every field of a run, a step and a division record of each algorithm,
    set in turn to each of a fixed list of values, one past the int/str digit
    limit among them: verify lists problems and raises nothing but
    PreconditionViolated for an unknown algorithm, and a value of a kind the
    report parser never builds is never ok."""

    @pytest.mark.parametrize("p, value, run", [
        (P3, Fraction(473, 25), _pk_473_25),
        (P3, Fraction(473, 25), _adaptive_473_25),
        (P3, Fraction(473, 25), lambda: modified_sylvester(P3, 1, Fraction(473, 25))),
        (P3, Fraction(12, 19), lambda: knopfmacher_sylvester(P3, Fraction(12, 19))),
        (None, Fraction(5, 11), lambda: fs_greedy(5, 11)),
    ], ids=["pk", "adaptive", "sylvester", "knopf-certified", "fs"])
    def test_every_field_of_every_kind(self, p, value, run):
        e = run()
        edits = 0
        for record, field, own, edited in _field_edits(e):
            for x in _ODD_VALUES:
                if x == own:
                    continue
                edits += 1
                if field == "algorithm":
                    with pytest.raises(PreconditionViolated):
                        verify_expansion(p, value, edited(x))
                    continue
                v = verify_expansion(p, value, edited(x))
                kind = _PARSED_KINDS[record, field]
                if p is None and (record, field) in {("Expansion", "p"), ("StepRecord", "q")}:
                    kind = type(None) if field == "p" else int  # fs: no prime, integer terms
                fits = isinstance(x, kind) and (field != "status" or x in (
                    TERMINATED, CAP_REACHED, CERTIFIED_NONTERMINATING))
                assert fits or not v.ok, (record, field, x)
        assert edits > 100


class TestVerifyRecordsAndCertificate:
    def test_division_q_is_the_term(self):
        # A division record whose q alone differs from its step's term.
        e = _pk_473_25()
        rec = e.trace[2]
        d = rec.division._replace(q=PLocal(P3, rec.q.unit + 3, rec.q.exp))
        bad = e._replace(trace=e.trace[:2] + (rec._replace(division=d),) + e.trace[3:])
        assert verify_expansion(P3, Fraction(473, 25), bad).problems == [
            "step 2: division q differs from the term"]

    def test_step_after_a_zero_tail_reads_den_times_q(self):
        # The last step repeated after the tail reached zero: the replay still
        # forms den*q for it, so its record's b is checked against b*q.
        e = _pk_473_25()
        bad = e._replace(terms=e.terms + e.terms[-1:], trace=e.trace + e.trace[-1:])
        assert verify_expansion(P3, Fraction(473, 25), bad).problems == [
            "step 4: tail_ord 9 is not the order +Infinity",
            "step 4: a is not the previous step's r",
            "step 4: b is not the previous step's b*q",
            "step 4: r is not a*q - b",
            "terminated run does not sum to its input (tail -19683/1150)",
            "order not increasing at step 4: +Infinity -> 9",
        ]

    @pytest.mark.parametrize("p, v, cap", [(P3, Fraction(2, 5), 1), (Prime(2), Fraction(2, 5), 1),
                                           (Prime(5), Fraction(7, 3), 6)])
    def test_certificate_is_compared_without_fractions(self, p, v, cap, monkeypatch):
        # The certificate is cross-multiplied with the final tail over Z[1/p]:
        # no replayed value becomes a Fraction, whose gcds grow quadratically
        # with a tail's width. A wrong certificate is still caught.
        e = knopfmacher_sylvester(p, v, max_terms=cap)
        assert e.status == CERTIFIED_NONTERMINATING

        def refuse(self):
            raise AssertionError("a replayed value became a Fraction")

        monkeypatch.setattr(PLocal, "to_fraction", refuse)
        assert verify_expansion(p, v, e).ok
        wrong = e._replace(certificate=e.certificate - 1)
        assert verify_expansion(p, v, wrong).problems == [
            f"certificate {wrong.certificate} is not the final tail"]
