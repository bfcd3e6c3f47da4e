"""Division algorithms over Z and Z[1/p].

classical_divide realizes b = a*q - r with 0 <= r < a. pk_divide realizes
the p-adic analogue: for a, b in Z[1/p] with a > 0 it finds the unique
q, r in Z[1/p] with

    b = a*q - r,    0 <= r < a*p**k,    |r|_p <= |a*p**k|_p.

brute_force_divide is an independent enumeration oracle for the same triple
of conditions. The rules a replay checks a typed step by sit here too: the
bound 0 <= r < a*p**k (_below) and a record's own fields
(_division_record_problems). A replay compares a record's r with the
a*q - b it computes itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceeded, HypothesisViolated, NonPositiveDivisor
from .valuation import PLocal, Prime, _tail_text, ord_p

CASE_1 = "case1"
CASE_2 = "case2"


class DivisionStep(NamedTuple):
    """One application of the p**k division algorithm.

    rbar is the canonical residue in [0, unit(a)) that generates the
    remainder; a jump is the event that p divides a nonzero rbar, which is
    what breaks the naive correspondence with classical division.
    """

    p: Prime
    k: int
    a: PLocal
    b: PLocal
    q: PLocal
    r: PLocal
    rbar: int
    jumped: bool
    case: str


def classical_divide(a: int, b: int) -> tuple[int, int]:
    """q, r with b = a*q - r and 0 <= r < a; q is the least integer with a*q >= b."""
    if a <= 0:
        raise NonPositiveDivisor(f"divisor must be positive, got {a}")
    q = -((-b) // a)
    return q, a * q - b


def pk_divide(p: Prime, k: int, a, b) -> DivisionStep:
    """The unique division step b = a*q - r with 0 <= r < a*p**k and
    |r|_p <= |a*p**k|_p, computed constructively.

    With alpha = ord(a), beta = ord(b), the canonical residue is
    rbar = -unit(b)*p**(beta-alpha-k) mod unit(a); powers of p are taken mod
    unit(a) through a modular inverse when the exponent is negative. Then
    r = rbar * p**(alpha+k) and q follows from exact cancellation. When
    rbar = 0, the last step of every terminating run, q is
    unit(b)/unit(a) * p**(beta-alpha) and no power of p is built.
    """
    a = PLocal.from_fraction(p, a)
    b = PLocal.from_fraction(p, b)
    if a.unit <= 0:
        raise NonPositiveDivisor(f"divisor must be positive, got {a}")
    return _pk_divide(p, k, a, b, p.__pow__)


def _pk_divide(p: Prime, k: int, a: PLocal, b: PLocal, power) -> DivisionStep:
    """pk_divide on a run's PLocals over p, a > 0, with case 1's
    p**(alpha+k-beta) taken from power: a run's ladder (valuation._powers)
    squares each step's power up from the last one."""
    alpha, ahat = a.exp, a.unit
    beta, bhat = b.exp, b.unit
    rbar = -bhat * pow(p, beta - alpha - k, ahat) % ahat
    case = CASE_1 if bhat and k > beta - alpha else CASE_2
    if not rbar:
        # A zero residue (as at every b = 0, and at every terminating run's
        # last step) gives r = 0 and unit(a) divides unit(b), so q is
        # unit(b)/unit(a) * p**(beta-alpha) in either case: no power of p.
        num, q_exp = bhat, beta - alpha
    elif case == CASE_1:
        num, q_exp = bhat + rbar * power(alpha + k - beta), beta - alpha
    else:
        num, q_exp = rbar + bhat * p ** (beta - alpha - k), k
    q_unit, rem = divmod(num, ahat)
    if rem:
        raise RuntimeError("division step did not cancel exactly")
    q = PLocal(p, q_unit, q_exp)
    r = PLocal(p, rbar, alpha + k)
    jumped = rbar != 0 and rbar % p == 0
    return DivisionStep(p, k, a, b, q, r, rbar, jumped, case)


def _division_record_problems(rec, i: int) -> list[str]:
    """Check the division record of step i (an expansion.StepRecord) against
    its own step: its q is the step's term and 0 <= rbar < unit(a); then
    recompute its rbar, jump flag and case from its recorded a, b, r and the
    step's k."""
    d, k = rec.division, rec.k
    a, b, r = d.a, d.b, d.r
    problems = []
    if d.q != rec.q:
        problems.append(f"step {i}: division q differs from the term")
    if not 0 <= d.rbar < a.unit:
        problems.append(f"step {i}: rbar {_tail_text(d.rbar)} is outside [0, unit(a))")
    if k is None or d.k != k:
        problems.append(f"step {i}: division record has k {_tail_text(d.k)}, the step has k "
                        f"{_tail_text(k)}")
        return problems
    # r = rbar * p**(ord(a) + k); comparing canonical forms needs no power of p.
    if PLocal(d.p, d.rbar, a.exp + k) != r:
        problems.append(f"step {i}: rbar {_tail_text(d.rbar)} does not match r")
    if d.jumped != (not r.is_zero() and r.exp > a.exp + k):
        problems.append(f"step {i}: jump flag does not match r")
    if d.case != (CASE_1 if not b.is_zero() and k > b.exp - a.exp else CASE_2):
        problems.append(f"step {i}: case does not match a, b and k")
    return problems


def _below(r, b, k: int = 0) -> bool:
    """0 <= r < b*p**k, on integers (k = 0) or on PLocals over one prime.
    Bit lengths settle a PLocal comparison before it builds a power of p
    wider than the units at hand."""
    if not isinstance(r, PLocal):
        return 0 <= r < b
    if r.unit <= 0 or b.unit <= 0:
        return r.unit == 0 < b.unit
    d, bits = r.exp - b.exp - k, r.p.bit_length() - 1  # p**d >= 2**(d*bits)
    if d >= 0:
        return d * bits < b.unit.bit_length() and r.unit * r.p**d < b.unit
    return -d * bits >= r.unit.bit_length() or r.unit < b.unit * r.p**-d


def brute_force_divide(p: Prime, k: int, a, b, budget: int = 10**6) -> DivisionStep:
    """Enumeration oracle for pk_divide.

    Tries every candidate remainder r = j*p**(alpha+k) for j in [0, unit(a));
    these are exactly the values satisfying both division bounds. Keeps the
    unique j for which (b + r)/a stays in Z[1/p]. Independent of the
    constructive path: no modular inverses, just divisibility tests.
    """
    a = PLocal.from_fraction(p, a)
    b = PLocal.from_fraction(p, b)
    if a.unit <= 0:
        raise NonPositiveDivisor(f"divisor must be positive, got {a}")
    ahat, alpha = a.unit, a.exp
    if ahat > budget:
        raise BudgetExceeded(f"unit(a) = {ahat} exceeds the oracle budget {budget}")
    if b.is_zero():
        base, step = 0, 1
    else:
        mu = min(b.exp, alpha + k)
        base = b.unit * p ** (b.exp - mu) % ahat
        step = pow(p, alpha + k - mu, ahat)
    hits = [j for j in range(ahat) if (base + j * step) % ahat == 0]
    if len(hits) != 1:
        raise RuntimeError(f"expected a unique remainder, found {len(hits)}")
    j = hits[0]
    r = PLocal(p, j, alpha + k)
    q = (b + r) / a
    case = CASE_1 if b.unit and k > b.exp - alpha else CASE_2
    return DivisionStep(p, k, a, b, q, r, j, j != 0 and j % p == 0, case)


def check_scaling_correspondence(p: Prime, k: int, a: int, b: int) -> bool:
    """Whether the p**k quotient of (a, b) equals p**k times the classical
    quotient of (a*p**k, b). Requires k <= ord(b) - ord(a).
    """
    a, b = int(a), int(b)
    if a <= 0:
        raise NonPositiveDivisor(f"a must be positive, got {a}")
    if b != 0 and k > ord_p(p, b) - ord_p(p, a):
        raise HypothesisViolated(
            f"need k <= ord(b) - ord(a) = {ord_p(p, b) - ord_p(p, a)}, got k = {k}"
        )
    if k >= 0:
        q_inf = classical_divide(a * p**k, b)[0]
    else:
        q_inf = classical_divide(a, b * p**-k)[0]
    q_p = pk_divide(p, k, PLocal(p, a), PLocal(p, b)).q
    return q_p.to_fraction() == q_inf * Fraction(p) ** k
