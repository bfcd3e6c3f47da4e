"""Sylvester-type expansions: classical greedy, Knopfmacher, and the p-adic
greedy algorithms, together with run verification and the correspondence
checks relating the p-adic and classical algorithms.

An expansion of v is a list of q_i in Z[1/p] with v = Sum 1/q_i (plus an
optional additive initial term for the Knopfmacher algorithm). The
division-driven algorithms iterate

    b = a q_0 - r_0,  b q_0 = r_0 q_1 - r_1,  b q_0 q_1 = r_1 q_2 - r_2, ...

verbatim, with exact arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd

from .digits import frac_part, frac_part_k
from .division import CASE_1, CASE_2, DivisionStep, classical_divide, pk_divide
from .errors import HypothesisViolated, KTooSmall, PreconditionViolated
from .quadratic import QuadElement, quad_frac_part_k, quad_order_or_inf, real_ceil
from .valuation import PLocal, POS_INF, Prime, ord_p

TERMINATED = "terminated"
CAP_REACHED = "cap_reached"
CERTIFIED_NONTERMINATING = "certified_nonterminating"

HOLDS = "holds"
HOLDS_DESPITE_JUMP = "holds_despite_jump"
FAILS_WITH_JUMP = "fails_with_jump"

DEFAULT_MAX_TERMS = 64


@dataclass(frozen=True)
class StepRecord:
    """Per-step trace: the term produced, the k in force, and the division data."""

    index: int
    q: "PLocal | int"
    k: "int | None" = None
    initial: bool = False
    tail_ord: "int | None" = None
    division: "DivisionStep | None" = None
    lhs: "PLocal | None" = None
    remainder: "int | None" = None


@dataclass(frozen=True)
class Expansion:
    """Result of one expansion run.

    terms holds the q_i (reciprocals are implied); when `initial` is set the
    first entry is an additive term a_0 rather than a reciprocal. status is
    one of TERMINATED, CAP_REACHED, CERTIFIED_NONTERMINATING; `certificate`
    carries the negative remainder value that certifies non-termination.
    """

    algorithm: str
    value: "Fraction | QuadElement"
    p: "Prime | None"
    k: "int | None"
    terms: tuple
    status: str
    trace: tuple[StepRecord, ...] = ()
    initial: bool = False
    certificate: "Fraction | None" = None

    def term_fractions(self) -> list[Fraction]:
        return [q.to_fraction() if isinstance(q, PLocal) else Fraction(q) for q in self.terms]

    def total(self) -> Fraction:
        """Exact value of the produced (partial) sum."""
        total = Fraction(0)
        for i, q in enumerate(self.term_fractions()):
            if self.initial and i == 0:
                total += q
            else:
                total += 1 / q
        return total


def value_operands(value) -> tuple[int, int]:
    """Split a nonzero rational into (a, b) with value = a/b, a > 0, gcd = 1."""
    value = Fraction(value)
    if value == 0:
        raise PreconditionViolated("cannot expand zero")
    n, d = value.numerator, value.denominator
    return (n, d) if n > 0 else (-n, -d)


def fs_greedy(a: int, b: int) -> Expansion:
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
        trace.append(StepRecord(index=len(terms) - 1, q=q, remainder=r))
        if r == 0:
            break
        lhs *= q
        divisor = r
    return Expansion("fs", value, None, None, tuple(terms), TERMINATED, tuple(trace))


def _division_expansion(
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
        tail_ord = divisor.exp - lhs.exp
        k_i = choose_k(len(terms), tail_ord)
        step = pk_divide(p, k_i, divisor, lhs)
        if step.q.is_zero():
            raise RuntimeError(f"quotient 0 at step {len(terms)}; k = {k_i} is too small here")
        terms.append(step.q)
        trace.append(
            StepRecord(
                index=len(terms) - 1,
                q=step.q,
                k=k_i,
                tail_ord=tail_ord,
                division=step,
                lhs=lhs,
            )
        )
        if step.r.is_zero():
            break
        if max_steps is not None and len(terms) >= max_steps:
            status = CAP_REACHED
            break
        lhs = lhs * step.q
        divisor = step.r
    return Expansion(algorithm, value, p, k_echo, tuple(terms), status, tuple(trace))


def pk_greedy(p: Prime, k: int, a, b) -> Expansion:
    """p-adic greedy expansion of a/b (a, b in Z[1/p], a > 0, coprime unit
    parts) by iterating the p**k division algorithm.

    Requires k > -ord_p(a/b); terminates with Sum 1/q_i = a/b, the unit
    parts of successive remainders forming a strictly decreasing sequence
    of positive integers.
    """
    a = PLocal.from_fraction(p, a)
    b = PLocal.from_fraction(p, b)
    if a.unit <= 0:
        raise PreconditionViolated(f"a must be positive, got {a}")
    if b.is_zero():
        raise PreconditionViolated("b must be nonzero")
    if gcd(abs(a.unit), abs(b.unit)) != 1:
        raise PreconditionViolated(f"unit parts of {a} and {b} must be coprime")
    value_ord = a.exp - b.exp
    if k <= -value_ord:
        raise KTooSmall(f"need k > {-value_ord} for this value, got k = {k}")
    return _division_expansion(p, a, b, "pk", k, lambda i, t: k)


def adaptive_pk_greedy(p: Prime, k: int, value) -> Expansion:
    """pk_greedy that substitutes the minimal valid k' = 1 - ord(tail) on any
    step where the requested k fails k > -ord(tail), so every rational gets
    a finite expansion regardless of the requested k.
    """
    a, b = value_operands(value)

    def choose(i: int, tail_ord: int) -> int:
        return 1 - tail_ord if k <= -tail_ord else k

    return _division_expansion(p, PLocal(p, a), PLocal(p, b), "adaptive", k, choose)


def certify_nontermination(state) -> bool:
    """Sound non-termination certificate for a Knopfmacher run on a rational.

    Every term subtracted after the initial one is a positive unit fraction,
    so once some remainder is negative in R the run can never reach zero.
    """
    return Fraction(state) < 0


def knopfmacher_sylvester(p: Prime, v, max_terms: int = DEFAULT_MAX_TERMS) -> Expansion:
    """Knopfmacher-style Sylvester expansion: a_0 = <v>, then repeatedly
    a_n = <1/z_n> and z_{n+1} = z_n - 1/a_n.

    Stops on z = 0 (terminated), on a negative remainder (certified
    non-terminating), or after max_terms reciprocal terms (cap reached).
    """
    v = Fraction(v)
    a0 = frac_part(p, v)
    terms: list[PLocal] = [a0]
    trace = [StepRecord(index=0, q=a0, k=1, initial=True, tail_ord=_finite_ord(p, v))]
    zeta = v - a0.to_fraction()
    certificate = None
    recip = 0
    while True:
        if zeta == 0:
            status = TERMINATED
            break
        if certify_nontermination(zeta):
            status = CERTIFIED_NONTERMINATING
            certificate = zeta
            break
        if recip >= max_terms:
            status = CAP_REACHED
            break
        an = frac_part(p, 1 / zeta)
        terms.append(an)
        trace.append(StepRecord(index=len(terms) - 1, q=an, k=1, tail_ord=ord_p(p, zeta)))
        zeta = zeta - 1 / an.to_fraction()
        recip += 1
    return Expansion(
        "knopfmacher", v, p, None, tuple(terms), status, tuple(trace),
        initial=True, certificate=certificate,
    )


def _finite_ord(p, v):
    o = ord_p(p, v)
    return None if o == POS_INF else o


def modified_sylvester(
    p: Prime, k: int, zeta, max_terms: int = DEFAULT_MAX_TERMS
) -> Expansion:
    """Ceiling-corrected Sylvester expansion for a rational or a real-embedded
    quadratic p-adic element.

    Each step takes t = <1/z>_k and corrects it into
    q = t + ceil((1 - t*psi(z)) / (p**k * psi(z))) * p**k, where psi is the
    real embedding (the identity on rationals) and the ceiling is the
    standard one (least integer >= x). Requires k > -ord_p(zeta).
    """
    quad = isinstance(zeta, QuadElement)
    if not quad:
        zeta = Fraction(zeta)
    if (zeta.is_zero() if quad else zeta == 0):
        raise PreconditionViolated("cannot expand zero")
    pk = Fraction(p) ** k
    start_ord = quad_order_or_inf(zeta) if quad else ord_p(p, zeta)
    if k <= -start_ord:
        raise KTooSmall(f"need k > {-start_ord} for this value, got k = {k}")
    cur = zeta
    terms: list[PLocal] = []
    trace: list[StepRecord] = []
    status = TERMINATED
    while True:
        done = cur.is_zero() if quad else cur == 0
        if done:
            break
        if len(terms) >= max_terms:
            status = CAP_REACHED
            break
        if quad:
            t = quad_frac_part_k(cur.inv(), k)
            tf = t.to_fraction()
            w = (1 - cur * tf) / (cur * pk)
            c = real_ceil(w)
            tail_ord = quad_order_or_inf(cur)
        else:
            t = frac_part_k(p, k, 1 / cur)
            tf = t.to_fraction()
            c = ceil((1 - tf * cur) / (pk * cur))
            tail_ord = ord_p(p, cur)
        q = PLocal.from_fraction(p, tf + c * pk)
        terms.append(q)
        trace.append(StepRecord(index=len(terms) - 1, q=q, k=k, tail_ord=tail_ord))
        cur = cur - 1 / q.to_fraction()
    return Expansion("sylvester", zeta, p, k, tuple(terms), status, tuple(trace))


@dataclass(frozen=True)
class NoJumpCorrespondence:
    """Outcome of the scaled term-by-term comparison between the p-adic and
    classical greedy runs, plus the two runs as evidence."""

    verdict: str
    padic: Expansion
    classical: Expansion
    jumps: tuple[int, ...]


def check_nojump_correspondence(p: Prime, k: int, a: int, b: int) -> NoJumpCorrespondence:
    """For a/b > 0 with k <= -ord_p(a/b), compare the p**k-greedy terms on
    a/b against the classical greedy terms on a*p**k/b scaled by p**-k.

    The correspondence is guaranteed when the p-adic run encounters no
    jumps; with jumps it may or may not survive, which the verdict records.
    """
    value = Fraction(a, b)
    if value <= 0:
        raise HypothesisViolated(f"a/b must be positive, got {value}")
    bound = -ord_p(p, value)
    if k > bound:
        raise HypothesisViolated(f"need k <= {bound}, got k = {k}")
    aa, bb = value_operands(value)
    scaled = value * Fraction(p) ** k
    classical = fs_greedy(*value_operands(scaled))
    padic = _division_expansion(
        p, PLocal(p, aa), PLocal(p, bb), "pk", k, lambda i, t: k,
        max_steps=len(classical.terms) + 4,
    )
    jumps = tuple(i for i, rec in enumerate(padic.trace) if rec.division.jumped)
    pk = Fraction(p) ** k
    matches = (
        padic.status == TERMINATED
        and len(padic.terms) == len(classical.terms)
        and all(
            qp.to_fraction() == qi * pk
            for qp, qi in zip(padic.terms, classical.terms)
        )
    )
    if matches:
        verdict = HOLDS if not jumps else HOLDS_DESPITE_JUMP
    else:
        if not jumps:
            raise RuntimeError("correspondence failed without a jump")
        verdict = FAILS_WITH_JUMP
    return NoJumpCorrespondence(verdict, padic, classical, jumps)


@dataclass
class VerificationReport:
    """Outcome of recomputing an expansion's remainders exactly."""

    ok: bool
    sum_exact: "bool | None"
    tail_orders: list
    strictly_increasing: "bool | None"
    growth_ok: "bool | None"
    problems: list[str] = field(default_factory=list)


def _order_of(p, v):
    if isinstance(v, QuadElement):
        return quad_order_or_inf(v)
    return ord_p(p, v)


def _division_record_problems(rec: StepRecord) -> list[str]:
    """Recompute a division record's rbar, jump flag and case from its
    recorded a, b, r and the step's k."""
    d, k = rec.division, rec.k
    a, b, r = d.a, d.b, d.r
    if k is None or d.k != k:
        return [f"step {rec.index}: division record has k {d.k}, the step has k {k}"]
    problems = []
    # r = rbar * p**(ord(a) + k); comparing canonical forms needs no power of p.
    if PLocal(d.p, d.rbar, a.exp + k) != r:
        problems.append(f"step {rec.index}: rbar {d.rbar} does not match r")
    if d.jumped != (not r.is_zero() and r.exp > a.exp + k):
        problems.append(f"step {rec.index}: jump flag does not match r")
    if d.case != (CASE_1 if not b.is_zero() and k > b.exp - a.exp else CASE_2):
        problems.append(f"step {rec.index}: case does not match a, b and k")
    return problems


def verify_expansion(p: "Prime | None", value, e: Expansion) -> VerificationReport:
    """Recompute the remainders of an expansion and check its claims: terms
    equal to the trace's q values, exact sum on termination, strictly
    increasing remainder orders, and the per-step growth bound
    ord(z_{i+1}) >= k_i + 2*ord(z_i). Each division record's rbar, jump
    flag and case are recomputed from its a, b, r and k.

    For expansions without a prime (classical greedy) only the first two
    are checked. The orders use the per-step k recorded in the trace.
    """
    problems: list[str] = []
    if len(e.terms) != len(e.trace) or any(q != rec.q for q, rec in zip(e.terms, e.trace)):
        problems.append("terms differ from the trace's q values")
    quad = isinstance(value, QuadElement)
    cur = value if quad else Fraction(value)
    padic = p is not None
    orders = [_order_of(p, cur)] if padic else []
    ks: list["int | None"] = []
    for rec in e.trace:
        qf = rec.q.to_fraction() if isinstance(rec.q, PLocal) else Fraction(rec.q)
        if rec.initial:
            cur = cur - qf
        else:
            cur = cur - 1 / qf
        if padic:
            orders.append(_order_of(p, cur))
            ks.append(None if rec.initial else rec.k)
        if rec.division is not None:
            problems.extend(_division_record_problems(rec))

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
