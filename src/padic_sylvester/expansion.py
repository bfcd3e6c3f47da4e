"""Sylvester-type expansions: classical greedy, Knopfmacher, and the p-adic
greedy algorithms, together with run verification and the correspondence
checks relating the p-adic and classical algorithms.

An expansion of v is a list of q_i with v = Sum 1/q_i (plus an optional
additive initial term for Knopfmacher). Expanding a value and verifying a
run are one step loop, `_walk`: a term q steps the tail
z = (num + y*sqrt(D))/den, y absent on a rational, to
(num*q - den + y*q*sqrt(D))/(den*q). On expand each term comes from its
algorithm's pick; on verify from the run's trace, checked against the
algorithm's term rule. An algorithm is one `_Algorithm` row of
`_ALGORITHMS`, built at import: the k it gives a step, its pick, its rule,
the record it carries and the kinds tables of its runs and steps, each
taking the run's prime and k from the loop. The rows are the p**k division
algorithm (`pk`, `adaptive`, rational `sylvester`), the window <den/num>_1
after an additive head (`knopfmacher`) and classical division (`fs`). A
quadratic `sylvester` run alone builds something per run: its pick, the
term closure <1/z>_k with a real ceiling that carries the run's root lift
(`_run_algorithm`). verify types a run, each step and each division record
by the kinds its row makes, before any rule reads them, with one walk of a
kinds table apiece (`_misfit`); a misfit ends the replay where it sits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, repeat
from math import gcd
from typing import NamedTuple

from .digits import _window
from .division import (DivisionStep, _below, _division_record_problems, _pk_divide,
                       classical_divide)
from .errors import HypothesisViolated, KTooSmall, PreconditionViolated
from .quadratic import QuadElement, _surd_ord, _surd_triple, _sylvester_terms
from .valuation import PLocal, POS_INF, Prime, _powers, _strip, _tail_text, ord_p

TERMINATED = "terminated"
CAP_REACHED = "cap_reached"
CERTIFIED_NONTERMINATING = "certified_nonterminating"
_STATUSES = (TERMINATED, CAP_REACHED, CERTIFIED_NONTERMINATING)

HOLDS = "holds"
HOLDS_DESPITE_JUMP = "holds_despite_jump"
FAILS_WITH_JUMP = "fails_with_jump"

DEFAULT_MAX_TERMS = 64


class StepRecord(NamedTuple):
    """Per-step trace: the term produced, the k in force, the order of the
    tail it steps and the division data. A step's index is its position in
    the trace; a Knopfmacher run's additive head is position 0."""

    q: "PLocal | int"
    k: "int | None" = None
    tail_ord: "int | None" = None
    division: "DivisionStep | None" = None
    remainder: "int | None" = None


class Expansion(NamedTuple):
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


_NONE = type(None)
# The kinds a pk run, each of its steps and each division record have, field
# by field, each field named as its problem names it. The other algorithms'
# tables replace some of these kinds (_ALGORITHMS).
_RUN_KINDS = (("algorithm", str), ("value", (Fraction, QuadElement)), ("p", Prime),
              ("k", int), ("terms", (tuple, list)), ("status", _STATUSES),
              ("trace", (tuple, list)), ("initial flag", bool), ("certificate", (_NONE, Fraction)))
_STEP_KINDS = (("term", PLocal), ("k", int), ("tail_ord", (int, _NONE)),
               ("division record", DivisionStep), ("remainder", _NONE))
_RECORD_KINDS = (("division p", Prime), ("division k", int), ("division a", PLocal),
                 ("division b", PLocal), ("division q", PLocal), ("division r", PLocal),
                 ("rbar", int), ("jumped", bool), ("case", str))


def _with(kinds, new: dict) -> tuple:
    """The kinds table kinds with the kind of each field named in new
    replaced by new[field]."""
    return tuple((field, new.get(field, kind)) for field, kind in kinds)


class _Algorithm(NamedTuple):
    """One algorithm's step, for expand and verify alike, built once at
    import; _walk hands each function the run's prime p and k. k(k, o): the
    k it gives a step at tail order o (None on fs, which has no prime).
    pick(p, i, num, y, den, o, norm, k, power): expand's (q, r, division)
    for step i, r the next num where the pick knows it (None: num*q - den),
    or None to end the run; norm is a quadratic tail's, power a rational
    run's ladder of powers of p (valuation._powers). rule(p, i, a, num, q,
    k): verify's problem, or None, with a term q that stepped numerator a to
    num at the claimed k. record: the field every step carries ("division",
    "remainder" or None). head: whether step 0 is an additive head, stepping
    num to num - den*q. runs, steps: the kinds tables (_misfit) of its run
    and of each of its steps, exactly the kinds expand gives them."""

    k: object
    pick: object
    rule: object = None
    record: "str | None" = None
    head: bool = False
    runs: tuple = _RUN_KINDS
    steps: tuple = _STEP_KINDS


def _divide(p, i, num, y, den, o, norm, k, power):
    """The p**k division's step q, r = pk_divide(p, k, num, den)."""
    d = _pk_divide(p, k, num, den, power)
    if d.q.is_zero():
        raise RuntimeError(f"quotient 0 at step {i}; k = {k} is too small here")
    return d.q, d.r, d


def _sylvester_rule(p, i, a, num, q, k):
    """A rational sylvester step's r = a*q - b lies in [0, a*p**k), the p**k
    division's real bound (_below settles it by bit lengths first)."""
    if not _below(num, a, k):
        bound = PLocal(p, a.unit, a.exp + k)  # a*p**k
        return f"step {i}: remainder {_tail_text(num)} is outside [0, {_tail_text(bound)})"


def _knopf_pick(p, i, num, y, den, o, norm, k, power):
    """Knopfmacher's steps, all with k = 1: the head a_0 = <v>_1, then
    a_n = <1/z_n>_1 until z_n < 0 (den > 0, as every a_n > 0, so the sign
    is num's). <x>_1 is the window of x's digits from ord(x) through 0."""
    if i and num.unit < 0:
        return None
    top, bottom, start = (den, num, -o) if i else (num, den, o)  # <1/z>_1 or <z>_1
    if start >= 1:
        return PLocal.zero(p), None, None
    return PLocal(p, _window(p, top.unit, bottom.unit, 1 - start), start), None, None


def _knopf_rule(p, i, a, num, q, k):
    """A term lies in the window <.>_1: digits at exponents exp..0, so
    exp <= 0 and its unit in [0, p**(1 - exp)). The growth bound with k = 1
    gives the window's p-adic half, so the term is <1/z>_1."""
    if q and not (q.exp <= 0 and 0 <= q.unit < p ** (1 - q.exp)):
        return f"step {i}: term {_tail_text(q)} is outside the window [0, {int(p)})"


def _fs_rule(p, i, a, num, q, k):
    """The classical step's r = a*q - b lies in [0, a), which makes q the
    classical greedy term."""
    if not _below(num, a):
        return f"step {i}: remainder {_tail_text(num)} is outside [0, {_tail_text(a)})"


# Each algorithm's row. pk, adaptive and rational sylvester step by the p**k
# division, recording the division on pk and adaptive; sylvester's terms
# are the ceiling's there. adaptive gives a step at order o the run's k, or
# the minimal valid k' = 1 - o where k > -o fails. Knopfmacher's steps all
# take k = 1, so its run has no k. fs steps by classical division over Z,
# recording r, with no prime and no k.
_NO_DIVISION = _with(_STEP_KINDS, {"division record": _NONE})
_ALGORITHMS = {
    "pk": _Algorithm(lambda k, o: k, _divide, record="division"),
    "adaptive": _Algorithm(lambda k, o: k if k > -o else 1 - o, _divide, record="division"),
    "sylvester": _Algorithm(lambda k, o: k, _divide, _sylvester_rule, steps=_NO_DIVISION),
    "knopfmacher": _Algorithm(lambda k, o: 1, _knopf_pick, _knopf_rule, head=True,
                              runs=_with(_RUN_KINDS, {"k": _NONE}), steps=_NO_DIVISION),
    "fs": _Algorithm(lambda k, o: None, lambda p, i, num, y, den, o, norm, k, power: (
        *classical_divide(num, den), None), _fs_rule, "remainder",
        runs=_with(_RUN_KINDS, {"p": _NONE, "k": _NONE}),
        steps=_with(_STEP_KINDS, {"term": int, "k": _NONE, "tail_ord": _NONE,
                                  "division record": _NONE, "remainder": int})),
}


def _run_algorithm(name: str, k, value) -> _Algorithm:
    """Algorithm name's row for a run with k on value: _ALGORITHMS[name]
    itself, except on a quadratic sylvester run. That one picks by the term
    closure quadratic._sylvester_terms builds for the run, which carries its
    root lift, and checks no rule yet (the ceiling's real condition would
    sit beside it)."""
    alg = _ALGORITHMS[name]
    if name != "sylvester" or not isinstance(value, QuadElement):
        return alg
    term = _sylvester_terms(value, k)
    return alg._replace(pick=lambda p, i, n, y, m, o, norm, k, power: (
        term(n, y, m, o, norm), None, None), rule=None)


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
    return _expand("fs", None, None, a, None, b, value)


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
    return _expand("pk", p, k, a, None, b, a.to_fraction() / b.to_fraction())


def adaptive_pk_greedy(p: Prime, k: int, value) -> Expansion:
    """pk_greedy that substitutes the minimal valid k' = 1 - ord(tail) on any
    step where the requested k fails k > -ord(tail), so every rational gets
    a finite expansion regardless of the requested k.
    """
    a, b = value_operands(value)
    return _expand("adaptive", p, k, PLocal(p, a), None, PLocal(p, b), Fraction(a, b))


def knopfmacher_sylvester(p: Prime, v, max_terms: int = DEFAULT_MAX_TERMS) -> Expansion:
    """Knopfmacher-style Sylvester expansion: a_0 = <v>, then repeatedly
    a_n = <1/z_n> and z_{n+1} = z_n - 1/a_n.

    Stops on z = 0 (terminated), on a negative remainder (certified
    non-terminating), or after max_terms reciprocal terms (cap reached).
    """
    v = Fraction(v)
    num, den = (PLocal(p, x) for x in v.as_integer_ratio())
    return _expand("knopfmacher", p, None, num, None, den, v, max_terms)


def modified_sylvester(
    p: Prime, k: int, zeta, max_terms: int = DEFAULT_MAX_TERMS
) -> Expansion:
    """Ceiling-corrected Sylvester expansion for a rational or a real-embedded
    quadratic p-adic element; requires k > -ord_p(zeta). Each step corrects
    t = <1/z>_k into q = t + ceil((1 - t*psi(z)) / (p**k * psi(z))) * p**k,
    with psi the real embedding and the standard ceiling (least integer >= x).
    On a rational these are the p**k division algorithm's terms, so a rational
    runs its step, recording each term, k and order but no division. A
    quadratic element runs the same loop with y*sqrt(D)/den riding along
    (quadratic._sylvester_terms). At most max_terms terms are made.
    """
    if isinstance(zeta, QuadElement):
        if zeta.is_zero():
            raise PreconditionViolated("cannot expand zero")
        p, start_ord = zeta.p, zeta.ord()
        num, y, den = _surd_triple(zeta)
    else:
        zeta = Fraction(zeta)
        a, b = value_operands(zeta)
        num, y, den = PLocal(p, a), None, PLocal(p, b)
        start_ord = num.exp - den.exp
    if k <= -start_ord:
        raise KTooSmall(f"need k > {-start_ord} for this value, got k = {k}")
    return _expand("sylvester", p, k, num, y, den, zeta, max_terms)


def _tail_ord(p, num, y, den, value, floor):
    """(o, norm): the order over Z[1/p] of the tail (num + y*sqrt(D))/den
    (None without a prime) and the norm a quadratic tail's order is read off
    (None on a rational, whose y is None, and on a zero tail): a quadratic
    tail with y = 0 keeps the norm its term reads. floor, a lower bound for
    o or None, only speeds up finding a quadratic order (_surd_ord)."""
    if y is not None and (num or y):
        return _surd_ord(num, y, den, value.D, value.residue, floor)
    return (None if p is None else num.exp - den.exp if num.unit else POS_INF), None


def _walk(alg: _Algorithm, p, run_k, num, y, den, value, e=None, max_terms=None):
    """The one step loop of algorithm alg over p with the run's k, run_k:
    expand (e None) or verify run e, each step typed (_step_misfit) before
    it is read, from the tail, an unreduced pair num/den over Z[1/p] (Z
    without a prime), a quadratic one with y*sqrt(D) riding along. A rational run with a prime
    shares one ladder of powers of p between its steps (valuation._powers).
    Each step finds the tail's order o (_tail_ord) above the floor the
    growth bound k + 2*ord(z) of the step before puts under it, and
    k = alg.k(run_k, o); its term q comes from alg.pick on expand and from
    e's trace on verify. q steps num to the pick's r where expand's pick
    gives one, else to num*q - den, whose power of p the floor takes out
    with one exact division on a rational tail with a prime
    (_floored_difference): verify steps every num so and only compares a
    record's r with it; y to y*q; and den to den*q unless the tail is zero
    and no later step reads it. The head, position 0 of a
    Knopfmacher run, steps num to num - den*q. Expand stops on a zero tail,
    after max_terms reciprocal terms or where the pick ends the run.

    Verify checks a step at three points, so that its problems come
    together and in step order: before the order, its kinds, a zero
    reciprocal term and the division record alg carries; before the
    arithmetic, its ord(tail) and k, a term exponent too far from the order
    (_exponent_too_far) and its a, b against the pair; after it, its r and
    remainder against the next num and its term rule. A step-0 record whose
    a/b is the input seeds the pair. A misfit, a zero or a far term ends the
    replay before its value is read or its power of p is built, a run over
    another prime than p before its first step. Returns (trace, num, y,
    den, problems, orders, stop): orders end with the tail the replay stops
    at, stop is the step it stops before or None."""
    power = None if p is None or y is not None else _powers(p)
    expand = e is None
    trace = [] if expand else e.trace
    k_of, pick, rule, heads = alg.k, alg.pick, alg.rule, alg.head
    divisions, remainders = alg.record == "division", alg.record == "remainder"
    start, problems, orders, floor, budget = (num, y, den), [], [], None, None
    stop = None if expand or e.p == p else 0
    seeded = False
    for i in (count() if expand else range(len(trace) if stop is None else 0)):
        head = heads and i == 0
        if expand:
            if not head and (not (num or y) or max_terms is not None and i - heads >= max_terms):
                break
        else:  # before the order
            rec, r = trace[i], None  # verify steps num itself, never to a record's r
            q, d = rec.q, rec.division
            problem = _step_misfit(e, alg, i, rec) or (
                not head and not q and f"step {i}: term is zero")
            if problem:  # the replay ends before the step
                problems.append(problem)
                stop = i
                break
            if d is not None:
                problems.extend(_division_record_problems(rec, i))
                if i == 0 and not head and d.a * den == d.b * num:
                    seeded, num, den = True, d.a, d.b  # a/b is the input: it seeds the pair
        o, norm = _tail_ord(p, num, y, den, value, floor)
        k = k_of(run_k, o)
        claim = None if o == POS_INF else o
        if expand:
            stepped = pick(p, i, num, y, den, o, norm, k, power)
            if stepped is None:
                break
            q, r, d = stepped
            rec = StepRecord(q, k, claim, d if divisions else None, r if remainders else None)
            trace.append(rec)
        else:  # before the arithmetic
            if p is not None:
                orders.append(o)
                if rec.tail_ord != claim:
                    problems.append(f"step {i}: tail_ord {_tail_text(rec.tail_ord)} is not "
                                    f"the order {o}")
            if rec.k != k:
                problems.append(f"step {i}: k {_tail_text(rec.k)} is not the {e.algorithm} k "
                                f"{_tail_text(k)}")
            if p is not None and q and q.exp != (o if head else -o):
                budget = budget or _CLAIM_BITS + sum(  # the units the run spells out
                    u.unit.bit_length() for u in (*start, *e.terms) if isinstance(u, PLocal))
                if _exponent_too_far(q, o, k, num, den, head, budget):
                    problems.append(f"step {i}: term exponent {_tail_text(q.exp)} is too far "
                                    f"from the order {o} to be valid")
                    stop = i
                    break
            if d is not None and not head:
                if i == 0 and not seeded:
                    problems.append(f"step {i}: a/b differs from the input")
                if i and d.a != num:
                    problems.append(f"step {i}: a is not the previous step's r")
                if i and d.b != den:
                    problems.append(f"step {i}: b is not the previous step's b*q")
        if p is not None:
            floor = None if o == POS_INF else rec.k + 2 * o
        a = num
        if head:
            num -= den * q
        else:
            if r is not None:
                num = r
            elif power:
                num = _floored_difference(num * q, den, floor, den.exp + q.exp, power)
            else:
                num = num * q - den
            if y is not None:
                y = y * q
            if num or y or i + 1 < len(trace):
                den = den * q
        if not expand:  # after the arithmetic
            if not head and d is not None and d.r != num:
                problems.append(f"step {i}: r is not a*q - b")
            if not head and rec.remainder is not None and rec.remainder != num:
                problems.append(f"step {i}: remainder {_tail_text(rec.remainder)} is not a*q - b")
            problem = rule and rule(p, i, a, num, q, rec.k)
            if problem:
                problems.append(problem)
    if not expand and p is not None and len(orders) == (len(trace) if stop is None else stop):
        orders.append(_tail_ord(p, num, y, den, value, floor)[0])
    return trace, num, y, den, problems, orders, stop


def _expand(name: str, p, k, num, y, den, value, max_terms: "int | None" = None) -> Expansion:
    """The run of algorithm `name` on the tail: TERMINATED on a zero final
    tail, else CAP_REACHED, unless the algorithm has an additive head
    (Knopfmacher's) and its final tail is negative. That certifies
    non-termination, with the tail as the certificate: every later term is a
    positive unit fraction, so a negative tail never returns to zero."""
    alg = _run_algorithm(name, k, value)
    trace, num, y, den, *_ = _walk(alg, p, k, num, y, den, value, max_terms=max_terms)
    status, certificate = CAP_REACHED if num or y else TERMINATED, None
    if alg.head and num.unit < 0:
        status, certificate = CERTIFIED_NONTERMINATING, num.to_fraction() / den.to_fraction()
    return Expansion(name, value, p, k, tuple([rec.q for rec in trace]), status, tuple(trace),
                     alg.head, certificate)


class NoJumpCorrespondence(NamedTuple):
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
    pk = Fraction(p) ** k
    classical = fs_greedy(*value_operands(value * pk))
    aa, bb = value_operands(value)
    padic = _expand("pk", p, k, PLocal(p, aa), None, PLocal(p, bb), value,
                    len(classical.terms) + 4)
    jumps = tuple(i for i, rec in enumerate(padic.trace) if rec.division.jumped)
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


class VerificationReport(NamedTuple):
    """Outcome of recomputing an expansion's remainders exactly."""

    ok: bool
    sum_exact: "bool | None"
    tail_orders: list
    strictly_increasing: "bool | None"
    growth_ok: "bool | None"
    problems: list[str]


def _replay_tail(num, y, den, value) -> "Fraction | QuadElement":
    """A replayed tail as a value, for problem texts."""
    def frac(a):
        return a.to_fraction() if isinstance(a, PLocal) else Fraction(a)

    x = frac(num) / frac(den) if num else Fraction(0)
    if y is None:
        return x
    return QuadElement(x, frac(y) / frac(den), value.D, value.real_sign, value.p, value.residue)


def _floored_difference(x: PLocal, z: PLocal, floor, den_exp: int, power) -> PLocal:
    """x - z in canonical form, the numerator of a replayed tail (x - z)/den
    with exp(den) = den_exp, where floor is a lower bound for the tail's
    order (None: none) and power the replay's ladder of powers of p, which
    builds the floor's power.

    On a valid run the floor is the growth bound k + 2*ord(previous tail),
    so _strip takes the difference's power of p, or all but a few of its
    factors, out with one exact division. A floor that fails costs one
    division before the full strip, and none if its power of p is wider
    than the difference; the result never depends on it.
    """
    p, e = x.p, min(x.exp, z.exp)
    raw = x.unit * p ** (x.exp - e) - z.unit * p ** (z.exp - e)
    if not raw:
        return PLocal.zero(p)
    v, u = _strip(p, raw, 0 if floor is None else floor + den_exp - e, power)
    return PLocal(p, u, e + v)


# A claimed term exponent this many bits' worth of p past any valid one is
# still replayed: its power takes milliseconds, and the whole replay then
# lists every problem the claim causes. Beyond it the replay ends.
_CLAIM_BITS = 1 << 18


def _exponent_too_far(q, o, k, num, den, head, budget) -> bool:
    """Whether term q of a step with k, taken at a tail num/den of order o,
    has an exponent too far from any valid one for the replay to build its
    power; head marks a Knopfmacher run's additive head. k is the k the
    algorithm gives the step, not the step's claimed one, so an edited k
    widens no allowance.

    A term the library makes has exponent -o on a step with k > -o and one
    in [k, -o + log_p |unit(den)|] (pk_divide's case 2) on one with
    k <= -o; a Knopfmacher head has exponent o where o <= 0. A step after a
    zero tail, which no valid run takes, is measured from order 0. An
    exponent may pass that range by _CLAIM_BITS and den's unit bits' worth
    of p. The run allows one budget for all its steps: the operand of
    num*q - den (a head's num - den*q) that its power of p widens, by at
    least bits(p) - 1 bits an exponent, must fit in `budget`, the bits of
    the units the run spells out (its input's and its terms') plus
    _CLAIM_BITS. Every value a valid run's replay builds fits in those
    units, while a claimed run k or allowances compounding from step to step
    would widen it without limit."""
    o = 0 if o == POS_INF else o
    bits = q.p.bit_length() - 1
    if abs(q.exp - o if head else q.exp + o) > max(0, -k - o) + (
            den.unit.bit_length() + _CLAIM_BITS) // bits:
        return True
    x, z = (num, den * q) if head else (num * q, den)  # the step's difference x - z
    gap = (x.exp - z.exp) * bits
    wide = x.unit.bit_length() + gap if gap > 0 else z.unit.bit_length() - gap
    return wide > budget


def _misfit(kinds, values, p) -> "str | None":
    """The field of the first of values that is not of its kind in kinds, a
    table of (field, kind) pairs, or None. A kind is a class or a tuple of
    them, where PLocal is one over the run's prime p and Prime is p itself;
    _STATUSES is one of the statuses."""
    for (field, kind), x in zip(kinds, values):
        if kind is _STATUSES:
            if x not in kind:
                return field
        elif not isinstance(x, kind) or kind is PLocal and x.p != p or kind is Prime and x != p:
            return field
    return None


def _step_misfit(e: Expansion, alg: _Algorithm, i: int, rec: StepRecord) -> "str | None":
    """The problem `step i: <field> does not fit a <name> run` of step i,
    rec, of run e for its first misfit (_misfit): its fields by alg's step
    table, then those of the division record that table lets it hold, a
    term's value shown where a term can hold it; or None."""
    misfit = _misfit(alg.steps, rec, e.p) or (
        rec.division is not None and _misfit(_RECORD_KINDS, rec.division, e.p))
    if misfit == "term" and isinstance(rec.q, (PLocal, int)):
        misfit = f"term {_tail_text(rec.q)}"
    if misfit:
        return f"step {i}: {misfit} does not fit a {e.algorithm} run"


def verify_expansion(p: "Prime | None", value, e: Expansion) -> VerificationReport:
    """Replay an expansion from its input and check its claims in one walk
    of its trace (_walk) by its algorithm's row (_run_algorithm), handed the
    run's own k as expanding hands it the asked one, once its fields are
    typed by the row's run table (_misfit), and its initial flag set exactly
    on a Knopfmacher run, whose step 0 is its additive head: a run that does
    not fit lists its first misfit and is not replayed, and a step that does
    not fit lists its own and ends the replay. A field of any kind or size
    is listed, never raised on; only an unknown algorithm raises. A step's
    index is its position. Each step's problems come together, in step
    order; its term is checked against its algorithm's rule (the quadratic
    ceiling has none yet). The run's claims follow: terms equal to the
    trace's q values, the input as value, the replay's prime as p (a
    quadratic input's own; another prime ends the replay before its first
    step), an exact sum on termination, a status other than terminated only
    on a nonzero final tail, and a certificate on exactly the certified
    runs, equal to the final tail (compared by cross-multiplying over
    Z[1/p], building no Fraction) and negative. Last come strictly
    increasing orders with the growth bound ord(z_{i+1}) >= k_i + 2*ord(z_i)
    (orders need a prime), except after a Knopfmacher head, which need only
    leave order >= 1, each order found from the floor that bound puts under
    it, which never changes the result."""
    y = None
    if isinstance(value, QuadElement):
        p = value.p
        num, y, den = _surd_triple(value)
    else:
        value = Fraction(value)
        num, den = value.as_integer_ratio()
        if num < 0:  # a > 0, as the division drivers take their operands
            num, den = -num, -den
        if p is not None:
            num, den = PLocal(p, num), PLocal(p, den)
    name = e.algorithm
    if not isinstance(name, str) or name not in _ALGORITHMS:
        raise PreconditionViolated(f"no algorithm {name!r} to replay" if isinstance(name, str)
                                   else "the run names no algorithm")
    alg = _run_algorithm(name, e.k, value)
    trace = e.trace
    walkable = isinstance(trace, (tuple, list)) and all(map(isinstance, trace, repeat(StepRecord)))
    misfit = _misfit(alg.runs, e, e.p) or (not walkable and "trace") or (
        e.initial is not alg.head and f"initial flag {e.initial}")
    if misfit:  # not replayed, and none of its claims read
        if misfit == "p" and isinstance(e.p, (Prime, _NONE)):
            misfit = f"p {e.p and int(e.p)}"
        return VerificationReport(False, False if e.status == TERMINATED else None, [], None,
                                  None, [f"{misfit} does not fit a {name} run"])
    _, num, y, den, problems, orders, stop = _walk(alg, p, e.k, num, y, den, value, e)

    if [*e.terms] != [rec.q for rec in e.trace]:
        problems.append("terms differ from the trace's q values")
    if e.value != value:
        problems.append(f"value {_tail_text(e.value)} is not the input {_tail_text(value)}")
    if e.p != p:
        problems.append(f"p {e.p and int(e.p)} is not the input's p {p and int(p)}")
    sum_exact = None
    if e.status == TERMINATED:
        sum_exact = stop is None and not num and not y
        if stop is None and not sum_exact:
            tail = _tail_text(_replay_tail(num, y, den, value))
            problems.append(f"terminated run does not sum to its input (tail {tail})")
    if e.status != TERMINATED and stop is None and not num and not y:
        problems.append(f"status {e.status} but the replayed tail is zero")
    c = e.certificate
    if e.status == CERTIFIED_NONTERMINATING and c is None:
        problems.append(f"status {e.status} without a certificate")
    if c is not None:
        if e.status != CERTIFIED_NONTERMINATING:
            problems.append(f"certificate {_tail_text(c)} on a run with status {e.status}")
        if stop is None and (y or num * c.denominator != den * c.numerator):
            problems.append(f"certificate {_tail_text(c)} is not the final tail")
        if not c < 0:
            problems.append(f"certificate {_tail_text(c)} is not negative")

    strictly_increasing = growth_ok = None
    if orders:
        strictly_increasing = growth_ok = True
        for i in range(len(orders) - 1):
            s, nxt = orders[i], orders[i + 1]
            k_i = e.trace[i].k
            if alg.head and i == 0:
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
                problems.append(f"growth bound failed at step {i}: ord {nxt} < "
                                f"{_tail_text(k_i)} + 2*{s}")
    return VerificationReport(not problems, sum_exact, orders, strictly_increasing, growth_ok,
                              problems)
