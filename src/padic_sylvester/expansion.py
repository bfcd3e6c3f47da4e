"""Sylvester-type expansions: classical greedy, Knopfmacher, and the p-adic
greedy algorithms, together with run verification and the correspondence
checks relating the p-adic and classical algorithms.

An expansion of v is a list of q_i with v = Sum 1/q_i (plus an optional
additive initial term for Knopfmacher). Every algorithm runs one exact chain,
`_chain`: a term q steps the tail z = (num + y*sqrt(D))/den, y absent on a
rational, to (num*q - den + y*q*sqrt(D))/(den*q). Only the step picking q
differs: the p**k division algorithm (`pk`, `adaptive`, rational
`sylvester`), <1/z>_k with a real ceiling (quadratic `sylvester`), the
window <den/num>_1 (`knopf`) or classical division (`fs`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .digits import _lift_inv_sqrt, _simple_root, _window, frac_part
from .division import CASE_1, CASE_2, DivisionStep, _pk_divide, classical_divide
from .errors import HypothesisViolated, KTooSmall, PreconditionViolated
from .quadratic import (
    QuadElement,
    _check_width,
    _surd_floor,
    _surd_ord,
    _surd_ratio,
    _surd_triple,
)
from .valuation import PLocal, POS_INF, Prime, _below, _powers, _record_holds, _strip, ord_p

TERMINATED = "terminated"
CAP_REACHED = "cap_reached"
CERTIFIED_NONTERMINATING = "certified_nonterminating"

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


def _chain(num, y, den, step, max_terms: "int | None"):
    """Step the tail (num + y*sqrt(D)) / den, y None on a rational, until it
    is zero, max_terms terms are made (None: no cap) or step returns None.
    step(i, num, y, den) returns the i-th term q, num*q - den and a record;
    den*q, the run's widest product, is skipped once the tail is zero.
    Returns (terms, trace, status, num, den); status is TERMINATED on a zero
    tail, else CAP_REACHED."""
    terms, trace = [], []
    while num or y:
        if max_terms is not None and len(terms) >= max_terms:
            break
        stepped = step(len(terms), num, y, den)
        if stepped is None:
            break
        q, num, rec = stepped
        terms.append(q)
        trace.append(rec)
        if y:
            y = y * q
        if num or y:
            den = den * q
    status = CAP_REACHED if num or y else TERMINATED
    return tuple(terms), tuple(trace), status, num, den


def _pk_step(p: Prime, choose_k, records: bool = True):
    """The step q, r = pk_divide(p, k, num, den) with k = choose_k(ord(num/den));
    its record carries the division when `records` is set.
    The run's steps share one ladder of powers of p (valuation._powers)."""
    power = _powers(p)

    def step(i, num, y, den):
        tail_ord = num.exp - den.exp
        k = choose_k(tail_ord)
        d = _pk_divide(p, k, num, den, power)
        if d.q.is_zero():
            raise RuntimeError(f"quotient 0 at step {i}; k = {k} is too small here")
        return d.q, d.r, StepRecord(d.q, k, tail_ord, d if records else None)

    return step


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

    def step(i, num, y, den):
        q, r = classical_divide(num, den)
        return q, r, StepRecord(q, remainder=r)

    terms, trace, status, _, _ = _chain(a, None, b, step, None)
    return Expansion("fs", value, None, None, terms, status, trace)


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
    terms, trace, status, _, _ = _chain(a, None, b, _pk_step(p, lambda t: k), None)
    return Expansion("pk", a.to_fraction() / b.to_fraction(), p, k, terms, status, trace)


def adaptive_pk_greedy(p: Prime, k: int, value) -> Expansion:
    """pk_greedy that substitutes the minimal valid k' = 1 - ord(tail) on any
    step where the requested k fails k > -ord(tail), so every rational gets
    a finite expansion regardless of the requested k.
    """
    a, b = value_operands(value)
    step = _pk_step(p, lambda tail_ord: 1 - tail_ord if k <= -tail_ord else k)
    terms, trace, status, _, _ = _chain(PLocal(p, a), None, PLocal(p, b), step, None)
    return Expansion("adaptive", Fraction(a, b), p, k, terms, status, trace)


def knopfmacher_sylvester(p: Prime, v, max_terms: int = DEFAULT_MAX_TERMS) -> Expansion:
    """Knopfmacher-style Sylvester expansion: a_0 = <v>, then repeatedly
    a_n = <1/z_n> and z_{n+1} = z_n - 1/a_n.

    Stops on z = 0 (terminated), on a negative remainder (certified
    non-terminating), or after max_terms reciprocal terms (cap reached).
    The certificate is sound: every later term is a positive unit fraction,
    so a negative remainder never returns to zero.
    """
    v = Fraction(v)
    a0 = frac_part(p, v)
    num, den = (PLocal(p, x) for x in v.as_integer_ratio())
    head = StepRecord(a0, 1, num.exp - den.exp if num else None)
    num -= den * a0

    def step(i, num, y, den):
        if num.unit < 0:  # den > 0, as every a_n > 0: the tail is negative
            return None
        start = den.exp - num.exp  # ord(1/z)
        q = PLocal(p, _window(p, den.unit, num.unit, 1 - start), start)
        return q, num * q - den, StepRecord(q, 1, -start)

    terms, trace, status, num, den = _chain(num, None, den, step, max_terms)
    certificate = None
    if status == CAP_REACHED and num.unit < 0:  # a negative tail beats the cap
        status, certificate = CERTIFIED_NONTERMINATING, num.to_fraction() / den.to_fraction()
    return Expansion(
        "knopfmacher", v, p, None, (a0, *terms), status, (head, *trace),
        initial=True, certificate=certificate,
    )


def modified_sylvester(
    p: Prime, k: int, zeta, max_terms: int = DEFAULT_MAX_TERMS
) -> Expansion:
    """Ceiling-corrected Sylvester expansion for a rational or a real-embedded
    quadratic p-adic element; requires k > -ord_p(zeta). Each step corrects
    t = <1/z>_k into q = t + ceil((1 - t*psi(z)) / (p**k * psi(z))) * p**k,
    with psi the real embedding and the standard ceiling (least integer >= x).
    On a rational these are the p**k division algorithm's terms, so a rational
    runs its step, recording each term, k and order but no division. A
    quadratic element runs the same chain with y*sqrt(D)/den riding along
    (_surd_step). At most max_terms terms are made.
    """
    if isinstance(zeta, QuadElement):
        if zeta.is_zero():
            raise PreconditionViolated("cannot expand zero")
        p, start_ord, step = zeta.p, zeta.ord(), _surd_step(zeta, k)
        num, y, den = _surd_triple(zeta)
    else:
        zeta = Fraction(zeta)
        a, b = value_operands(zeta)
        num, y, den = PLocal(p, a), None, PLocal(p, b)
        start_ord, step = num.exp - den.exp, _pk_step(p, lambda t: k, records=False)
    if k <= -start_ord:
        raise KTooSmall(f"need k > {-start_ord} for this value, got k = {k}")
    terms, trace, status, _, _ = _chain(num, y, den, step, max_terms)
    return Expansion("sylvester", zeta, p, k, terms, status, trace)


def _surd_step(zeta: QuadElement, k: int):
    """modified_sylvester's step on a quadratic tail z = (n + y*sqrt(D)) / m
    over Z[1/p]. The norm n**2 - D*y**2 gives o = ord(z), found from the floor
    the growth bound ord(z) >= k + 2*ord(previous z) puts under it;
    t = <1/z>_k is the window of z's unit ratio num/den inverted, one inverse
    modulo p**w, w = k + o, with sqrt(D) lifted from the previous step's root
    (as 1/sqrt(D), whose Newton step needs no inverse); the ceiling is one
    floor of a real surd."""
    p, D, residue, sign = zeta.p, zeta.D, zeta.residue, zeta.real_sign
    root, inv_root, prec = 0, 0, 0  # sqrt(D) and 1/sqrt(D) mod p**prec
    floor = None  # the growth bound on ord(z), none on the first step

    def step(i, n, y, m):
        nonlocal root, inv_root, prec, floor
        o, norm = _surd_ord(n, y, m, D, residue, floor)
        floor = k + 2 * o
        w = k + o
        modulus = p**w
        if y:
            # The cap applies to the window of 1/z's coefficients, as
            # quad_frac_part_k(z.inv(), k) opens it.
            _check_width(k - (m.exp + min(n.ord(), y.ord()) - norm.exp))
            if not prec:
                inv_root, prec = pow(_simple_root(p, D, residue), -1, p), 1
            inv_root = _lift_inv_sqrt(p, D, inv_root, prec, w, modulus)
            prec = max(prec, w)
            root = D * inv_root % modulus
        num, den = _surd_ratio(n, y, m, o, norm, root)
        t = _window(p, den, num, w, modulus)
        # The ceiling of psi((1/z - t) / p**k), with 1/z = m*(n - y*sqrt(D))/norm
        # and t*p**-o the window's value, is that of
        # (mn - t*norm - sign*my*sqrt(D)) / (norm*p**k).
        mn_e, tn_e, my_e, g_e = m.exp + n.exp, norm.exp - o, m.exp + y.exp, norm.exp + k
        e = min(mn_e, tn_e, my_e, g_e)
        x = m.unit * n.unit * p ** (mn_e - e) - t * norm.unit * p ** (tn_e - e)
        wy = -sign * m.unit * y.unit * p ** (my_e - e)
        g = norm.unit * p ** (g_e - e)
        if g < 0:
            x, wy, g = -x, -wy, -g
        c = -_surd_floor(-x, -wy, g, D)
        q = PLocal(p, t + c * modulus, -o)
        return q, n * q - m, StepRecord(q, k, o)

    return step


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
    aa, bb = value_operands(value)
    scaled = value * Fraction(p) ** k
    classical = fs_greedy(*value_operands(scaled))
    terms, trace, status, _, _ = _chain(
        PLocal(p, aa), None, PLocal(p, bb), _pk_step(p, lambda t: k), len(classical.terms) + 4
    )
    padic = Expansion("pk", value, p, k, terms, status, trace)
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


class VerificationReport(NamedTuple):
    """Outcome of recomputing an expansion's remainders exactly."""

    ok: bool
    sum_exact: "bool | None"
    tail_orders: list
    strictly_increasing: "bool | None"
    growth_ok: "bool | None"
    problems: list[str]


def _division_record_problems(rec: StepRecord, i: int) -> list[str]:
    """Check the division record of step i against its own step: its q is
    the step's term and 0 <= rbar < unit(a); then recompute its rbar, jump
    flag and case from its recorded a, b, r and the step's k."""
    d, k = rec.division, rec.k
    a, b, r = d.a, d.b, d.r
    problems = []
    if d.q != rec.q:
        problems.append(f"step {i}: division q differs from the term")
    if not 0 <= d.rbar < a.unit:
        problems.append(f"step {i}: rbar {d.rbar} is outside [0, unit(a))")
    if k is None or d.k != k:
        problems.append(f"step {i}: division record has k {d.k}, the step has k {k}")
        return problems
    # r = rbar * p**(ord(a) + k); comparing canonical forms needs no power of p.
    if PLocal(d.p, d.rbar, a.exp + k) != r:
        problems.append(f"step {i}: rbar {d.rbar} does not match r")
    if d.jumped != (not r.is_zero() and r.exp > a.exp + k):
        problems.append(f"step {i}: jump flag does not match r")
    if d.case != (CASE_1 if not b.is_zero() and k > b.exp - a.exp else CASE_2):
        problems.append(f"step {i}: case does not match a, b and k")
    return problems


def _replay_ord(num, y, den, value, floor=None):
    """Order of a replayed tail (num + y*sqrt(D)) / den over Z[1/p]; y is
    None on a rational. floor, a lower bound for it or None, only speeds up
    finding a quadratic order (_surd_ord)."""
    if y:
        return _surd_ord(num, y, den, value.D, value.residue, floor)[0]
    return POS_INF if num.is_zero() else num.exp - den.exp


def _replay_tail(num, y, den, value) -> "Fraction | QuadElement":
    """A replayed tail as a value, for problem texts and the certificate."""
    def frac(a):
        return a.to_fraction() if isinstance(a, PLocal) else Fraction(a)

    x = frac(num) / frac(den) if num else Fraction(0)
    if y is None:
        return x
    return QuadElement(x, frac(y) / frac(den), value.D, value.real_sign, value.p, value.residue)


def _tail_text(tail) -> str:
    """str(tail), for a replayed value in a problem text: a tail, a
    remainder or its bound. Where str() would pass the int/str digit limit,
    the bit lengths of its numerators and denominators, or of a PLocal's
    unit, stand in for them."""
    try:
        return str(tail)
    except ValueError:
        def bits(x):
            return f"{x.numerator.bit_length()}-bit/{x.denominator.bit_length()}-bit"

        if isinstance(tail, PLocal):
            unit = f"{tail.unit.bit_length()}-bit"
            return unit if tail.exp == 0 else f"{unit}*{int(tail.p)}^{tail.exp}"
        if isinstance(tail, Fraction):
            return bits(tail)
        return f"({bits(tail.x)}) + ({bits(tail.y)})*sqrt({tail.D})"


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


def _exponent_too_far(q: PLocal, o, k: "int | None", den: PLocal, head: bool) -> bool:
    """Whether term q of a step with k, taken at a tail of order o over den,
    has an exponent too far from any valid one for the replay to build its
    power; head marks a Knopfmacher run's additive head. k is the k the
    algorithm gives the step, not the step's claimed one, so an edited k
    widens no allowance.

    A term the library makes has exponent -o on a step with k > -o and one
    in [k, -o + log_p |unit(den)|] (pk_divide's case 2) on one with
    k <= -o; a Knopfmacher head has exponent o where o <= 0. A step after a
    zero tail, which no valid run takes, is measured from order 0."""
    o = 0 if o == POS_INF else o
    d = q.exp - o if head else q.exp + o
    slack = (den.unit.bit_length() + _CLAIM_BITS) // (q.p.bit_length() - 1)
    return abs(d) > max(0, -(k or 0) - o) + slack


def verify_expansion(p: "Prime | None", value, e: Expansion) -> VerificationReport:
    """Replay an expansion from its input and check its claims in one walk of
    its trace. A step's index is its position, and position 0 of a
    Knopfmacher run is its additive head. Each step is checked where it is
    replayed, its problems together and in step order: the fields its
    algorithm records (division records on the p**k runs only, remainders on
    fs only, no order without a prime, k = 1 on Knopfmacher steps and none on
    fs), a zero reciprocal term, its division record, its ord(tail) and k
    against the replayed order, a term exponent too far from that order to
    be valid (_exponent_too_far), then its term rule and link in the chain.
    A zero or far term ends the replay before its power of p is built. The
    run's claims follow: terms equal to the trace's q values, no run k on fs
    or Knopfmacher, the input as value, the replay's prime as p (a quadratic
    input's own; another prime ends the replay before its first step, so no
    arithmetic mixes primes), an initial term on Knopfmacher runs only, an
    exact sum on termination, a status other than terminated only on a
    nonzero final tail, and a certificate on exactly the certified runs,
    equal to the final tail and negative. Last come strictly increasing
    orders with the growth bound ord(z_{i+1}) >= k_i + 2*ord(z_i) (orders
    need a prime).

    Three rules that pick a term are checked as integer comparisons: an fs
    step's remainder r = a*q - b lies in [0, a), which makes q the classical
    greedy term; a rational sylvester step's lies in [0, a*p**k), the p**k
    division's real bound, which _below shares with fs and settles by bit
    lengths before it builds a power of p; and a Knopfmacher term's unit
    lies in [0, p**(1 - exp)), the window <.>_1 (its value in [0, p)). The
    growth bound with k = 1 already gives the window's p-adic half, so the
    term is the window of its tail's reciprocal.

    The tail is an unreduced pair num/den over Z[1/p] (Z without a prime),
    which a term q steps to (num*q - den)/(den*q), an initial term to
    (num - den*q)/den, and whose orders are its exponents. A quadratic tail
    (num + y*sqrt(D))/den steps the same pair, with y stepped to y*q, and
    reads its orders off the norm num**2 - D*y**2.

    The first division record's a/b must be the input, and its a, b then seed
    the pair; each later a, b must be the pair and each r the next num, which
    gives b = a*q - r and the chain. A classical remainder must be the next
    num too.

    Each order a step leaves is found from the floor the growth bound
    k + 2*ord(z) puts under it, with the step's k and the replayed order of
    the tail z it leaves from, as the quadratic driver finds it; the
    report's tail_ord values are only compared. A rational num with a
    division record takes its r once one product shows b + r = a*q (on a
    valid record, a sum whose unit is already prime to p); one without takes
    the floor's power of p out of num*q - den with one exact division, and a
    quadratic tail takes it out of its norm the same way. A floor that fails
    only costs that division before the full strip (valuation._strip), so
    the problems are those of the plain replay. The record checks and the
    floors take their powers of p from one ladder, each the last one
    squared (valuation._powers), as the drivers' division steps do. The
    last step skips den*q on a zero tail.
    """
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
    alg = e.algorithm
    rational = p is not None and y is None
    power = _powers(p) if rational else None
    knopf, fs, records = alg == "knopfmacher", alg == "fs", alg in ("pk", "adaptive")
    fixed_k = 1 if knopf else None  # the k of every Knopfmacher or fs step
    sylvester = rational and alg == "sylvester"
    problems: list[str] = []
    orders = []
    floor = None  # the growth bound on the order of the tail this step leaves
    stop = None if e.p == p else 0  # the step the replay ends before
    for i, rec in enumerate(e.trace):
        q, d, head = rec.q, rec.division, knopf and i == 0
        if (d is not None) != records:
            problems.append(f"step {i}: division record does not fit a {alg} run")
        if (rec.remainder is not None) != fs:
            problems.append(f"step {i}: remainder does not fit a {alg} run")
        if rec.tail_ord is not None and e.p is None:
            problems.append(f"step {i}: tail_ord does not fit a {alg} run")
        if (knopf or fs) and rec.k != fixed_k:
            problems.append(f"step {i}: k {rec.k} is not the {alg} k {fixed_k}")
        if stop is not None:
            continue
        if not head and not q:
            problems.append(f"step {i}: term is zero")
            stop = i
            continue
        if d is not None:
            problems.extend(_division_record_problems(rec, i))
        if p is not None:
            if not isinstance(q, PLocal):
                q = PLocal(p, q)
            o = _replay_ord(num, y, den, value, floor)
            orders.append(o)
            if rec.tail_ord != (None if o == POS_INF else o):
                problems.append(f"step {i}: tail_ord {rec.tail_ord} is not the order {o}")
            want = fixed_k  # the k the algorithm gives this step
            if not head and alg in ("pk", "sylvester", "adaptive"):
                want = e.k
                if alg == "adaptive" and e.k is not None and o != POS_INF and e.k <= -o:
                    want = 1 - o
                if rec.k != want:
                    problems.append(f"step {i}: k {rec.k} is not the {alg} k {want}")
            if q and q.exp != -o and _exponent_too_far(q, o, want, den, head):
                problems.append(f"step {i}: term exponent {q.exp} is too far from "
                                f"the order {o} to be valid")
                stop = i
                continue
            floor = None if rec.k is None or o == POS_INF else rec.k + 2 * o
        # A window <.>_1 has its digits at exponents exp..0, so exp <= 0.
        if knopf and rational and q and not (q.exp <= 0 and 0 <= q.unit < p ** (1 - q.exp)):
            problems.append(f"step {i}: term {q} is outside the window [0, {int(p)})")
        if head:
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
        a = num
        if rational and d is not None and _record_holds(num, den, q, d.r, power):
            num = d.r  # b + r = a*q, so the record's r is a*q - b
        elif rational:
            num = _floored_difference(num * q, den, floor, den.exp + q.exp, power)
        else:
            num = num * q - den
        if y is not None:
            y = y * q
        if not (rational and i + 1 == len(e.trace) and not num):  # no later step reads its den
            den = den * q
        if d is not None and d.r != num:
            problems.append(f"step {i}: r is not a*q - b")
        if rec.remainder is not None and rec.remainder != num:
            problems.append(f"step {i}: remainder {rec.remainder} is not a*q - b")
        if (fs or sylvester and rec.k is not None) and not _below(num, a, 0 if fs else rec.k):
            bound = a if fs else PLocal(p, a.unit, a.exp + rec.k)  # a*p**k
            problems.append(f"step {i}: remainder {_tail_text(num)} is outside "
                            f"[0, {_tail_text(bound)})")
    # A replay ended at a far term already holds the order of the tail it stopped at.
    if p is not None and len(orders) == (len(e.trace) if stop is None else stop):
        orders.append(_replay_ord(num, y, den, value, floor))

    if len(e.terms) != len(e.trace) or any(q != rec.q for q, rec in zip(e.terms, e.trace)):
        problems.append("terms differ from the trace's q values")
    if e.k is not None and (knopf or fs):
        problems.append(f"k {e.k} does not apply to {alg}")
    if e.value != value:
        problems.append(f"value {_tail_text(e.value)} is not the input {_tail_text(value)}")
    if e.p != p:
        problems.append(f"p {e.p and int(e.p)} is not the input's p {p and int(p)}")
    if e.initial != knopf:
        problems.append(f"initial flag {e.initial} does not fit a {alg} run")
    sum_exact = None
    if e.status == TERMINATED:
        sum_exact = stop is None and not num and not y
        if stop is None and not sum_exact:
            tail = _replay_tail(num, y, den, value)
            problems.append(f"terminated run does not sum to its input (tail {_tail_text(tail)})")
    if e.status != TERMINATED and stop is None and not num and not y:
        problems.append(f"status {e.status} but the replayed tail is zero")
    c = e.certificate
    if e.status == CERTIFIED_NONTERMINATING and c is None:
        problems.append(f"status {e.status} without a certificate")
    if c is not None:
        if e.status != CERTIFIED_NONTERMINATING:
            problems.append(f"certificate {c} on a run with status {e.status}")
        if stop is None and c != _replay_tail(num, y, den, value):
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
            k_i = None if knopf and i == 0 else e.trace[i].k
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
