"""Seeded inputs for the four benchmark workloads.

Each builder takes the workload seed and a `tiny` flag (used by the
self-check) and returns plain data: library cases or CLI invocations. The
program sees only these generated inputs. Cases marked `seeded=False` are
the same for every seed; their term digest is recorded once for all seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import padic_sylvester as ps
from padic_sylvester import report

from checks import ord_q

ALGS = ("pk", "adaptive", "sylvester", "knopf", "fs")


@dataclass(frozen=True)
class Case:
    """One input and the algorithms run on it."""

    label: str
    value: "Fraction | ps.QuadElement"
    p: "ps.Prime | None"
    k: "int | None"
    algs: tuple
    seeded: bool
    max_terms: int = ps.expansion.DEFAULT_MAX_TERMS
    a: int = 0
    b: int = 0


@dataclass(frozen=True)
class Invocation:
    """One CLI process: argv after `python -m padic_sylvester.cli`, its stdin,
    the exit code a correct program gives, and how to check its stdout."""

    label: str
    argv: tuple
    expect_exit: int = 0
    check: str = "none"
    stdin: str = ""
    seeded: bool = True


def rational_case(label, value, p, k, algs, seeded=True) -> Case:
    value = Fraction(value)
    a, b = ps.value_operands(value)
    return Case(label, value, ps.Prime(p), k, tuple(algs), seeded, a=a, b=b)


def _min_k(p: int, value: Fraction) -> int:
    return max(1, 1 - ord_q(p, value))


def _in_band(case: Case, band: tuple) -> bool:
    """Whether the largest pk term of the case has between band[0] and
    band[1] bits. Runs the division steps itself so that it can stop at the
    first term above the band: the rejected inputs are the expensive ones."""
    p, k = case.p, case.k
    lhs, divisor = ps.PLocal(p, case.b), ps.PLocal(p, case.a)
    largest = 0
    while True:
        step = ps.pk_divide(p, k, divisor, lhs)
        largest = max(largest, step.q.unit.bit_length())
        if largest > band[1]:
            return False
        if step.r.is_zero():
            return largest >= band[0]
        lhs, divisor = lhs * step.q, step.r


# rational-deep: the ladder (10^n+7)/(10^n+9) at p=101, k=1. Rungs above 17
# are run through the division drivers only, because modified_sylvester
# takes ~16 s at n=20. n=18 is left out: its 17 terms reach 436k bits and
# verify alone takes ~10 s, more than a whole pass.
LADDER = (8, 10, 12, 14, 15, 16, 17)
LADDER_DIVISION_ONLY = (20,)
DEEP_PRIMES = (3, 11, 101)
# Seeded near-1 rationals are kept only when pk's largest term has this many
# bits. Without the band one draw in ~40 reaches 436k bits and a minute of
# modified_sylvester, so the pass time would depend on the seed.
DEEP_BAND = (1000, 8000)


def build_deep(seed: int, tiny: bool = False) -> list[Case]:
    rng = random.Random(seed)
    ladder = (8, 10, 16) if tiny else LADDER
    division_only = () if tiny else LADDER_DIVISION_ONLY
    cases = [
        rational_case(f"ladder-1e{n}", Fraction(10**n + 7, 10**n + 9), 101, 1,
                      ("pk", "adaptive", "sylvester"), seeded=False)
        for n in ladder
    ]
    cases += [
        rational_case(f"ladder-1e{n}", Fraction(10**n + 7, 10**n + 9), 101, 1,
                      ("pk", "adaptive"), seeded=False)
        for n in division_only
    ]
    per_prime = 1 if tiny else 6
    for p in DEEP_PRIMES:
        kept = 0
        while kept < per_prime:
            den = rng.randint(10**10, 10**12 - 1)
            if den % p == 0:
                continue
            case = rational_case(f"near1-p{p}", Fraction(den - rng.randint(1, 99), den), p, 1,
                                 ("pk", "adaptive", "sylvester"))
            if _in_band(case, DEEP_BAND):
                cases.append(case)
                kept += 1
    return cases


MANY_PRIMES = (3, 5, 7, 11, 13, 101)


def build_many(seed: int, tiny: bool = False) -> list[Case]:
    rng = random.Random(seed)
    count = 24 if tiny else 2000
    cases = [
        rational_case("knopf-2/5", Fraction(2, 5), 5, 2, ALGS, seeded=False),
        rational_case("readme-473/25", Fraction(473, 25), 3, 1, ALGS, seeded=False),
    ]
    for i in range(count):
        # Primes are cycled, not drawn, so every seed has the same mix. The
        # least valid k keeps terms under ~4k bits; k+1 lets one input in a
        # few thousand reach ~14k bits and dominate the pass. Values stay in
        # (0, 1]: fs_greedy gives a value v about floor(v) terms, so one
        # 9999/1 would add 10^4 steps and megabytes of JSON to its seed.
        p = MANY_PRIMES[i % len(MANY_PRIMES)]
        num, den = sorted((rng.randint(1, 10**4), rng.randint(1, 10**4)))
        value = Fraction(num, den)
        cases.append(rational_case(f"small-p{p}", value, p, _min_k(p, value), ALGS))
    return cases


QUAD_SHARED = (7, 11, 2)  # (p, D, residue of sqrt(D) mod p) shared by half the elements
QUAD_OTHER_PRIMES = (11, 13, 23, 31)
QUAD_TERMS = 12
QUAD_K = 1
QUAD_POOL = Path(__file__).with_name("quad_pool.json")


def _small_fraction(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _quad_case(label, entry, terms, seeded=True) -> Case:
    elem = ps.QuadElement.make(Fraction(entry["x"]), Fraction(entry["y"]), entry["d"],
                               entry["sign"], ps.Prime(entry["p"]), entry["residue"])
    return Case(label, elem, elem.p, QUAD_K, ("sylvester",), seeded, max_terms=terms)


def make_quad_pool(per_prime: int, seed: int = 2015) -> list[dict]:
    """Elements whose QUAD_TERMS-term expansion has the least order growth the
    bound ord(z_{i+1}) >= k + 2*ord(z_i) allows: tail orders 0, 1, 3, 7, ...

    One extra order at any step doubles at every later step and can push
    quad_ord's working precision past the next power of two, so an element
    with one costs two to four times as much. Drawing the workload from this
    pool keeps its pass time independent of the seed. per_prime elements
    come from the shared context and from each other prime, the latter with
    distinct (D, residue). Takes about a minute; the result is quad_pool.json.
    """
    rng = random.Random(seed)
    want = [2**i - 1 for i in range(QUAD_TERMS + 1)]
    pool = []
    for p in (QUAD_SHARED[0],) + QUAD_OTHER_PRIMES:
        prime, seen = ps.Prime(p), set()
        while sum(e["p"] == p for e in pool) < per_prime:
            if p == QUAD_SHARED[0]:
                D, root = QUAD_SHARED[1:]
            else:
                D = rng.randint(2, 60)
                if D % p == 0 or D in seen or any(D % (f * f) == 0 for f in range(2, 8)):
                    continue
                try:
                    root = ps.sqrt_mod_p(prime, D)
                except ps.NotAResidue:
                    continue
                root = root if rng.random() < 0.5 else p - root
            entry = {"p": p, "x": str(_small_fraction(rng)), "y": str(_small_fraction(rng)),
                     "d": D, "sign": rng.choice("+-"), "residue": root}
            case = _quad_case("", entry, QUAD_TERMS)
            if ps.quad_ord(case.value) != 0:
                continue
            e = expand("sylvester", case)
            if ps.verify_expansion(prime, case.value, e).tail_orders == want:
                seen.add(D)
                pool.append(entry)
    return pool


def build_quadratic(seed: int, tiny: bool = False) -> list[Case]:
    rng = random.Random(seed)
    terms = 4 if tiny else QUAD_TERMS
    half = 1 if tiny else 8
    p7, d, res = QUAD_SHARED
    xi = {"p": p7, "x": "0", "y": "1/11", "d": d, "sign": "+", "residue": res}
    cases = [_quad_case("xi-sqrt(1/11)-Q7", xi, terms, seeded=False)]
    pool = json.loads(QUAD_POOL.read_text())
    shared = [e for e in pool if e["p"] == p7]
    cases += [_quad_case(f"shared-p{p7}-D{d}", e, terms) for e in rng.sample(shared, half - 1)]
    for i in range(half):
        p = QUAD_OTHER_PRIMES[i % len(QUAD_OTHER_PRIMES)]
        used = {(c.p, c.value.D) for c in cases}
        entry = rng.choice([e for e in pool if e["p"] == p and (p, e["d"]) not in used])
        cases.append(_quad_case(f"own-p{p}-D{entry['d']}", entry, terms))
    return cases


# The one CLI input whose terms pass 4300 decimal digits: with the current
# library it dies with a ValueError traceback instead of printing.
BIG_VALUE = f"{10**16 + 7}/{10**16 + 9}"
QUAD_FLAGS = ("--sqrt", "11", "--x", "0", "--y", "1/11", "--real-sign", "+",
              "--padic-residue", "2")


def _small_rational(rng, bound=1000) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def build_cli(seed: int, tiny: bool = False) -> list[Invocation]:
    rng = random.Random(seed)
    n_values, n_small = (1, 1) if tiny else (8, 5)
    inv = [
        Invocation("readme-pk-text", ("expand", "--alg", "pk", "--p", "3", "--k", "1",
                                      "--value", "473/25"), check="expand-text", seeded=False),
        Invocation("invalid-prime", ("expand", "--alg", "pk", "--p", "4", "--k", "1",
                                     "--value", "1/3"), expect_exit=1, check="error",
                   seeded=False),
        Invocation("big-1e16-pk", ("expand", "--alg", "pk", "--p", "101", "--k", "1",
                                   "--value", BIG_VALUE), check="expand-text", seeded=False),
    ]
    if not tiny:
        inv += [
            Invocation("readme-pk-json", ("expand", "--alg", "pk", "--p", "3", "--k", "1",
                                          "--value", "473/25", "--output", "json"),
                       check="expand-json", seeded=False),
            Invocation("knopf-2/5", ("expand", "--alg", "knopf", "--p", "5", "--value", "2/5",
                                     "--output", "json"), check="expand-json", seeded=False),
            Invocation("xi-text", ("expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                                   *QUAD_FLAGS, "--max-terms", "4"),
                       check="expand-text", seeded=False),
            Invocation("xi-json", ("expand", "--alg", "sylvester", "--p", "7", "--k", "1",
                                   *QUAD_FLAGS, "--max-terms", "4", "--output", "json"),
                       check="expand-json", seeded=False),
            Invocation("xi-digits", ("digits", "--p", "7", "--count", "12", *QUAD_FLAGS,
                                     "--output", "json"), check="digits-json", seeded=False),
        ]
    primes = (3, 5, 7, 11, 13)
    for i in range(n_values):
        p = primes[i % len(primes)]
        value = _small_rational(rng)
        k = _min_k(p, value)
        for j, alg in enumerate(ALGS):
            out = "json" if (i + j) % 2 == 0 else "text"
            argv = ["expand", "--alg", alg, "--value", str(value), "--output", out]
            if alg != "fs":
                argv += ["--p", str(p)]
            if alg not in ("fs", "knopf"):
                argv += ["--k", str(k)]
            inv.append(Invocation(f"expand-{alg}-{out}", tuple(argv), check=f"expand-{out}"))
    for i in range(n_small):
        p = primes[i % len(primes)]
        value = _small_rational(rng)
        inv.append(Invocation("divide", ("divide", "--p", str(p), "--k", str(1 + i % 3),
                                         "--value", str(value), "--output", "json"),
                              check="divide-json"))
        inv.append(Invocation("digits", ("digits", "--p", str(p), "--count", str(4 + i % 8),
                                         "--value", str(value), "--output", "json"),
                              check="digits-json"))
        # nojump needs k <= -ord(value): put p^j in the denominator.
        j = 1 + i % 2
        nj = Fraction(rng.randint(1, 200) * p + 1, rng.randint(1, 200)) / p**j
        inv.append(Invocation("compare-nojump", ("compare", "--which", "nojump", "--p", str(p),
                                                 "--k", str(-ord_q(p, nj)), "--value", str(nj),
                                                 "--output", "json"), check="compare-json"))
        # scaling needs k <= ord(b) - ord(a).
        a = rng.randint(1, 500) * p + 1
        inv.append(Invocation("compare-scaling", ("compare", "--which", "scaling", "--p", str(p),
                                                  "--k", str(j), "--a", str(a), "--b",
                                                  str(rng.randint(1, 500) * p**j),
                                                  "--output", "json"), check="compare-json"))
        algs = ("pk", "sylvester", "knopf", "fs")
        alg = algs[i % len(algs)]
        e = expand(alg, rational_case("report", value, p, _min_k(p, value), (alg,)))
        inv.append(Invocation(f"verify-{alg}", ("verify", "-", "--output", "json"),
                              stdin=_report_text(e), check="verify-json"))
    return inv


def _report_text(e) -> str:
    p = e.p
    v = ps.verify_expansion(p, e.value, e)
    return json.dumps(report.expansion_json(e, v), indent=2)


def expand(alg: str, case: Case):
    """Run one expansion algorithm on a case; lookups go through the package
    at call time so that installed trace wrappers are used."""
    if alg == "pk":
        return ps.pk_greedy(case.p, case.k, case.a, case.b)
    if alg == "adaptive":
        return ps.adaptive_pk_greedy(case.p, case.k, case.value)
    if alg == "sylvester":
        return ps.modified_sylvester(case.p, case.k, case.value, max_terms=case.max_terms)
    if alg == "knopf":
        return ps.knopfmacher_sylvester(case.p, case.value)
    return ps.fs_greedy(case.a, case.b)


BUILDERS = {
    "rational-deep": build_deep,
    "rational-many": build_many,
    "quadratic": build_quadratic,
    "cli": build_cli,
}
