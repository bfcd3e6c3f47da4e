"""Text and JSON rendering of expansions, division steps and verifications.

JSON reports carry a top-level "schema": 1 and serialize every unbounded
integer as a decimal string so they survive any JSON parser. Serialization
is deterministic: no timestamps, fixed key order.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .division import DivisionStep
from .expansion import _ALGORITHMS, _STATUSES, Expansion, StepRecord, VerificationReport
from .quadratic import QuadElement
from .valuation import PLocal, POS_INF, Prime

SCHEMA = 1

# The values an expand report's enumerated fields can take.
_EXPAND_FIELDS = {
    "command": ("expand",),
    "algorithm": tuple(_ALGORITHMS),
    "status": _STATUSES,
}


def _ord_str(o):
    if o is None:
        return None
    if o == POS_INF:
        return "+inf"
    return str(o)


def _power(p: int, e: int) -> int:
    """p**e for e >= 0, or the ValueError str() would raise where its decimal
    form alone passes the int/str digit limit (0: none), before building it."""
    limit = sys.get_int_max_str_digits()
    if limit and e >= limit / math.log10(p):
        raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion")
    return p**e


def _plocal_str(x: PLocal) -> str:
    """The value of x in lowest terms. Its unit is prime to p, so no gcd is
    needed; zero is unit 0, exp 0 and renders as "0"."""
    if x.exp >= 0:
        return str(x.unit * _power(x.p, x.exp))
    return f"{x.unit}/{_power(x.p, -x.exp)}"


def _ratio_str(num: int, den: int) -> str:
    """num/den for coprime integers, with the sign moved to the numerator and
    no "/1"."""
    if den == 0:
        raise ZeroDivisionError("a term of 0 has no reciprocal")
    if den < 0:
        num, den = -num, -den
    return str(num) if den == 1 else f"{num}/{den}"


def term_display(q, initial: bool = False) -> str:
    """Paper-style rendering of one term: p^j/m when the reciprocal has that
    shape with j >= 0, otherwise the exact rational."""
    if not isinstance(q, PLocal):
        return str(q) if initial else _ratio_str(1, q)
    if initial:
        return _plocal_str(q)
    if q.unit > 0 and q.exp <= 0:
        j = -q.exp
        if j == 0:
            return f"1/{q.unit}"
        if j == 1:
            return f"{int(q.p)}/{q.unit}"
        return f"{int(q.p)}^{j}/{q.unit}"
    if q.exp >= 0:
        return _ratio_str(1, q.unit * _power(q.p, q.exp))
    return _ratio_str(_power(q.p, -q.exp), q.unit)


def expansion_sum_text(e: Expansion) -> str:
    parts = [
        term_display(q, initial=(e.initial and i == 0))
        for i, q in enumerate(e.terms)
    ]
    return " + ".join(parts)


def expansion_text(e: Expansion, verification: "VerificationReport | None" = None) -> str:
    lines = [f"input: {e.value}"]
    head = f"algorithm: {e.algorithm}"
    if e.p is not None:
        head += f"  p: {int(e.p)}"
    if e.k is not None:
        head += f"  k: {e.k}"
    lines.append(head)
    lines.append(f"expansion: {expansion_sum_text(e)}")
    lines.append(f"status: {e.status}")
    if e.certificate is not None:
        lines.append(f"certificate: remainder {e.certificate} is negative")
    if e.trace:
        lines.append("trace:")
        for i, rec in enumerate(e.trace):
            lines.append("  " + _step_text(i, rec, e.initial and i == 0))
    if verification is not None:
        lines.append("verification: " + verification_text(verification))
    return "\n".join(lines)


def _step_text(i: int, rec: StepRecord, initial: bool) -> str:
    bits = [f"step {i}:"]
    if initial:
        bits.append(f"a0={term_display(rec.q, initial=True)}")
    else:
        bits.append(f"q={rec.q}")
        bits.append(f"term={term_display(rec.q)}")
    if rec.k is not None and not initial:
        bits.append(f"k={rec.k}")
    if rec.division is not None:
        d = rec.division
        bits.append(f"r={_plocal_str(d.r)}")
        bits.append(f"rbar={d.rbar}")
        bits.append(f"jump={'yes' if d.jumped else 'no'}")
        bits.append(d.case)
    if rec.remainder is not None:
        bits.append(f"r={rec.remainder}")
    if rec.tail_ord is not None:
        bits.append(f"ord(tail)={rec.tail_ord}")
    return " ".join(bits)


def verification_text(v: VerificationReport) -> str:
    bits = ["ok" if v.ok else "FAILED"]
    if v.sum_exact is not None:
        bits.append(f"sum={'exact' if v.sum_exact else 'WRONG'}")
    if v.strictly_increasing is not None:
        bits.append(f"orders={'increasing' if v.strictly_increasing else 'NOT-INCREASING'}")
    if v.growth_ok is not None:
        bits.append(f"growth={'ok' if v.growth_ok else 'VIOLATED'}")
    for prob in v.problems:
        bits.append(f"[{prob}]")
    return " ".join(bits)


# --- JSON ----------------------------------------------------------------


def _plocal_json(x: "PLocal | None"):
    if x is None:
        return None
    return {"unit": str(x.unit), "exp": str(x.exp), "value": _plocal_str(x)}


def _plocal_from_json(p: "Prime | None", d) -> PLocal:
    if p is None:
        raise ValueError("a Z[1/p] value in a report without a prime")
    return PLocal(p, int(d["unit"]), int(d["exp"]))


def _int_term_from_json(p: "Prime | None", q: str) -> int:
    if p is not None:
        raise ValueError("an integer term in a report with a prime")
    return int(q)


def _trace_division_json(d: "DivisionStep | None"):
    if d is None:
        return None
    return {
        "a": _plocal_json(d.a),
        "b": _plocal_json(d.b),
        "q": _plocal_json(d.q),
        "r": _plocal_json(d.r),
        "rbar": str(d.rbar),
        "jumped": d.jumped,
        "case": d.case,
    }


def _trace_division_from_json(p: Prime, k: "int | None", q, d) -> "DivisionStep | None":
    """The division record d of a step whose term, and so its q, is q."""
    if d is None:
        return None
    return DivisionStep(p, k, _plocal_from_json(p, d["a"]), _plocal_from_json(p, d["b"]), q,
                        _plocal_from_json(p, d["r"]), int(d["rbar"]), bool(d["jumped"]), d["case"])


def _input_json(value):
    if isinstance(value, QuadElement):
        return {
            "type": "quadratic",
            "x": str(value.x),
            "y": str(value.y),
            "d": str(value.D),
            "real_sign": "+" if value.real_sign > 0 else "-",
            "padic_residue": str(value.residue),
        }
    return {"type": "rational", "value": str(value)}


def _input_from_json(p: "Prime | None", d):
    if d["type"] == "quadratic":
        return QuadElement.make(
            Fraction(d["x"]),
            Fraction(d["y"]),
            Fraction(d["d"]),
            d["real_sign"],
            p,
            int(d["padic_residue"]),
        )
    return Fraction(d["value"])


def expansion_json(e: Expansion, verification: "VerificationReport | None" = None) -> dict:
    terms = []
    for i, q in enumerate(e.terms):
        initial = e.initial and i == 0
        terms.append({"initial": initial, "display": term_display(q, initial=initial),
                      **(_plocal_json(q) if isinstance(q, PLocal) else {"q": str(q)})})
    trace = []
    for i, rec in enumerate(e.trace):
        division = _trace_division_json(rec.division)
        entry = {
            "index": str(i),
            "k": None if rec.k is None else str(rec.k),
            "initial": e.initial and i == 0,
            "tail_ord": _ord_str(rec.tail_ord),
            "q": _plocal_json(rec.q) if isinstance(rec.q, PLocal) else str(rec.q),
            "division": division,
            "lhs": None if division is None else division["b"],
            "remainder": None if rec.remainder is None else str(rec.remainder),
        }
        trace.append(entry)
    out = {
        "schema": SCHEMA,
        "command": "expand",
        "algorithm": e.algorithm,
        "p": None if e.p is None else str(int(e.p)),
        "k": None if e.k is None else str(e.k),
        "input": _input_json(e.value),
        "expansion": " + ".join(entry["display"] for entry in terms),
        "terms": terms,
        "status": e.status,
        "certificate": None if e.certificate is None else str(e.certificate),
        "trace": trace,
    }
    if verification is not None:
        out["verification"] = verification_json(verification)
    return out


def expansion_from_json(d: dict):
    """Rebuild (p, value, Expansion) from an expand report. Lossless for every
    field the library produced; an unknown command, algorithm or status
    raises ValueError. Each value is read once: the terms are the trace's q
    values, a division's q is its step's, an index is its position and only
    a Knopfmacher run's first step is initial. The report's other copies are
    checked against the re-rendered report only."""
    if d.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    for key, known in _EXPAND_FIELDS.items():
        if d[key] not in known:
            raise ValueError(f"unknown {key} {d[key]!r}")
    p = None if d["p"] is None else Prime(int(d["p"]))
    k = None if d["k"] is None else int(d["k"])
    value = _input_from_json(p, d["input"])
    initial = _ALGORITHMS[d["algorithm"]].head
    terms, trace = [], []
    for entry in d["trace"]:
        rec_k = None if entry["k"] is None else int(entry["k"])
        q = entry["q"]
        q = _int_term_from_json(p, q) if isinstance(q, str) else _plocal_from_json(p, q)
        terms.append(q)
        trace.append(StepRecord(
            q, rec_k, None if entry["tail_ord"] is None else int(entry["tail_ord"]),
            _trace_division_from_json(p, rec_k, q, entry["division"]),
            None if entry["remainder"] is None else int(entry["remainder"]),
        ))
    certificate = None if d["certificate"] is None else Fraction(d["certificate"])
    return p, value, Expansion(d["algorithm"], value, p, k, tuple(terms), d["status"],
                               tuple(trace), initial, certificate)


def verification_json(v: VerificationReport) -> dict:
    return {
        "ok": v.ok,
        "sum_exact": v.sum_exact,
        "tail_orders": [_ord_str(o) for o in v.tail_orders],
        "strictly_increasing": v.strictly_increasing,
        "growth_ok": v.growth_ok,
        "problems": list(v.problems),
    }


def division_text(d: DivisionStep) -> str:
    term = "no term" if d.q.is_zero() else f"term {term_display(d.q)}"
    lines = [
        "b = a*q - r",
        f"{_plocal_str(d.b)} = {_plocal_str(d.a)} * {_plocal_str(d.q)} - {_plocal_str(d.r)}",
        f"q: {d.q} ({term})",
        f"r: {_plocal_str(d.r)}",
        f"rbar: {d.rbar}  jump: {'yes' if d.jumped else 'no'}  case: {d.case}",
    ]
    return "\n".join(lines)


def division_json(d: DivisionStep) -> dict:
    """The divide report: a, b and r by value, q as in an expand trace."""
    return {
        "schema": SCHEMA,
        "command": "divide",
        "p": str(int(d.p)),
        "k": str(d.k),
        "a": _plocal_str(d.a),
        "b": _plocal_str(d.b),
        "q": _plocal_json(d.q),
        "r": _plocal_str(d.r),
        "rbar": str(d.rbar),
        "jumped": d.jumped,
        "case": d.case,
    }
