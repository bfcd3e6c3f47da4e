"""The mutants tests/mutate.py runs: one per check verify_expansion makes,
plus mutants of the code those checks lean on. Each names the tests that
must kill it, run in that order with -x; a mutant that changes no result
carries the reason it survives."""

EXP = "src/padic_sylvester/expansion.py"
DIV = "src/padic_sylvester/division.py"
VAL = "src/padic_sylvester/valuation.py"
KERNEL = "tests/test_kernel.py"
CLI = "tests/test_cli.py"
EXPANSION = "tests/test_expansion.py"
CHECKS = [EXPANSION, CLI, KERNEL]
# The line before the far exponent's stop of the replay.
FAR = '                                    f"from the order {o} to be valid")\n'


def M(name, find, replace, tests=CHECKS, file=EXP, survives=None, timeout=None):
    return {"name": name, "file": file, "find": find, "replace": replace,
            "tests": list(tests), "survives": survives, "timeout": timeout}


MUTANTS = [
    # The division record's own checks.
    M("record-q", "if d.q != rec.q:", "if False:", file=DIV),
    M("record-rbar-range", "if not 0 <= d.rbar < a.unit:", "if False:", file=DIV),
    M("record-k", "if d.k != k:", "if False:", file=DIV),
    M("record-rbar-r", "if PLocal(d.p, d.rbar, a.exp + k) != r:", "if False:", file=DIV),
    M("record-jump", "if d.jumped != (not r.is_zero() and r.exp > a.exp + k):", "if False:",
      file=DIV),
    M("record-case",
      "if d.case != (CASE_1 if not b.is_zero() and k > b.exp - a.exp else CASE_2):",
      "if False:", file=DIV),
    # The one kinds walk (_misfit) over the run, step and record tables:
    # one mutant per kind a table holds, and per kind a row replaces.
    M("ring-prime", "_misfit(alg.runs, e, e.p)", '_misfit(_with(alg.runs, {"p": object}), e, e.p)'),
    M("run-kind-value", '("value", (Fraction, QuadElement))', '("value", object)'),
    M("run-kind-k", '("k", int), ("terms"', '("k", object), ("terms"'),
    M("run-k-sylvester", "_sylvester_rule, steps=_NO_DIVISION)",
      '_sylvester_rule, steps=_NO_DIVISION,\n        runs=_with(_RUN_KINDS, {"k": (int, _NONE)}))'),
    M("run-k-knopf", 'runs=_with(_RUN_KINDS, {"k": _NONE})', 'runs=_with(_RUN_KINDS, {"k": object})'),
    M("run-k-fs", '{"p": _NONE, "k": _NONE}', '{"p": _NONE, "k": object}'),
    M("run-kind-terms", '("terms", (tuple, list))', '("terms", object)'),
    M("run-kind-trace", "walkable = isinstance(trace, (tuple, list)) and all(",
      "walkable = all("),
    M("run-kind-trace-entries", "and all(map(isinstance, trace, repeat(StepRecord)))",
      "and True"),
    M("run-kind-status", '("status", _STATUSES)', '("status", object)'),
    M("walk-statuses", "            if x not in kind:\n", "            if False:\n"),
    M("run-kind-initial", '("initial flag", bool)', '("initial flag", object)'),
    M("run-kind-certificate", '("certificate", (_NONE, Fraction))', '("certificate", object)'),
    M("ring-term", '(("term", PLocal),', '(("term", object),'),
    M("ring-term-fs", '{"term": int,', '{"term": object,'),
    M("ring-plocal", " or kind is PLocal and x.p != p or ", " or "),
    M("int-k", '(("term", PLocal), ("k", int)', '(("term", PLocal), ("k", object)'),
    M("step-k-fs", '"k": _NONE, "tail_ord"', '"k": (int, _NONE), "tail_ord"'),
    M("step-kind-tail-ord", '("tail_ord", (int, _NONE))', '("tail_ord", object)'),
    M("step-tail-ord-fs", '"tail_ord": _NONE,', '"tail_ord": object,'),
    M("step-kind-division", '("division record", DivisionStep)', '("division record", object)'),
    M("step-division-pk", '("division record", DivisionStep)',
      '("division record", (DivisionStep, _NONE))'),
    M("step-division-none", '{"division record": _NONE})', '{"division record": object})'),
    M("step-kind-remainder", '("remainder", _NONE))', '("remainder", object))'),
    M("step-remainder-fs", '"remainder": int}', '"remainder": object}'),
    M("record-prime", " or kind is Prime and x != p:", ":"),
    M("record-kind-p", '(("division p", Prime),', '(("division p", object),'),
    M("record-kind-k", '("division k", int)', '("division k", object)'),
    M("record-kind-plocal", '("division a", PLocal)', '("division a", object)'),
    M("record-int", '("rbar", int)', '("rbar", object)'),
    M("record-kind-jumped", '("jumped", bool)', '("jumped", object)'),
    M("record-kind-case", '("case", str))', '("case", object))'),
    M("run-not-replayed", "    if misfit:  # not replayed", "    if False:  # not replayed"),
    # The replay's use of the walk: a misfit, like a zero term, ends it.
    M("misfit-no-stop", "                problems.append(problem)\n                stop = i\n"
      "                break\n", "                problems.append(problem)\n"),
    # A claimed value in a problem text goes through the bounded formatter.
    M("text-str", "rbar {_tail_text(d.rbar)} is outside", "rbar {d.rbar} is outside", [EXPANSION],
      file=DIV),
    # Each step's checks, in the step loop.
    M("zero-term", "not head and not q and f", "False and f"),
    M("record-call", "problems.extend(_division_record_problems(rec, i))", "pass"),
    M("tail-ord", "if rec.tail_ord != claim:", "if False:"),
    M("k-rule", "if rec.k != k:", "if False:"),
    M("far-exponent", "if _exponent_too_far(q, o, k, num, den, head, budget):", "if False:",
      [KERNEL, CLI]),
    M("first-a-b", "if i == 0 and not head and d.a * den == d.b * num:", "if i == 0 and not head:"),
    M("chain-a", "if i and d.a != num:", "if False:"),
    M("chain-b", "if i and d.b != den:", "if False:"),
    M("chain-r", "if not head and d is not None and d.r != num:", "if False:"),
    M("chain-remainder", "if not head and rec.remainder is not None and rec.remainder != num:",
      "if False:"),
    M("rule-call", "problem = rule and rule(p, i, a, num, q, rec.k)", "problem = None"),
    # Each algorithm's term rule, beside its pick.
    M("rule-fs", "    if not _below(num, a):", "    if False:"),
    M("rule-sylvester", "if not _below(num, a, k):", "if False:"),
    M("rule-knopf", "if q and not (q.exp <= 0 and 0 <= q.unit < p ** (1 - q.exp)):",
      "if False:"),
    # The run's checks.
    M("run-terms", "if [*e.terms] != [rec.q for rec in e.trace]:", "if False:"),
    M("run-value", "if e.value != value:", "if False:"),
    M("run-p", "if e.p != p:\n", "if False:\n"),
    M("run-initial", "e.initial is not alg.head and f", "False and f"),
    M("run-sum", "if stop is None and not sum_exact:", "if False:"),
    M("run-status-zero", "if e.status != TERMINATED and stop is None and not num and not y:",
      "if False:"),
    M("run-no-certificate", "if e.status == CERTIFIED_NONTERMINATING and c is None:",
      "if False:"),
    M("run-certificate-status", "if e.status != CERTIFIED_NONTERMINATING:", "if False:"),
    M("run-certificate-tail",
      "if stop is None and (y or num * c.denominator != den * c.numerator):", "if False:"),
    M("run-certificate-sign", "if not c < 0:", "if False:"),
    # The growth loop's checks.
    M("growth-initial", "if not nxt >= 1:", "if False:", [KERNEL, CLI]),
    M("growth-increasing", "if not nxt > s:", "if False:", [KERNEL, CLI]),
    M("growth-bound", "if s != POS_INF and not nxt >= k_i + 2 * s:",
      "if False:", [KERNEL, CLI]),
    M("growth-head-only", "if alg.head and i == 0:\n", "if i == 0:\n"),
    # The run-wide replay budget and the certificate's cross-multiplication.
    M("budget", "    return wide > budget", "    return False",
      ["tests/test_cli.py::TestVerifyCommand::test_run_wide_budget_fails_at_once"]),
    M("budget-units", "budget = budget or _CLAIM_BITS + sum(", "budget = _CLAIM_BITS + 0 * sum(",
      [KERNEL]),
    M("budget-widened-side",
      "wide = x.unit.bit_length() + gap if gap > 0 else z.unit.bit_length() - gap",
      "wide = max(x.unit.bit_length(), z.unit.bit_length()) + abs(gap)", [CLI]),
    M("certificate-fraction",
      "if stop is None and (y or num * c.denominator != den * c.numerator):",
      "if stop is None and c != _replay_tail(num, y, den, value):", [EXPANSION]),
    # What the checks lean on.
    M("far-exponent-no-stop", FAR + "                    stop = i\n                    break\n", FAR,
      [KERNEL, CLI],
      timeout=60),
    M("knopf-window-no-low-bound", "0 <= q.unit < p ** (1 - q.exp)", "q.unit < p ** (1 - q.exp)"),
    M("knopf-window-exp", "q.exp <= 0 and 0 <= q.unit", "0 <= q.unit",
      survives="for exp >= 1, p**(1 - exp) <= 1 rejects the same terms; the conjunct only "
               "keeps the power an integer"),
    M("exponent-slack-den", "den.unit.bit_length() + _CLAIM_BITS) // bits:",
      "_CLAIM_BITS) // bits:", [KERNEL]),
    M("exponent-slack-case-2", "> max(0, -k - o) + (", "> (", [KERNEL]),
    M("exponent-head", "abs(q.exp - o if head else q.exp + o)", "abs(q.exp + o)", [KERNEL, CLI]),
    M("head-sign", "num -= den * q", "num = den * q - num"),
    M("quadratic-zero-y", "if y is not None and (num or y):", "if y:",
      [EXPANSION + "::TestModifiedSylvester::test_quadratic_with_zero_y_matches_rational",
       CLI + "::TestVerifyCommand::test_valid_report_verifies"]),
    M("den-product-after-final-term", "if num or y or i + 1 < len(trace):", "if True:",
      [KERNEL]),
    M("den-skip-before-later-steps", "if num or y or i + 1 < len(trace):", "if num or y:"),
    M("adaptive-k", "lambda k, o: k if k > -o else 1 - o", "lambda k, o: k"),
    M("below-bits", "return d * bits < b.unit.bit_length() and r.unit * r.p**d < b.unit",
      "return r.unit * r.p**d < b.unit", ["tests/test_kernel.py::TestTermRuleComparison"],
      file=DIV),
    M("below-low", "return 0 <= r < b", "return r < b", file=DIV),
    M("zero-residue", "    if not rbar:\n", "    if False:\n",
      ["tests/test_cli.py::TestZeroResidue"], file=DIV),
    M("ladder-square", "last_power = last_power * last_power * p ** (e - 2 * last)",
      "last_power = last_power * p ** (e - last)", [KERNEL], file=VAL),
    M("render-guard", "if limit and e >= limit / math.log10(p):", "if False:", [CLI, KERNEL],
      file="src/padic_sylvester/report.py"),
    M("inverse-reduce", "    a = _mod(a, modulus)\n", "", [KERNEL, "tests/test_digits.py"],
      file="src/padic_sylvester/digits.py",
      survives="pow and the next level reduce a anyway, so only the speed changes"),
]
