"""Span tracing of padic_sylvester's public functions, from outside the library.

While a Tracer is installed, each traced function is replaced by a wrapper at
every name that refers to it inside the padic_sylvester package (module
attributes and class attributes), so calls between modules are recorded too.
Nothing outside this process is touched and `uninstall` restores the original
objects.

Spans live in memory as four parallel lists (name, start, end, parent) and
are summarised once a pass is over; the wrapper itself does only list appends
and clock reads.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

# Span name -> (module, attribute path). "Class.method" paths wrap a method.
TARGETS = {
    "valuation.ord_p": ("valuation", "ord_p"),
    "valuation.from_fraction": ("valuation", "PLocal.from_fraction"),
    "valuation.PLocal.__init__": ("valuation", "PLocal.__init__"),
    "valuation.PLocal.__add__": ("valuation", "PLocal.__add__"),
    "valuation.PLocal.__mul__": ("valuation", "PLocal.__mul__"),
    "valuation.PLocal.__truediv__": ("valuation", "PLocal.__truediv__"),
    "digits.frac_part_k": ("digits", "frac_part_k"),
    "digits.hensel_sqrt": ("digits", "hensel_sqrt"),
    "quadratic.quad_ord": ("quadratic", "quad_ord"),
    "quadratic.quad_frac_part_k": ("quadratic", "quad_frac_part_k"),
    "quadratic.real_ceil": ("quadratic", "real_ceil"),
    "quadratic.QuadElement.__mul__": ("quadratic", "QuadElement.__mul__"),
    "quadratic.QuadElement.__sub__": ("quadratic", "QuadElement.__sub__"),
    "quadratic.QuadElement.inv": ("quadratic", "QuadElement.inv"),
    "division.pk_divide": ("division", "pk_divide"),
    "expansion.pk": ("expansion", "pk_greedy"),
    "expansion.adaptive": ("expansion", "adaptive_pk_greedy"),
    "expansion.sylvester": ("expansion", "modified_sylvester"),
    "expansion.knopf": ("expansion", "knopfmacher_sylvester"),
    "expansion.fs": ("expansion", "fs_greedy"),
    "verify": ("expansion", "verify_expansion"),
    "report.expansion_json": ("report", "expansion_json"),
    "report.expansion_from_json": ("report", "expansion_from_json"),
    "report.expansion_text": ("report", "expansion_text"),
    "cli.main": ("cli", "main"),
}

# Self times summed into one per-layer metric.
GROUPS = {
    "valuation.plocal_arith": (
        "valuation.PLocal.__init__",
        "valuation.PLocal.__add__",
        "valuation.PLocal.__mul__",
        "valuation.PLocal.__truediv__",
    ),
    "quadratic.arith": (
        "quadratic.QuadElement.__mul__",
        "quadratic.QuadElement.__sub__",
        "quadratic.QuadElement.inv",
    ),
}


def _window(counts, args, result):
    # frac_part_k(p, k, r): the result's exponent is ord_p(r), because the
    # window's first digit is nonzero, so k - exp is the window width.
    if result.unit:
        counts["digits.window_digits"] += args[1] - result.exp


def _hensel(counts, args, result):
    counts["digits.hensel_digits"] += args[3]


def _operands(counts, args, result):
    bits = max(result.a.unit.bit_length(), result.b.unit.bit_length())
    if bits > counts["division.max_operand_bits"]:
        counts["division.max_operand_bits"] = bits


HOOKS = {
    "digits.frac_part_k": _window,
    "digits.hensel_sqrt": _hensel,
    "division.pk_divide": _operands,
}


class Tracer:
    """Records one span per call of every function in TARGETS."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for spans in (self.names, self.starts, self.ends, self.parents):
            spans.clear()
        self.counts.clear()
        self.errors.clear()

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, errors = self._stack, self.counts, self.errors
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                errors[name] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        package = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name == "padic_sylvester" or mod_name.startswith("padic_sylvester.")
        ]
        for name, (module, path) in TARGETS.items():
            owner = sys.modules[f"padic_sylvester.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            if isinstance(raw, classmethod):
                self._replace(owner, attr, raw, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapper = self._wrap(name, raw)
            if cls_path:
                self._replace(owner, attr, raw, wrapper)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._replace(mod, key, raw, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name call counts and self times (seconds) of the recorded spans,
        the grouped self times, and the span-derived counts."""
        child = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        hensel_in_quad_ord = 0
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child[i]
            parent = self.parents[i]
            if name == "digits.hensel_sqrt" and parent >= 0 \
                    and self.names[parent] == "quadratic.quad_ord":
                hensel_in_quad_ord += 1
        out = {f"{name}.calls": calls[name] for name in TARGETS}
        out.update({f"{name}.self_s": self_ns[name] / 1e9 for name in TARGETS})
        for group, members in GROUPS.items():
            out[f"{group}.self_s"] = sum(self_ns[m] for m in members) / 1e9
        out["quadratic.quad_ord.hensel_calls"] = hensel_in_quad_ord
        out["trace.spans"] = len(self.names)
        for key in ("digits.window_digits", "digits.hensel_digits", "division.max_operand_bits"):
            out[key] = self.counts[key]
        out["report.failed"] = sum(
            self.errors[n] for n in ("report.expansion_json", "report.expansion_from_json",
                                     "report.expansion_text")
        )
        return out

    def dump(self, path) -> None:
        """Write the recorded spans, gzipped, as tab-separated name, start,
        end, parent (the index of the parent span's row, -1 for none)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("\t".join(map(str, row)) + "\n")
