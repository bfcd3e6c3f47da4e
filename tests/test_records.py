"""The library's records are immutable named tuples: their fields, defaults
and reprs are part of the API, and importing the CLI loads no `dataclasses`
(its import pulls in inspect, ast, dis and tokenize at every start-up)."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padic_sylvester
from padic_sylvester import (
    DigitExpansion,
    DivisionStep,
    Expansion,
    NoJumpCorrespondence,
    PLocal,
    Prime,
    StepRecord,
    VerificationReport,
    check_nojump_correspondence,
    digits_of,
    pk_greedy,
    verify_expansion,
)

SRC = str(Path(padic_sylvester.__file__).resolve().parents[1])
P3 = Prime(3)

FIELDS = {
    DigitExpansion: (("p", "start", "digits"), {}),
    DivisionStep: (("p", "k", "a", "b", "q", "r", "rbar", "jumped", "case"), {}),
    StepRecord: (
        ("q", "k", "tail_ord", "division", "remainder"),
        {"k": None, "tail_ord": None, "division": None, "remainder": None},
    ),
    Expansion: (
        ("algorithm", "value", "p", "k", "terms", "status", "trace", "initial", "certificate"),
        {"trace": (), "initial": False, "certificate": None},
    ),
    NoJumpCorrespondence: (("verdict", "padic", "classical", "jumps"), {}),
    VerificationReport: (
        ("ok", "sum_exact", "tail_orders", "strictly_increasing", "growth_ok", "problems"),
        {},
    ),
}


def _pk_473_25():
    return pk_greedy(P3, 1, PLocal(P3, 473), PLocal(P3, 25))


def _records():
    e = _pk_473_25()
    return {
        DigitExpansion: digits_of(P3, Fraction(4, 3), 2),
        DivisionStep: e.trace[1].division,
        StepRecord: e.trace[1],
        Expansion: e,
        NoJumpCorrespondence: check_nojump_correspondence(Prime(11), 1, 5, 121),
        VerificationReport: verify_expansion(P3, Fraction(473, 25), e),
    }


def test_cli_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         "import padic_sylvester.cli, sys; sys.exit('dataclasses' in sys.modules)"],
        env=env, timeout=60,
    )
    assert done.returncode == 0


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_and_defaults(cls):
    fields, defaults = FIELDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults


def test_division_step_and_step_record_repr():
    rec = _pk_473_25().trace[1]
    division = (
        "DivisionStep(p=Prime(3), k=1, a=PLocal(p=3, unit=307, exp=1), "
        "b=PLocal(p=3, unit=50, exp=0), q=PLocal(p=3, unit=5, exp=-1), "
        "r=PLocal(p=3, unit=55, exp=3), rbar=165, jumped=True, case='case1')"
    )
    assert repr(rec.division) == division
    assert repr(rec) == (
        f"StepRecord(q=PLocal(p=3, unit=5, exp=-1), k=1, tail_ord=1, "
        f"division={division}, remainder=None)"
    )


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    record = _records()[cls]
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))
    assert record._replace(**{cls._fields[0]: None})[0] is None
