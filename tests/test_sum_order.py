"""Pinned bytes do not depend on the interpreter's ``sum``.

Python 3.12 made ``sum`` over floats compensated, so a float sum that reaches
the built-in gives other last bits there than on 3.10 and 3.11.  Every
amplitude, norm and probability sum goes through ``qsim.fold`` or a column
kernel that adds in the same order.  Here the built-in answers float and
complex input with ``math.fsum``, a rounding rule of its own, and the pinned
ghz and bank cases must not move.
"""
import builtins
import math

import pytest

from anonqnet.election import ExactlyOneProcedure
from anonqnet.topology import catalog

import test_pinned_banks
import test_pinned_branches

BUILTIN_SUM = builtins.sum


def fsum_for_floats(iterable, /, start=0):
    """``sum``, but correctly rounded for float and complex input."""
    items = list(iterable)
    if not any(isinstance(x, (float, complex)) for x in items):
        return BUILTIN_SUM(items, start)
    real = math.fsum([start.real, *(x.real for x in items)])
    if any(isinstance(x, complex) for x in [start, *items]):
        return complex(real, math.fsum([start.imag, *(x.imag for x in items)]))
    return real


@pytest.fixture
def fsum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", fsum_for_floats)


def test_the_replacement_rounds_differently(fsum):
    # the pinned cases below would not notice a replacement that adds alike
    values = [1e16, 1.0, -1e16, 1.0]
    assert sum(values) == 2.0 != BUILTIN_SUM(values)


@pytest.mark.parametrize("name", sorted(test_pinned_banks.PROCEDURES))
def test_bank_reports_do_not_use_the_builtin_sum(name, fsum):
    family, n, n_known = test_pinned_banks.PROCEDURES[name]
    procedure = ExactlyOneProcedure(catalog(family, n), n_known)
    text = "\n".join(test_pinned_banks.report_lines(procedure, n))
    assert test_pinned_banks.hashlib.sha256(text.encode()).hexdigest() \
        == test_pinned_banks.DIGEST[name]


@pytest.mark.parametrize("name", sorted(test_pinned_branches.BRANCH_LIST))
def test_branch_lists_do_not_use_the_builtin_sum(name, fsum):
    result = test_pinned_branches.RUNS[name](all_branches=True)
    rows = test_pinned_branches.branch_rows(result)
    text = "\n".join(f"{outcomes} {format(float(p), '.17g')}" for outcomes, p in rows)
    assert (len(rows), test_pinned_branches.hashlib.sha256(text.encode()).hexdigest()) \
        == test_pinned_branches.BRANCH_LIST[name]
    # the total is a fold too, so it reads the same under either sum
    with pytest.MonkeyPatch.context() as undo:
        undo.setattr(builtins, "sum", BUILTIN_SUM)
        plain = test_pinned_branches.RUNS[name](all_branches=True).total_probability()
    assert result.total_probability() == plain
