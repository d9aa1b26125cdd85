"""The cost-budget table (`budgets.py`): one test per row."""

import importlib
from collections import Counter

import numpy as np
import pytest

from gfusion import cli

from budgets import CALLS, INSTANCES, NAMED, ROWS
from conftest import recorded, resolve


def routine(name):
    """The recorder's name of a routine a row names: a dotted extra
    target's name below its module."""
    return resolve(name)[2] if "." in name else name


def run(row):
    """(the calls recorded, the instance, what the call returned) of a row."""
    x = INSTANCES[row.instance](row.control)
    if row.order != "first":  # the warm-up runs under the other pair of the kind
        cp = getattr(x, "cp", None)
        x.cp = getattr(x, "other", None)
        CALLS[row.order](x)
        x.cp = cp
    with recorded(*[name for name in (*row.counts, *row.shapes) if "." in name]) as calls:
        result = CALLS[row.call](x)
    return calls, x, result


def same(a, b):
    """a is b up to rounding."""
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-10,
                                              atol=1e-12 * np.abs(b).max(initial=0.0))


def inputs_equal(calls, x, name):
    """{routine: the number of recorded inputs equal to the operator `name`
    of NAMED, or to any operator of its list}."""
    op = NAMED[name](x)
    ops = op if isinstance(op, list) else [op]
    return dict(Counter(c.routine for c in calls
                        if c.input is not None and any(same(c.input, o) for o in ops)))


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_budget(row):
    calls, x, result = run(row)
    counts = {routine(name): n for name, n in row.counts.items() if n}
    assert dict(Counter(c.routine for c in calls)) == counts
    for name, side in row.largest.items():
        sides = [max(c.shape, default=0) for c in calls if c.routine == name]
        assert max(sides, default=0) <= side, name
    for name, want in row.equal.items():
        assert inputs_equal(calls, x, name) == {routine(r): n for r, n in want.items()}, name
    for name, shapes in row.shapes.items():
        assert sorted(c.shape for c in calls if c.routine == routine(name)) == shapes, name
    if row.holds is not None:
        assert row.holds(result)


def test_every_command_has_a_row():
    """The library function each CLI command calls heads some row."""
    heads = {name for row in ROWS for name in row.call.split(", ")}
    for words, command in cli.COMMANDS.items():
        module = importlib.import_module(f"gfusion.{command.module}")
        called = {name for name in command.call.__code__.co_names if hasattr(module, name)}
        assert called & heads, words
