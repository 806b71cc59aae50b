"""The names that the benchmark's tracer wraps exist where it reads them.

`perfbench/tracing.py` replaces each (module, owner, attribute) of its
`WRAPPED` table by a traced wrapper, and `Tracer.install` takes the
attribute from the owner's `__dict__`, so deleting or renaming one of
them in greenseq breaks `perfbench/run.py --trace 1`.  The tracing module
is run from its file (`runpy.run_path`, which writes no bytecode) and
only read.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WRAPPED = [entry[:3] for entry in runpy.run_path(str(TRACING))["WRAPPED"]]


def test_the_table_is_read():
    assert len(WRAPPED) > 20
    assert ("green", "GreenEngine", "equivalence_classes") in WRAPPED


@pytest.mark.parametrize("module, owner, attr", WRAPPED,
                         ids=[f"{m}.{o}.{a}" if o else f"{m}.{a}" for m, o, a in WRAPPED])
def test_each_traced_name_is_in_its_owner_dict(module, owner, attr):
    target = importlib.import_module(f"greenseq.{module}")
    if owner is not None:
        target = vars(target)[owner]
    assert attr in vars(target)
