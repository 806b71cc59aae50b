"""Verification suites: how `all` composes the others, and checks that
run instead of skipping."""

import pytest

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory
from greenseq import orders
from greenseq.verify import LATTICE_CHECKS, _filt_interval_check, run_suite

from conftest import category_for


def test_all_suite_builds_each_order_once(monkeypatch):
    cat = ModuleCategory(AlgebraSpec.nakayama([3, 2, 1]))
    eng = GreenEngine(cat)
    built = []
    real = orders.build_order

    def counting(tag, engine):
        built.append(tag)
        return real(tag, engine)

    monkeypatch.setattr(orders, "build_order", counting)
    run_suite("all", cat, eng)
    assert sorted(built) == ["brick", "hn", "pentagon", "summand"]


@pytest.mark.parametrize("spec", [AlgebraSpec.nakayama([3, 2, 1]),
                                  AlgebraSpec.nakayama([2, 2], cyclic=True),
                                  AlgebraSpec.type_a("<>")],
                         ids=lambda s: s.label())
def test_all_suite_is_its_parts_in_order(spec):
    cat = ModuleCategory(spec)
    eng = GreenEngine(cat)
    names = ["theoremA", "theoremB"]
    if spec.is_nakayama:
        names.append("theoremC")
    names.append("lemmas")
    parts = [c.to_dict() for name in names for c in run_suite(name, cat, eng)]
    assert [c.to_dict() for c in run_suite("all", cat, eng)] == parts


def test_filt_interval_check_runs_beyond_twenty_classes():
    cat = category_for(AlgebraSpec.type_a("<><"))
    lattice = cat.torsion_lattice()
    assert len(lattice.classes) == 42
    check = _filt_interval_check(cat, lattice)
    assert check.passed
    assert check.detail == {"violations": []}


def test_gated_lemmas_report_each_lattice_check_as_skipped():
    def lemmas(**gate):
        cat = ModuleCategory(AlgebraSpec.type_a("<>"))
        return run_suite("lemmas", cat, GreenEngine(cat), **gate)

    gated = lemmas(subset_gate=4)
    full = lemmas()
    assert [c.name for c in gated] == [c.name for c in full]
    for before, after in zip(full, gated):
        if after.name in LATTICE_CHECKS:
            assert after.passed
            assert "gate of 4" in after.detail["skipped"]
        else:
            assert after.to_dict() == before.to_dict()
    assert sum(c.name in LATTICE_CHECKS for c in full) == len(LATTICE_CHECKS)


def test_gated_lemmas_skip_after_an_ungated_lattice_call():
    # the lattice cached by the first call must not slip past the gate
    cat = ModuleCategory(AlgebraSpec.type_a("<>"))
    cat.torsion_lattice()
    checks = run_suite("lemmas", cat, GreenEngine(cat), subset_gate=4)
    skipped = [c.name for c in checks if "skipped" in c.detail]
    assert skipped == list(LATTICE_CHECKS)
    assert all("gate of 4" in c.detail["skipped"]
               for c in checks if c.name in LATTICE_CHECKS)
