"""The messages that print a torsion class, pinned by fault injection.

A class is a bitmask over catalog ids, and every message prints it as
its sorted id list.  These messages fire only on broken invariants, so
no command line reaches them; each test below breaks one and compares
the whole message.  On typeA <> (1<-2->3) the catalog ids are 0 = 1,
1 = 12, 2 = 132, 3 = 2, 4 = 32, 5 = 3; on typeA < they are 0 = 1, 1 = 12,
2 = 2.
"""

import pytest

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory, TorsionLattice, orders
from greenseq.errors import InvariantViolation, UsageError
from greenseq.green import MGS
from greenseq.verify import _filt_interval_check, _square_check

from conftest import EXAMPLE_QUIVER, ids_of, mask_of
from test_verify import _patch_square_side

A2 = AlgebraSpec.type_a("<")


def _raises(kind, message, call, *args):
    with pytest.raises(kind) as exc:
        call(*args)
    assert str(exc.value) == message


def test_chain_step_that_is_not_a_torsion_class(monkeypatch):
    monkeypatch.setattr(ModuleCategory, "is_torsion_class", lambda self, t: False)
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    _raises(InvariantViolation, "chain step [0, 1, 2, 3, 4, 5] is not a torsion class",
            eng.torsion_chain, MGS(ids_of(eng.cat, ["1", "3", "2"])))


def test_torsion_closure_that_is_not_closed(monkeypatch):
    monkeypatch.setattr(ModuleCategory, "is_torsion_class", lambda self, t: False)
    cat = ModuleCategory(EXAMPLE_QUIVER)
    _raises(InvariantViolation, "torsion closure of [4, 5] is not closed: [4, 5]",
            cat.torsion_closure, mask_of(ids_of(cat, ["32", "3"])))


def test_index_of_a_mask_that_is_no_class():
    cat = ModuleCategory(EXAMPLE_QUIVER)
    lattice = cat.generated_lattice()
    _raises(ValueError, "[2] is not a class of the lattice",
            lattice.index_of, mask_of(ids_of(cat, ["132"])))
    _raises(ValueError, "[0, 3] is not a class of the lattice",
            lattice.index_of, mask_of(ids_of(cat, ["1", "2"])))


def test_filt_interval_violations_list_both_classes(monkeypatch):
    cat = ModuleCategory(A2)
    monkeypatch.setattr(cat, "filt_mask", lambda labels: 0)
    check = _filt_interval_check(cat, cat.torsion_lattice())
    assert not check.passed
    # one entry per failing chain: [0, 1, 2] has two chains down to []
    assert check.detail == {"violations": [
        {"upper": [0], "lower": []}, {"upper": [2], "lower": []},
        {"upper": [0, 1], "lower": []}, {"upper": [0, 1], "lower": [0]},
        {"upper": [0, 1, 2], "lower": []}, {"upper": [0, 1, 2], "lower": []},
        {"upper": [0, 1, 2], "lower": [0]}, {"upper": [0, 1, 2], "lower": [2]},
        {"upper": [0, 1, 2], "lower": [0, 1]}]}


def test_generated_cover_with_several_labels():
    cat = ModuleCategory(A2)
    # every brick's perpendicular read as zero: one cover, three labels
    cat.__dict__["perp_masks"] = dict.fromkeys(cat.bricks, 0)
    _raises(InvariantViolation, "cover below [0, 1, 2] has 3 brick labels: [0, 1, 2]",
            cat.generated_lattice)


def test_oracle_cover_with_several_label_candidates(monkeypatch):
    cat = ModuleCategory(A2)
    monkeypatch.setattr(cat, "interval_members", lambda upper, lower: upper)
    _raises(InvariantViolation, "cover [0, 1] > [0] has 2 label candidates: [0, 1]",
            cat.torsion_lattice)


def test_silting_summand_set_of_the_wrong_size(monkeypatch):
    monkeypatch.setattr(ModuleCategory, "relative_projectives", lambda self, t: 0)
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    _raises(InvariantViolation, "silting summand set of [0] has size 2, expected 3",
            eng.equivalence_classes)


def test_label_that_names_no_cover():
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    _raises(UsageError, "132 labels no cover below [0, 1, 2, 3, 4, 5]",
            eng.class_of, ids_of(eng.cat, ["132"]))
    _raises(UsageError, "1 labels no cover below [0, 1, 2, 4, 5]",
            eng.class_of, ids_of(eng.cat, ["2", "1"]))


def test_polygon_with_three_sides(monkeypatch):
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    eng.equivalence_classes()
    monkeypatch.setattr(TorsionLattice, "index_of", lambda self, t: self.bottom)
    _raises(InvariantViolation, "interval [[], [0, 1, 2, 5]] has 3 sides, not two",
            orders.polygon_deformation_pairs, eng)


def test_square_without_its_second_side():
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    _patch_square_side(eng, lambda rows, k: rows[:k] + rows[k + 1:])
    _raises(InvariantViolation,
            "square swap broke the sequence: below [0, 1, 2, 3, 4, 5], 3 then 1 "
            "are not commuting lattice covers", _square_check, eng)


def test_square_whose_sides_differ():
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))

    def patch(rows, k):
        b, lo, s, e, f, *rest = rows[k]
        rows[k] = (b, lo, s, e, f | 1 << 300, *rest)
        return rows

    _patch_square_side(eng, patch)
    assert _square_check(eng).detail == {"violations": [
        {"class": [0, 1, 2, 3, 4, 5], "swap": ["1", "3"]},
        {"class": [0, 1, 2, 3, 4, 5], "swap": ["3", "1"]}]}


def test_cover_that_is_not_strictly_decreasing():
    cat = ModuleCategory(EXAMPLE_QUIVER)
    lattice = cat.generated_lattice()
    (up, _, lab), *rest = lattice.covers
    cat._generated = lattice._replace(covers=((up, up, lab), *rest))
    _raises(InvariantViolation, "cover [0] > [0] is not strictly decreasing",
            GreenEngine(cat).cover_table)


def test_layer_dimensions_that_depend_on_the_chain(monkeypatch):
    real = GreenEngine._cover_multiplicities

    def patched(self, up, lo, b):
        found = real(self, up, lo, b)
        return found[1:] if up == (1 << len(self.cat.catalog)) - 1 else found

    monkeypatch.setattr(GreenEngine, "_cover_multiplicities", patched)
    _raises(InvariantViolation,
            "layer dimensions of 1 down to [4, 5] depend on the chain: 1 and 0",
            GreenEngine(ModuleCategory(EXAMPLE_QUIVER)).cover_table)
