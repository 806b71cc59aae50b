"""Per-cover invariants against the per-sequence code they replace.

Torsion chains, HN layers, stable-factor tables and exchange pairs are
read from tables filled once per torsion class or lattice cover.  The
oracles below recompute them per sequence: each chain step as the torsion
closure of the remaining bricks, and each HN filtration by peeling one
torsion submodule at a time.
"""

import re
from collections import Counter

import pytest

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory, ModuleSum
from greenseq.cli import main
from greenseq.errors import InvariantViolation
from greenseq.green import MGS, ExchangePair, HNLayer, HNResult
from greenseq.modcat import _bits
from greenseq.typea import TypeABackend

from conftest import category_for, engine_for, full_battery, ids_of, mask_of, members

FIVE_VERTICES = AlgebraSpec.type_a("<<<<")
PAIR_SUM_SPECS = [AlgebraSpec.type_a("<><"), AlgebraSpec.nakayama([3, 3, 2, 1])]


def closure_chain(cat, g):
    """Oracle: T_i is the torsion closure of B_{i+1}, ..., B_r."""
    return [cat.torsion_closure(mask_of(g.bricks[i:]))
            for i in range(len(g.bricks) + 1)]


def peel_hn(cat, module, g, chain):
    """Oracle: the HN filtration by recursion over torsion submodules.  An
    indecomposable x lying in T_j but not in T_{j+1} puts x/t_{j+1}(x) into
    layer j+1 and peels each summand of t_{j+1}(x) in turn."""
    msum = module if isinstance(module, ModuleSum) else ModuleSum((module,))
    steps: dict[int, list[int]] = {}

    def peel(x):
        j = max(k for k, tors in enumerate(chain) if tors >> x & 1)
        sub, quot = cat.torsion_row(chain[j + 1])[x].pair
        steps.setdefault(j + 1, []).extend(quot.ids)
        for y in sub.ids:
            peel(y)

    for x in msum.ids:
        peel(x)
    layers = []
    for pos in sorted(steps):
        factor = ModuleSum(tuple(steps[pos]))
        brick = g.bricks[pos - 1]
        assert set(factor.ids) <= members(cat.filt_mask(1 << brick))
        fdim, bdim = cat.dim_sum(factor), cat.catalog[brick].dim
        assert fdim % bdim == 0
        layers.append(HNLayer(position=pos, brick=brick, factor=factor,
                              multiplicity=fdim // bdim))
    return HNResult(layers=tuple(layers))


def peel_stable_factor_function(cat, g, chain):
    table = {}
    for x in range(len(cat.catalog)):
        counts = Counter()
        for layer in peel_hn(cat, x, g, chain).layers:
            counts[layer.brick] += layer.multiplicity
        table[x] = tuple(sorted(counts.items()))
    return table


def step_exchange_pairs(eng, chain):
    """Oracle: the summand that leaves and the one that enters at each step."""
    pairs, summands = [], eng.cover_table().summands
    for up, lo in zip(chain, chain[1:]):
        su, sl = eng.silting_summands(up), eng.silting_summands(lo)
        (gone,), (came,) = _bits(su & ~sl), _bits(sl & ~su)
        pairs.append(ExchangePair(summands[gone], summands[came]))
    return tuple(pairs)


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_cover_invariants_match_per_sequence_oracles(spec):
    cat, eng = category_for(spec), engine_for(spec)
    for g in eng.enumerate_mgs():
        chain = closure_chain(cat, g)
        assert eng.torsion_chain(g) == chain
        for x in range(len(cat.catalog)):
            assert eng.hn_filtration(x, g) == peel_hn(cat, x, g, chain)
        assert eng.stable_factor_function(g) == peel_stable_factor_function(
            cat, g, chain)
        assert eng.exchange_pairs(g) == step_exchange_pairs(eng, chain)


@pytest.mark.parametrize("spec", PAIR_SUM_SPECS, ids=lambda s: s.label())
def test_hn_of_pair_sums_matches_peeling(spec):
    cat, eng = category_for(spec), engine_for(spec)
    size = len(cat.catalog)
    for g in eng.enumerate_mgs():
        chain = closure_chain(cat, g)
        for x in range(size):
            for y in range(x, size):
                m = ModuleSum((x, y))
                assert eng.hn_filtration(m, g) == peel_hn(cat, m, g, chain)


def test_five_vertex_chains_and_stable_factors_match_oracles():
    cat, eng = category_for(FIVE_VERTICES), engine_for(FIVE_VERTICES)
    all_mgs = eng.enumerate_mgs()
    assert len(all_mgs) == 2981
    for g in all_mgs:
        chain = closure_chain(cat, g)
        assert eng.torsion_chain(g) == chain
        assert eng.stable_factor_function(g) == peel_stable_factor_function(
            cat, g, chain)


def test_chain_classes_are_shared(monkeypatch):
    """Each distinct class of the chains is checked once, whatever number
    of chains pass through it."""
    cat, eng = _fresh()
    checked = []
    real = ModuleCategory.is_torsion_class
    monkeypatch.setattr(ModuleCategory, "is_torsion_class",
                        lambda self, t: checked.append(t) or real(self, t))
    chains = [eng.torsion_chain(g) for g in eng.enumerate_mgs()]
    assert sorted(checked) == sorted({t for chain in chains for t in chain})
    assert sum(map(len, chains)) > len(checked)


# -- the checks still fire ---------------------------------------------------

def _fresh(spec=AlgebraSpec.type_a("<>")):
    cat = ModuleCategory(spec)
    return cat, GreenEngine(cat)


def test_chain_step_that_is_not_a_torsion_class_raises(monkeypatch):
    cat, eng = _fresh()
    monkeypatch.setattr(ModuleCategory, "is_torsion_class",
                        lambda self, t: False)
    # the first class checked is the whole category, ids 0 to 5
    with pytest.raises(InvariantViolation, match=re.escape(
            "chain step [0, 1, 2, 3, 4, 5] is not a torsion class")):
        eng.torsion_chain(MGS(ids_of(cat, ["1", "3", "2"])))


def test_chain_label_outside_its_class_raises():
    cat, eng = _fresh()
    # 1 leaves the chain at the first step, so it cannot label the third
    with pytest.raises(InvariantViolation, match="outside the torsion class"):
        eng.torsion_chain(MGS(ids_of(cat, ["1", "3", "1"])))


def test_layer_outside_the_filtration_category_raises(monkeypatch):
    cat, eng = _fresh()
    monkeypatch.setattr(ModuleCategory, "filt_mask",
                        lambda self, bricks: 0)
    with pytest.raises(InvariantViolation, match="filtration category"):
        eng.stable_factor_function(MGS(ids_of(cat, ["1", "3", "2"])))


def test_hn_by_brick_list_never_generates_the_lattice(monkeypatch, tmp_path,
                                                      capsys):
    def refuse(self):
        raise AssertionError("torsion lattice generated")

    monkeypatch.setattr(ModuleCategory, "generated_lattice", refuse)
    path = tmp_path / "a5.json"
    path.write_text('{"type": "typeA", "orientation": "<<<<"}\n')
    assert main(["hn", str(path), "--mgs", "1,2,3,4,5",
                 "--module", "12345+23"]) == 0
    assert '"stable_factors"' in capsys.readouterr().out


def test_square_swap_asks_ext_once_per_brick_pair(monkeypatch):
    # every swap reads the one Ext table, which the backend builds once
    cat, eng = _fresh(AlgebraSpec.type_a("<><"))
    built = []
    real = TypeABackend.ext1_table

    def counting(self, hom):
        built.append(hom)
        return real(self, hom)

    monkeypatch.setattr(TypeABackend, "ext1_table", counting)
    swaps = [eng.square_swap(g, i) for g in eng.enumerate_mgs()
             for i in range(1, len(g.bricks))]
    assert any(swaps)
    assert len(built) == 1
