"""Torsion submodules, the torsion predicates and the HN layers of the
lattice's covers, read off the per-module bitmask records and the
per-class torsion rows, against the frozenset scans they replace.

The oracles below are the per-(module, class) candidate scan for t_T(x),
the per-cover layer built from it, and the frozenset versions of
`is_torsion_class`, `relative_simples` and `filt_mask`.  They take each
class as the frozenset of its members, read off its bitmask.
"""

import pytest

from greenseq import AlgebraSpec, ModuleCategory, ModuleSum
from greenseq.errors import InvariantViolation
from greenseq.green import HNLayer, HNResult
from greenseq.modcat import ZERO, SesRecord

from conftest import category_for, engine_for, full_battery, ids_of, mask_of, members

FIVE_VERTICES = AlgebraSpec.type_a("<<<<")
ROW_SPECS = full_battery() + [FIVE_VERTICES, AlgebraSpec.type_a("<><>")]


def oracle_torsion_sub(cat, i, tors):
    """The largest candidate submodule of i lying in the class: zero, i
    itself when it is a member, or the sub of an SES record of i."""
    candidates = [(ZERO, ModuleSum((i,)))]
    if i in tors:
        candidates.append((ModuleSum((i,)), ZERO))
    for rec in cat.backend.records(i):
        if set(rec.sub.ids) <= tors:
            candidates.append((rec.sub, rec.quot))
    best = max(candidates, key=lambda sq: cat.dim_sum(sq[0]))
    top = [sq for sq in candidates if cat.dim_sum(sq[0]) == cat.dim_sum(best[0])]
    assert len({sq[0] for sq in top}) == 1
    bestvec = cat.dimvec_sum(best[0])
    for sub, _ in candidates:
        assert all(x <= y for x, y in zip(cat.dimvec_sum(sub), bestvec))
    return best


def oracle_cover_layer(cat, x, up, lo, b):
    """t_up(x)/t_lo(x) as (factor ids, multiplicity of b), or None."""
    sub, _ = oracle_torsion_sub(cat, x, up)
    ids = tuple(sorted(i for y in sub.ids
                       for i in oracle_torsion_sub(cat, y, lo)[1].ids))
    if not ids:
        return None
    assert set(ids) <= oracle_filt(cat, (b,))
    fdim, bdim = cat.dim_sum(ModuleSum(ids)), cat.indec(b).dim
    assert fdim % bdim == 0
    return ids, fdim // bdim


def oracle_hn(cat, module, g):
    """The HN filtration from the oracle layers along the closure chain."""
    msum = module if isinstance(module, ModuleSum) else ModuleSum((module,))
    chain = [members(cat.torsion_closure(mask_of(g.bricks[i:])))
             for i in range(len(g.bricks) + 1)]
    layers = []
    for pos, (up, lo, b) in enumerate(zip(chain, chain[1:], g.bricks), 1):
        parts = [oracle_cover_layer(cat, x, up, lo, b) for x in msum.ids]
        parts = [p for p in parts if p is not None]
        if parts:
            layers.append(HNLayer(
                position=pos, brick=b,
                factor=ModuleSum(tuple(i for ids, _ in parts for i in ids)),
                multiplicity=sum(mult for _, mult in parts)))
    return HNResult(layers=tuple(layers))


def oracle_is_torsion_class(cat, members):
    members = frozenset(members)
    for i in members:
        for q in cat.indec_quotients(i):
            if not set(q.ids) <= members:
                return False
    for i in range(len(cat.catalog)):
        if i not in members:
            for rec in cat.backend.records(i):
                if set(rec.sub.ids) <= members and set(rec.quot.ids) <= members:
                    return False
    return True


def oracle_relative_simples(cat, tors):
    return frozenset(b for b in tors
                     if not any(set(rec.sub.ids) <= tors
                                for rec in cat.backend.records(b)))


def oracle_filt(cat, brick_ids):
    key = frozenset(brick_ids)
    members = set(key)
    changed = True
    while changed:
        changed = False
        for i in range(len(cat.catalog)):
            if i not in members and any(
                    set(rec.quot.ids) <= key and set(rec.sub.ids) <= members
                    for rec in cat.backend.records(i)):
                members.add(i)
                changed = True
    return frozenset(members)


def _classes(spec):
    cat = category_for(spec)
    return cat, cat.generated_lattice().classes


# -- differential tests ----------------------------------------------------------

@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.label())
def test_torsion_rows_match_the_candidate_scan(spec):
    cat, classes = _classes(spec)
    for tors in classes:
        for x in range(len(cat.catalog)):
            assert (cat.torsion_sub_with_quotient(x, tors)
                    == oracle_torsion_sub(cat, x, members(tors)))


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.label())
def test_cover_layers_match_the_per_cover_oracle(spec):
    cat, eng = category_for(spec), engine_for(spec)
    lattice = cat.generated_lattice()
    tors = lattice.classes
    for up, lo, b in lattice.covers:
        layers = [oracle_cover_layer(cat, x, members(tors[up]), members(tors[lo]), b)
                  for x in range(len(cat.catalog))]
        assert eng._cover_multiplicities(tors[up], tors[lo], b) == tuple(
            (x, layer[1]) for x, layer in enumerate(layers) if layer)
        for x, layer in enumerate(layers):
            if layer:
                assert eng._layer_factor(x, tors[up], tors[lo]) == layer[0]


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.label())
def test_hn_along_first_and_last_sequence_matches_oracle(spec):
    cat, eng = category_for(spec), engine_for(spec)
    count = cat.generated_lattice().maximal_chain_count()
    everything = ModuleSum(tuple(range(len(cat.catalog))))
    for g in {eng.sequence_at(0), eng.sequence_at(count - 1)}:
        for module in (*range(len(cat.catalog)), everything):
            assert eng.hn_filtration(module, g) == oracle_hn(cat, module, g)


@pytest.mark.parametrize("spec", full_battery() + [FIVE_VERTICES],
                         ids=lambda s: s.label())
def test_torsion_predicates_match_frozenset_oracles(spec):
    cat, classes = _classes(spec)
    size = len(cat.catalog)
    lattice = cat.generated_lattice()
    for k, tors in enumerate(classes):
        # the class, and each set one member away from it
        for t in (tors, *(tors ^ 1 << x for x in range(size))):
            assert cat.is_torsion_class(t) == oracle_is_torsion_class(cat, members(t))
        simples = members(cat.relative_simples(tors))
        assert simples == oracle_relative_simples(cat, members(tors))
        labels = frozenset(b for _, b in lattice.lower_covers.get(k, ()))
        inside = frozenset(b for b in cat.bricks if tors >> b & 1)
        for bricks in (simples, labels, inside):
            assert members(cat.filt_mask(mask_of(bricks))) == oracle_filt(cat, bricks)


def test_rows_are_one_per_class_and_share_the_records():
    cat, classes = _classes(AlgebraSpec.type_a("<>"))
    for tors in classes:
        row = cat.torsion_row(tors)
        assert cat.torsion_row(tors) is row
        for x, entry in enumerate(row):
            assert any(entry is c for c in cat.sub_records[x])
            assert cat.torsion_sub_with_quotient(x, tors) is entry.pair


# -- the checks still fire ---------------------------------------------------------

def _inject(monkeypatch, spec, middle, sub, quot):
    """A fresh category whose backend lists one more SES record of the
    module named middle, with the sub and quotient named."""
    cat = ModuleCategory(spec)
    real = cat.backend.records
    x, s, q = ids_of(cat, [middle, sub, quot])
    extra = (SesRecord(middle=x, sub=ModuleSum((s,)), quot=ModuleSum((q,))),)
    monkeypatch.setattr(cat.backend, "records",
                        lambda i: real(i) + extra if i == x else real(i))
    return cat


def test_second_sub_of_maximal_dimension_raises(monkeypatch):
    cat = _inject(monkeypatch, AlgebraSpec.type_a("<"), "12", "1", "2")
    # 2 and the injected 1 both lie in {1, 2} and have dimension 1
    tors = mask_of(ids_of(cat, ["1", "2"]))
    with pytest.raises(InvariantViolation,
                       match=r"torsion submodule of 12 is not unique: \['2', '1'\]"):
        cat.torsion_sub_with_quotient(cat.resolve_token("12"), tors)


def test_sub_outside_the_torsion_submodule_raises(monkeypatch):
    cat = _inject(monkeypatch, AlgebraSpec.type_a("<>"), "132", "1", "32")
    # 32 is the largest sub of 132 in the class, and the injected 1 lies
    # in the class but not in 32
    tors = mask_of(ids_of(cat, ["32", "3", "1"]))
    with pytest.raises(InvariantViolation,
                       match="torsion submodule of 132 fails to dominate 1"):
        cat.torsion_sub_with_quotient(cat.resolve_token("132"), tors)
