"""Nakayama backend: catalog construction, submodule chains, syzygies."""

from itertools import combinations

import pytest

from greenseq import AlgebraSpec

from conftest import category_for, linear_nakayama_battery, CYCLIC_BATTERY


def cat_for(kupisch, cyclic=False):
    return category_for(AlgebraSpec.nakayama(kupisch, cyclic=cyclic))


def test_a2_catalog():
    cat = cat_for([2, 1])
    assert [m.display for m in cat.catalog] == ["1", "12", "2"]
    assert [m.dimvec for m in cat.catalog] == [(1, 0), (1, 1), (0, 1)]


def test_linear_a3_catalog_size():
    cat = cat_for([3, 2, 1])
    assert len(cat.catalog) == 6


def test_cyclic_2_2_catalog():
    cat = cat_for([2, 2], cyclic=True)
    assert [m.descriptor for m in cat.catalog] == [
        ("U", 1, 1), ("U", 1, 2), ("U", 2, 1), ("U", 2, 2)]


def test_cyclic_3_3_catalog_size_and_layers():
    cat = cat_for([3, 3], cyclic=True)
    assert len(cat.catalog) == 6
    m13 = cat.resolve_token("U(1,3)")
    assert cat.catalog[m13].display == "121"
    assert cat.catalog[m13].dimvec == (2, 1)


@pytest.mark.parametrize("spec", linear_nakayama_battery() + CYCLIC_BATTERY,
                         ids=lambda s: s.label())
def test_catalog_size_is_kupisch_sum(spec):
    cat = category_for(spec)
    assert len(cat.catalog) == sum(spec.kupisch)


def test_uniserial_records_count_and_order():
    cat = cat_for([3, 2, 1])
    m = cat.resolve_token("123")
    recs = cat.sub_quotient_pairs(m)
    assert len(recs) == 2
    subs = [cat.display_sum(r.sub) for r in recs]
    quots = [cat.display_sum(r.quot) for r in recs]
    assert subs == ["3", "23"]
    assert quots == ["12", "1"]


def test_length_two_record():
    cat = cat_for([2, 1])
    recs = cat.sub_quotient_pairs(cat.resolve_token("12"))
    assert len(recs) == 1
    assert cat.display_sum(recs[0].sub) == "2"
    assert cat.display_sum(recs[0].quot) == "1"


def test_simple_has_no_records():
    cat = cat_for([2, 1])
    assert cat.sub_quotient_pairs(cat.resolve_token("1")) == ()


def test_syzygy_linear():
    cat = cat_for([2, 1])
    backend = cat.backend
    assert backend.projective_cover(cat.resolve_token("1"))[1] == (cat.resolve_token("2"),)
    assert backend.projective_cover(cat.resolve_token("12"))[1] == ()


def test_syzygy_cyclic():
    cat = cat_for([2, 2], cyclic=True)
    backend = cat.backend
    assert backend.projective_cover(cat.resolve_token("1"))[1] == (cat.resolve_token("2"),)
    assert backend.projective_cover(cat.resolve_token("2"))[1] == (cat.resolve_token("1"),)


def test_socle_quotient():
    cat = cat_for([3, 2, 1])
    backend = cat.backend
    assert backend.socle_quotient(cat.resolve_token("123")) == cat.resolve_token("12")
    assert backend.socle_quotient(cat.resolve_token("12")) == cat.resolve_token("1")
    assert backend.socle_quotient(cat.resolve_token("1")) is None


def test_projectives_match_kupisch():
    cat = cat_for([3, 2, 1])
    assert [cat.display(p) for p in cat.projectives] == ["123", "23", "3"]


@pytest.mark.parametrize("spec", linear_nakayama_battery() + CYCLIC_BATTERY,
                         ids=lambda s: s.label())
def test_unique_filtration_by_orthogonal_bricks(spec):
    # A uniserial filtered by pairwise hom-orthogonal bricks has exactly
    # one factor sequence; exhaustive over orthogonal brick subsets.
    cat = category_for(spec)
    bricks = cat.bricks

    def count(x, brickset):
        total = 1 if x in brickset else 0
        for rec in cat.sub_quotient_pairs(x):
            if rec.quot.ids[0] in brickset:
                total += count(rec.sub.ids[0], brickset)
        return total

    for r in range(1, len(bricks) + 1):
        for combo in combinations(bricks, r):
            if any(cat.hom(a, b) or cat.hom(b, a)
                   for a, b in combinations(combo, 2)):
                continue
            for x in range(len(cat.catalog)):
                assert count(x, frozenset(combo)) <= 1
