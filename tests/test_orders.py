"""Partial orders on equivalence classes: deformation, summand, HN, brick."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory, orders
from greenseq.errors import GateError, InvariantViolation, UsageError
from greenseq.green import MGS, ExchangePair
from greenseq.modcat import TorsionLattice, _bits
from greenseq.orders import (ClassPoset, _check_partial_order,
                             _checked_covers, _containment_rows, _stable_factor_cells,
                             _transitive_reflexive_closure, build_order,
                             check_extrema, exchange_persistence, hasse_dot,
                             iepd_cover_pairs, orders_equal_report,
                             polygon_deformation_pairs)
from greenseq.verify import build_posets, suite_theorem_b

from conftest import category_for, engine_for, full_battery, ids_of, mask_of, members
from test_classes import refuse_sequence_walks
from test_green import _small_algebra
from test_verify import verify_phi

# the battery of the row-reader tests
ROW_SPECS = full_battery() + [AlgebraSpec.type_a("<<<<")]
EXTRA_SPECS = [AlgebraSpec.type_a("<<<<"), AlgebraSpec.nakayama([3, 3, 3, 2, 1]),
               AlgebraSpec.nakayama([3, 3, 3], cyclic=True)]


def class_of_names(cat, engine, names):
    return engine.class_of(ids_of(cat, names))


# -- increasing elementary polygonal deformations ---------------------------

def test_a2_single_cover(a2_cat, a2_engine):
    pairs = iepd_cover_pairs(a2_engine)
    long_cls = class_of_names(a2_cat, a2_engine, ["2", "12", "1"])
    short_cls = class_of_names(a2_cat, a2_engine, ["1", "2"])
    assert pairs == frozenset({(long_cls, short_cls)})


def test_example_pentagon_cover(example_cat, example_engine):
    pairs = iepd_cover_pairs(example_engine)
    long_cls = class_of_names(example_cat, example_engine, ["3", "2", "12", "1"])
    short_cls = class_of_names(example_cat, example_engine, ["3", "1", "2"])
    assert (long_cls, short_cls) in pairs


def test_squares_are_not_deformation_covers(example_cat, example_engine):
    # adjacent swaps (gap one) never contribute: all recorded pairs change
    # the class and drop at least one brick
    for lo, hi in iepd_cover_pairs(example_engine):
        classes = example_engine.equivalence_classes()
        assert len(classes[lo].representative.bricks) \
            > len(classes[hi].representative.bricks)


def _iepd_by_swaps(engine):
    """Oracle: class pairs (long, short) related by an increasing elementary
    polygonal deformation, found by dropping the strictly-between bricks of
    every pattern of every sequence and swapping its endpoints.  Every
    valid sequence is enumerated, so a candidate is valid exactly when the
    sequence index holds it."""
    all_mgs = engine.enumerate_mgs()
    index = {g.bricks: k for k, g in enumerate(all_mgs)}
    class_of = [engine.class_of(g.bricks) for g in all_mgs]
    pairs = set()
    for k, g in enumerate(all_mgs):
        r = len(g.bricks)
        for p in range(r):
            for q in range(p + 2, r):
                seq = g.bricks[:p] + (g.bricks[q], g.bricks[p]) + g.bricks[q + 1:]
                j = index.get(seq)
                if j is not None:
                    lo, hi = class_of[k], class_of[j]
                    if lo == hi:
                        raise InvariantViolation(
                            "polygonal deformation did not change the class")
                    pairs.add((lo, hi))
    return frozenset(pairs)


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_deformation_candidates_valid_iff_enumerated(spec):
    # the swap oracle trusts the sequence index instead of is_valid_mgs
    eng = engine_for(spec)
    listed = {g.bricks for g in eng.enumerate_mgs()}
    for g in eng.enumerate_mgs():
        r = len(g.bricks)
        for p in range(r):
            for q in range(p + 2, r):
                seq = g.bricks[:p] + (g.bricks[q], g.bricks[p]) + g.bricks[q + 1:]
                assert (seq in listed) == eng.is_valid_mgs(seq)


# -- the three orders ----------------------------------------------------------

def test_example_orders_coincide(example_engine):
    posets = [build_order(tag, example_engine)
              for tag in ("pentagon", "summand", "hn")]
    report = orders_equal_report(posets)
    assert report["equal"], report["differences"]


def test_example_poset_cover_profile(example_cat, example_engine):
    poset = build_order("summand", example_engine)
    classes = example_engine.equivalence_classes()
    assert poset.size == 6
    assert len(poset.covers) == 6
    sizes = {i: len(c.key) for i, c in enumerate(classes)}
    cover_profile = sorted((sizes[up], sizes[lo]) for up, lo in poset.covers)
    # max(6) covers the two 7s, each 7 covers an 8, each 8 covers the min(9)
    assert cover_profile == [(6, 7), (6, 7), (7, 8), (7, 8), (8, 9), (8, 9)]


def test_named_sequences_incomparable(example_cat, example_engine):
    poset = build_order("hn", example_engine)
    c1 = class_of_names(example_cat, example_engine, ["2", "12", "1", "32", "3"])
    c2 = class_of_names(example_cat, example_engine, ["2", "32", "3", "12", "1"])
    assert not poset.rows[c1] >> c2 & 1
    assert not poset.rows[c2] >> c1 & 1


def test_a2_long_below_short_everywhere(a2_cat, a2_engine):
    lo = class_of_names(a2_cat, a2_engine, ["2", "12", "1"])
    hi = class_of_names(a2_cat, a2_engine, ["1", "2"])
    for tag in ("pentagon", "summand", "hn"):
        poset = build_order(tag, a2_engine)
        assert poset.rows[lo] >> hi & 1
        assert not poset.rows[hi] >> lo & 1


def test_pentagon_contained_in_others(example_engine):
    pent = _relation_pairs(build_order("pentagon", example_engine))
    assert pent
    for tag in ("summand", "hn"):
        assert pent <= _relation_pairs(build_order(tag, example_engine))


def test_brick_order_refused_off_nakayama(example_engine):
    with pytest.raises(UsageError, match="antisymmetry"):
        build_order("brick", example_engine)


@pytest.mark.parametrize("tag", ["pentagon", "summand", "hn", "brick"])
def test_class_gate_fires_before_any_row(monkeypatch, example_engine, tag):
    # the README example has 6 classes
    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(orders, "CLASS_GATE", 5)
    for name in ("iepd_cover_pairs", "_transitive_reflexive_closure",
                 "_containment_rows", "_stable_factor_cells", "_hn_refines"):
        monkeypatch.setattr(orders, name, refuse)
    with pytest.raises(GateError) as exc:
        build_order(tag, example_engine)
    assert str(exc.value) == ("6 classes exceed the class gate of 5; no order "
                              "is built on them")


def test_class_gate_admits_exactly_the_count(monkeypatch, example_engine):
    monkeypatch.setattr(orders, "CLASS_GATE", 6)
    assert build_order("pentagon", example_engine).size == 6


def test_brick_order_on_nakayama():
    spec = AlgebraSpec.nakayama([3, 2, 1])
    eng = engine_for(spec)
    posets = [build_order(tag, eng)
              for tag in ("pentagon", "summand", "hn", "brick")]
    assert orders_equal_report(posets)["equal"]


def _hn_leq_by_counters(f_lo, f_hi):
    """Oracle: the hn relation on two `stable_factor_function` tables, with
    a Counter of the expected stable factors per module."""
    for x in f_lo:
        expected = Counter()
        for brick, mult in f_lo[x]:
            for b2, m2 in f_hi[brick]:
                expected[b2] += mult * m2
        if Counter(dict(f_hi[x])) != expected:
            return False
    return True


@pytest.mark.parametrize("spec", full_battery() + EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_hn_order_matches_counter_oracle(spec):
    eng = engine_for(spec)
    tables = [eng.stable_factor_function(c.representative)
              for c in eng.equivalence_classes()]
    leq = tuple(tuple(i == j or _hn_leq_by_counters(tables[i], tables[j])
                      for j in range(len(tables)))
                for i in range(len(tables)))
    assert build_order("hn", eng).rows == tuple(_rows(leq))


def test_hn_order_evaluates_each_module_value_once(monkeypatch):
    # one evaluation per module x, value v of f(x) and cell of the classes
    # that agree on f at x and at the bricks of v: testing every class for
    # each value makes classes x values
    eng = engine_for(AlgebraSpec.type_a("<<<<"))
    tables = [eng.stable_factor_function(c.representative)
              for c in eng.equivalence_classes()]
    values = {(x, f[x]) for f in tables for x in f}
    cells = {(x, v, tuple(f[y] for y in (x, *(b for b, _ in v))))
             for x, v in values for f in tables}
    calls = []
    real = orders._hn_refines

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orders, "_hn_refines", counting)
    build_order("hn", eng)
    assert len(cells) < len(tables) * len(values)
    assert len(calls) == len(cells)


def _containment_by_pairs(sets):
    """Oracle: reverse inclusion compared class by class on element masks."""
    bit: dict = {}
    masks = [sum(bit.setdefault(x, 1 << len(bit)) for x in s) for s in sets]
    return [sum(1 << j for j, m in enumerate(masks) if not m & ~mask)
            for mask in masks]


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.label())
def test_containment_rows_match_all_pairs(spec):
    # the summand and brick masks against the sets of the classes' records
    eng = engine_for(spec)
    table = eng.class_table()
    classes = table.classes
    for column, sets in ((table.summand_masks, [frozenset(c.key) for c in classes]),
                         (table.brick_masks,
                          [frozenset(c.representative.bricks) for c in classes])):
        rows = _containment_rows(column)
        assert rows == _containment_by_pairs(sets)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 5)), max_size=8))
def test_containment_rows_match_all_pairs_on_drawn_sets(sets):
    assert _containment_rows(list(map(mask_of, sets))) == _containment_by_pairs(sets)


def test_hn_implies_brick_containment(example_engine):
    classes = example_engine.equivalence_classes()
    poset = build_order("hn", example_engine)
    for lo, hi in _relation_pairs(poset):
        blo = set(classes[lo].representative.bricks)
        bhi = set(classes[hi].representative.bricks)
        assert blo > bhi


# -- the poset algebra on int rows against boolean-matrix loops -------------------

def _closure_loops(size, pairs):
    leq = [[i == j for j in range(size)] for i in range(size)]
    for i, j in pairs:
        leq[i][j] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def _check_loops(tag, leq):
    size = len(leq)
    for i in range(size):
        if not leq[i][i]:
            raise InvariantViolation(f"{tag} order is not reflexive at {i}")
        for j in range(size):
            if i != j and leq[i][j] and leq[j][i]:
                raise InvariantViolation(
                    f"{tag} order fails antisymmetry on classes {i}, {j}")
            for k in range(size):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise InvariantViolation(
                        f"{tag} order fails transitivity on {i}, {j}, {k}")


def _covers_loops(leq):
    size = len(leq)
    covers = []
    for i in range(size):
        for j in range(size):
            if i == j or not leq[i][j]:
                continue
            if not any(k != i and k != j and leq[i][k] and leq[k][j]
                       for k in range(size)):
                covers.append((j, i))
    return tuple(sorted(covers))


def _covers_from_leq(rows):
    """The covers of an order given as int rows, in a pass of their own:
    the oracle of `_checked_covers`, which takes them while it checks."""
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    covers = []
    for i, above in enumerate(strict):
        between = 0
        for k in _bits(above):
            between |= strict[k]
        covers.extend((j, i) for j in _bits(above & ~between))
    return tuple(sorted(covers))


def _rows(leq):
    return [sum(1 << j for j, x in enumerate(row) if x) for row in leq]


def _matrix(poset):
    """The boolean matrix of a poset's rows: leq[i][j] when i <= j."""
    return [[bool(row >> j & 1) for j in range(poset.size)] for row in poset.rows]


def _relation_pairs(poset):
    """The strict relation (i, j), i < j in the poset, read cell by cell."""
    leq = _matrix(poset)
    return frozenset((i, j) for i in range(poset.size)
                     for j in range(poset.size) if i != j and leq[i][j])


def _check_message(check, tag, relation):
    try:
        check(tag, relation)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec", full_battery() + [AlgebraSpec.type_a("<<<<")],
                         ids=lambda s: s.label())
def test_poset_algebra_matches_loops(spec):
    eng = engine_for(spec)
    size = len(eng.equivalence_classes())
    pairs = iepd_cover_pairs(eng)
    assert (_transitive_reflexive_closure(size, pairs)
            == _rows(_closure_loops(size, pairs)))
    tags = ["pentagon", "summand", "hn"] + (["brick"] if spec.is_nakayama else [])
    for tag in tags:
        poset = build_order(tag, eng)
        leq = _matrix(poset)
        assert _rows(leq) == list(poset.rows)
        _check_loops(tag, leq)
        _check_partial_order(tag, _rows(leq))
        assert _covers_from_leq(_rows(leq)) == _covers_loops(leq) == poset.covers


FIVE_VERTEX_WORDS = [AlgebraSpec.type_a("".join(w))
                     for w in itertools.product("<>", repeat=4)]


@pytest.mark.parametrize("spec", FIVE_VERTEX_WORDS, ids=lambda s: s.label())
def test_checked_covers_match_the_two_pass_oracle(spec):
    # `full_battery()` is in test_poset_algebra_matches_loops
    eng = engine_for(spec)
    for tag in ("pentagon", "summand", "hn"):
        poset = build_order(tag, eng)
        assert poset.covers == _covers_from_leq(list(poset.rows)), tag


def _refines_at(value, f_hi, x):
    """Do the f_hi stable factors of the bricks of value add up to f_hi(x)?"""
    expected = {}
    for brick, mult in value:
        for b2, m2 in f_hi[brick]:
            expected[b2] = expected.get(b2, 0) + mult * m2
    return tuple(sorted(expected.items())) == f_hi[x]


def _hn_rows_by_values(eng):
    """Oracle: the hn rows from testing every class hi once for each module
    x and value f_lo(x), on the stable-factor tables of the classes."""
    tables = [eng.stable_factor_function(c.representative)
              for c in eng.equivalence_classes()]
    size = len(tables)
    rows = [(1 << size) - 1] * size
    for x in range(len(eng.cat.catalog)):
        passing = {}
        for lo, f_lo in enumerate(tables):
            if f_lo[x] not in passing:
                passing[f_lo[x]] = sum(
                    1 << hi for hi, f_hi in enumerate(tables)
                    if _refines_at(f_lo[x], f_hi, x))
            rows[lo] &= passing[f_lo[x]]
    return tuple(row | 1 << i for i, row in enumerate(rows))


@pytest.mark.parametrize("spec", FIVE_VERTEX_WORDS, ids=lambda s: s.label())
def test_hn_cells_match_the_per_value_oracle(spec):
    eng = engine_for(spec)
    assert build_order("hn", eng).rows == _hn_rows_by_values(eng)


# -- the class table against the per-representative oracles ----------------------

def _assert_class_table_matches_oracles(eng):
    """Each class's masks, decoded, against the per-sequence method on its
    representative: the summand mask and key against `summand_set`, the
    exchange mask against `exchange_pairs`, the stable-factor cells of the
    hn order against `stable_factor_function` and the brick mask against
    the representative's bricks."""
    table, covers = eng.class_table(), eng.cover_table()
    summands, having = covers.summands, _stable_factor_cells(eng)
    columns = (table.summand_masks, table.exchange_masks, table.factor_masks,
               table.brick_masks)
    assert all(len(column) == len(table.classes) for column in columns)
    for i, (c, s, e, f, b) in enumerate(zip(table.classes, *columns)):
        g = c.representative
        assert list(c.key) == [summands[k] for k in _bits(s)] == sorted(eng.summand_set(g))
        assert {ExchangePair(summands[out], summands[in_])
                for out, in_ in map(covers.exchanges.__getitem__, _bits(e))
                } == set(eng.exchange_pairs(g))
        sff = {}
        for x, cells in enumerate(having):
            [sff[x]] = [w for w, cell in cells.items() if cell >> i & 1]
        assert sff == eng.stable_factor_function(g)
        assert f == sum(1 << covers.factors.index((x, brick, mult))
                        for x, row in sff.items() for brick, mult in row)
        assert b == mask_of(g.bricks)


@pytest.mark.parametrize("spec", full_battery() + FIVE_VERTEX_WORDS,
                         ids=lambda s: s.label())
def test_class_table_matches_per_representative_oracles(spec):
    _assert_class_table_matches_oracles(engine_for(spec))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_small_algebra())
def test_class_table_matches_oracles_on_drawn_algebras(spec):
    _assert_class_table_matches_oracles(GreenEngine(ModuleCategory(spec)))


def test_pentagon_generator_cycle_raises_antisymmetry(monkeypatch, example_engine):
    # reverse one deformation pair: the closure must still reach
    # `_check_partial_order`, with the message of the loop closure
    real = iepd_cover_pairs(example_engine)
    lo, hi = min(real)
    pairs = real | {(hi, lo)}
    monkeypatch.setattr(orders, "iepd_cover_pairs", lambda engine: pairs)
    expected = _check_message(_check_loops, "pentagon",
                              _closure_loops(len(example_engine.equivalence_classes()),
                                             pairs))
    assert expected == f"pentagon order fails antisymmetry on classes {lo}, {hi}"
    with pytest.raises(InvariantViolation) as exc:
        build_order("pentagon", example_engine)
    assert str(exc.value) == expected


@pytest.mark.parametrize("step", [1, -1], ids=["up", "down"])
def test_closure_of_a_long_chain_matches_loops(step):
    # with step 1 each row takes in the next one, so it is complete only
    # after every row of higher index: the index order is the reverse of
    # the order the rows are finished in, and one pass is not enough
    size = 64
    pairs = [(i, i + step) for i in range(size) if 0 <= i + step < size]
    rows = _transitive_reflexive_closure(size, pairs)
    assert rows == _rows(_closure_loops(size, pairs))
    assert rows[0 if step == 1 else size - 1] == (1 << size) - 1


BROKEN_RELATIONS = [
    # 1 not below itself
    ([[1, 0], [0, 0]], "t order is not reflexive at 1"),
    # 0 <= 1 <= 0
    ([[1, 1], [1, 1]], "t order fails antisymmetry on classes 0, 1"),
    # 0 <= 1 <= 2 but not 0 <= 2
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "t order fails transitivity on 0, 1, 2"),
    # row 0 breaks transitivity before row 1 breaks reflexivity
    ([[1, 1, 0], [0, 0, 1], [0, 0, 1]], "t order fails transitivity on 0, 1, 2"),
    # at (0, 2) antisymmetry is tested before transitivity through 2
    ([[1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 1]],
     "t order fails antisymmetry on classes 0, 2"),
    # the least k is reported: 0 <= 1 reaches both 2 and 3
    ([[1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
     "t order fails transitivity on 0, 1, 2"),
]


@pytest.mark.parametrize("leq, message", BROKEN_RELATIONS)
def test_broken_relation_same_message_as_loops(leq, message):
    leq = [[bool(x) for x in row] for row in leq]
    assert _check_message(_check_loops, "t", leq) == message
    assert _check_message(_check_partial_order, "t", _rows(leq)) == message
    assert _check_message(_checked_covers, "t", _rows(leq)) == message
    assert _covers_from_leq(_rows(leq)) == _covers_loops(leq)


@st.composite
def _relation(draw):
    size = draw(st.integers(1, 6))
    return [[draw(st.booleans()) for _ in range(size)] for _ in range(size)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_relation())
def test_poset_algebra_matches_loops_on_drawn_relations(leq):
    size = len(leq)
    pairs = [(i, j) for i in range(size) for j in range(size) if leq[i][j]]
    assert _transitive_reflexive_closure(size, pairs) == _rows(_closure_loops(size, pairs))
    message = _check_message(_check_loops, "t", leq)
    assert _check_message(_check_partial_order, "t", _rows(leq)) == message
    assert _check_message(_checked_covers, "t", _rows(leq)) == message
    assert _covers_from_leq(_rows(leq)) == _covers_loops(leq)
    if message is None:
        assert _checked_covers("t", _rows(leq)) == _covers_loops(leq)


# -- socle-quotient correspondence ------------------------------------------------

def test_phi_trivial_on_simples_sequence():
    spec = AlgebraSpec.nakayama([2, 1])
    cat, eng = category_for(spec), engine_for(spec)
    assert verify_phi(cat, eng, MGS(ids_of(cat, ["1", "2"])))


def test_phi_on_long_a2():
    spec = AlgebraSpec.nakayama([2, 1])
    cat, eng = category_for(spec), engine_for(spec)
    g = MGS(ids_of(cat, ["2", "12", "1"]))
    assert verify_phi(cat, eng, g)
    # the unique non-projective summand module is the socle quotient of 12
    summ = eng.summand_set(g)
    mods = {s.value for s in summ if not s.shifted} - set(cat.projectives)
    assert {cat.display(x) for x in mods} == {"1"}


def test_phi_exhaustive_linear_a3():
    spec = AlgebraSpec.nakayama([3, 2, 1])
    cat, eng = category_for(spec), engine_for(spec)
    for g in eng.enumerate_mgs():
        assert verify_phi(cat, eng, g)


def test_phi_refused_off_nakayama(example_cat, example_engine):
    g = MGS(ids_of(example_cat, ["1", "3", "2"]))
    with pytest.raises(UsageError):
        verify_phi(example_cat, example_engine, g)


# -- extrema --------------------------------------------------------------------------

def _posets(engine):
    return {tag: build_order(tag, engine) for tag in ("pentagon", "summand", "hn")}


def test_example_extrema(example_cat, example_engine):
    report = check_extrema(example_engine, _posets(example_engine))
    assert report["applicable"] and report["passed"], report
    classes = example_engine.equivalence_classes()
    mx = class_of_names(example_cat, example_engine, ["1", "3", "2"])
    assert len(classes[mx].key) == 6  # projectives and shifts only
    mn = class_of_names(example_cat, example_engine,
                        ["2", "12", "32", "132", "1", "3"])
    assert len(classes[mn].key) == 9  # every summand


def test_a2_extrema(a2_engine):
    report = check_extrema(a2_engine, _posets(a2_engine))
    assert report["applicable"] and report["passed"]


def test_extrema_skipped_on_cyclic():
    eng = engine_for(AlgebraSpec.nakayama([2, 2], cyclic=True))
    report = check_extrema(eng, _posets(eng))
    assert report["applicable"] is False
    assert "skipped" in report["notice"]


@pytest.mark.parametrize("tag, failing", [
    ("pentagon", "pentagon-order-maximal-at-source-class"),
    ("summand", "summand-order-has-unique-maximum"),
    ("hn", "hn-order-has-unique-minimum"),
])
def test_one_broken_row_fails_one_extrema_check(example_cat, example_engine,
                                                 tag, failing):
    posets = _posets(example_engine)
    mx = class_of_names(example_cat, example_engine, ["1", "3", "2"])
    mn = class_of_names(example_cat, example_engine,
                        ["2", "12", "32", "132", "1", "3"])
    c = min(set(range(posets[tag].size)) - {mx, mn})
    rows = list(posets[tag].rows)
    if tag == "pentagon":
        rows[mx] |= 1 << mn     # the maximum lies below the minimum
    elif tag == "summand":
        rows[c] &= ~(1 << mx)   # c does not lie below the maximum
    else:
        rows[mn] &= ~(1 << c)   # the minimum does not lie below c
    posets[tag] = posets[tag]._replace(rows=tuple(rows))
    report = check_extrema(example_engine, posets)
    assert not report["passed"]
    assert [e["check"] for e in report["checks"] if not e["passed"]] == [failing]


# -- exchange persistence ----------------------------------------------------------------

def test_exchange_persistence_example(example_engine):
    pent = build_order("pentagon", example_engine)
    assert exchange_persistence(example_engine, pent)["passed"]


def test_exchange_persistence_a2(a2_engine):
    pent = build_order("pentagon", a2_engine)
    assert exchange_persistence(a2_engine, pent)["passed"]


def _total(size, tag="pentagon"):
    """A relation that puts every class below every class."""
    return ClassPoset(tag, size, ((1 << size) - 1,) * size, ())


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.label())
def test_exchange_persistence_lists_failures_pair_by_pair(spec):
    eng = engine_for(spec)
    pairs = [eng.exchange_pairs(c.representative)
             for c in eng.equivalence_classes()]
    size, outs = len(pairs), [{p.out for p in found} for found in pairs]
    expected = [{"lower": lo, "upper": hi, "missing_out": repr(pair.out)}
                for lo in range(size) for hi in range(size) if lo != hi
                for pair in pairs[hi] if pair.out not in outs[lo]]
    assert bool(expected) == (size > 1)
    report = exchange_persistence(eng, _total(size))
    assert report == {"passed": not expected, "failures": expected}


def test_exchange_persistence_builds_the_class_table_it_reads():
    # on a fresh engine the call itself builds the masks and the bit lists
    spec = AlgebraSpec.type_a("<>")
    size = len(engine_for(spec).equivalence_classes())
    fresh = exchange_persistence(GreenEngine(ModuleCategory(spec)), _total(size))
    assert fresh == exchange_persistence(engine_for(spec), _total(size))
    assert fresh["failures"]


@pytest.mark.parametrize("spec", [AlgebraSpec.type_a("<>"),
                                  AlgebraSpec.nakayama([3, 3, 3], cyclic=True)],
                         ids=lambda s: s.label())
def test_decode_lists_do_not_wait_for_the_class_table(spec):
    # the cover table's numberings are whole when it is built: read before
    # the class table on one fresh engine and after it on another, they
    # decode to the same exchange failures and stable-factor cells
    size = len(engine_for(spec).equivalence_classes())
    before, after = GreenEngine(ModuleCategory(spec)), GreenEngine(ModuleCategory(spec))
    covers = before.cover_table()
    decoded = (list(covers.exchanges), list(covers.factors))
    assert before._class_table is None and all(decoded)
    after.class_table()
    assert (after.cover_table().exchanges, after.cover_table().factors) == decoded
    assert (exchange_persistence(before, _total(size))
            == exchange_persistence(after, _total(size)))
    assert _stable_factor_cells(before) == _stable_factor_cells(after)
    assert (covers.exchanges, covers.factors) == decoded


# -- unoriented polygons ----------------------------------------------------------------

def test_cyclic_2_2_is_an_unoriented_polygon():
    spec = AlgebraSpec.nakayama([2, 2], cyclic=True)
    cat, eng = category_for(spec), engine_for(spec)
    polygons = polygon_deformation_pairs(eng)
    assert len(polygons) == 1
    assert polygons[0].sides == (3, 3)
    assert polygons[0].sequence_pairs == 1
    [(c1, c2)] = polygons[0].class_pairs
    posets = _posets(eng)
    for poset in posets.values():
        assert not poset.rows[c1] >> c2 & 1
        assert not poset.rows[c2] >> c1 & 1


def test_example_polygon_sides(example_engine):
    # every detected polygon deformation over the three-vertex quiver is a
    # square (2,2) or pentagon-like (k,2); no unoriented ones
    for p in polygon_deformation_pairs(example_engine):
        assert p.sides[1] == 2


def _all_pairs_polygons(engine):
    """Oracle: compare every two sequences; keep those whose torsion chains
    split at one class, meet again at the first shared class below, and
    whose top and bottom there share n-2 silting summands.  The classes
    are numbered by decreasing size, so the numbers increase along a
    chain, and two chains split once and meet once exactly when no class
    of both is numbered between the least and the greatest number of a
    class of one of them only."""
    all_mgs = engine.enumerate_mgs()
    chains = [engine.torsion_chain(g) for g in all_mgs]
    order = sorted({t for chain in chains for t in chain},
                   key=lambda t: (-t.bit_count(), sorted(members(t))))
    number = {t: i for i, t in enumerate(order)}
    masks = [sum(1 << number[t] for t in chain) for chain in chains]
    polygon = {}
    found = []
    for k, mk in enumerate(masks):
        for l in range(k + 1, len(masks)):
            both, one = mk & masks[l], mk ^ masks[l]
            low, high = one & -one, one.bit_length()
            if both & ((1 << high) - low):
                continue
            above, below = both & (low - 1), both >> high
            ends = (above.bit_length() - 1, high + (below & -below).bit_length() - 1)
            if ends not in polygon:
                shared = (engine.silting_summands(order[ends[0]])
                          & engine.silting_summands(order[ends[1]]))
                polygon[ends] = shared.bit_count() == engine.cat.n - 2
            if polygon[ends]:
                a, b = above.bit_count(), below.bit_count()
                found.append({"first": k, "second": l,
                              "sides": (len(chains[k]) - a - b + 1,
                                        len(chains[l]) - a - b + 1)})
    return found


def _by_side_type(rows):
    """[sequence pairs, class pairs] per (long, short) side lengths, from
    (side lengths, class pairs, sequence pairs) rows; the class pairs of
    equal sides are taken in both orientations."""
    found = {}
    for sides, pairs, count in rows:
        entry = found.setdefault(sides, [0, set()])
        entry[0] += count
        for c1, c2 in pairs:
            entry[1] |= {(c1, c2), (c2, c1)} if sides[0] == sides[1] else {(c1, c2)}
    return found


def _polygons_by_side_type(engine):
    return _by_side_type((p.sides, p.class_pairs, p.sequence_pairs)
                         for p in polygon_deformation_pairs(engine))


def _oracle_by_side_type(engine):
    class_of = [engine.class_of(g.bricks) for g in engine.enumerate_mgs()]
    rows = []
    for p in _all_pairs_polygons(engine):
        first = (p["sides"][0], class_of[p["first"]])
        second = (p["sides"][1], class_of[p["second"]])
        (long, c_long), (short, c_short) = sorted((first, second), reverse=True)
        rows.append(((long, short), [(c_long, c_short)], 1))
    return _by_side_type(rows)


def _assert_polygons_match_oracles(engine):
    assert _polygons_by_side_type(engine) == _oracle_by_side_type(engine)
    assert iepd_cover_pairs(engine) == _iepd_by_swaps(engine)


@pytest.mark.parametrize("spec", full_battery() + EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_polygon_pairs_match_all_pairs_search(spec):
    _assert_polygons_match_oracles(engine_for(spec))


# derandomized: the all-pairs oracle costs 3.5 s on the 2981 sequences of
# the largest draw, Nakayama 5,4,3,2,1
@settings(max_examples=8, deadline=None, derandomize=True)
@given(_small_algebra())
def test_polygon_pairs_match_oracles_on_drawn_algebras(spec):
    _assert_polygons_match_oracles(GreenEngine(ModuleCategory(spec)))


@pytest.mark.parametrize("spec", full_battery() + EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_iepd_pairs_match_swap_scan(spec):
    eng = engine_for(spec)
    assert iepd_cover_pairs(eng) == _iepd_by_swaps(eng)


@pytest.mark.parametrize("spec", [AlgebraSpec.type_a("<<<"),
                                  AlgebraSpec.nakayama([3, 3, 3], cyclic=True)],
                         ids=lambda s: s.label())
def test_polygons_read_no_sequence_index(spec, monkeypatch):
    expected = (build_order("pentagon", engine_for(spec)),
                polygon_deformation_pairs(engine_for(spec)))
    refuse_sequence_walks(monkeypatch)
    eng = GreenEngine(ModuleCategory(spec))
    assert (build_order("pentagon", eng), polygon_deformation_pairs(eng)) == expected


def _classes_ready(spec):
    """A fresh engine whose classes are computed before a fault is put in."""
    eng = GreenEngine(ModuleCategory(spec))
    eng.equivalence_classes()
    return eng


def test_polygon_interval_without_two_sides_is_a_violation(monkeypatch):
    eng = _classes_ready(AlgebraSpec.type_a("<>"))
    # every meet read as zero: the interval below the top is the lattice
    monkeypatch.setattr(TorsionLattice, "index_of", lambda self, t: self.bottom)
    with pytest.raises(InvariantViolation, match="has 3 sides, not two"):
        polygon_deformation_pairs(eng)


def test_polygon_without_shared_summands_is_a_violation(monkeypatch):
    eng = _classes_ready(AlgebraSpec.type_a("<>"))
    table = eng.cover_table()
    monkeypatch.setattr(eng, "cover_table", lambda: table._replace(
        summand_masks=[0] * len(table.summand_masks)))
    with pytest.raises(InvariantViolation, match="shares 0 silting summands"):
        polygon_deformation_pairs(eng)


def test_polygon_chain_mask_not_a_class_key_is_a_violation():
    eng = _classes_ready(AlgebraSpec.type_a("<"))
    by_key = eng.class_table().by_key
    del by_key[next(iter(by_key))]
    with pytest.raises(InvariantViolation, match="not the key of a class"):
        polygon_deformation_pairs(eng)


def test_deformation_keeping_the_class_is_a_violation():
    eng = _classes_ready(AlgebraSpec.type_a("<"))
    by_key = eng.class_table().by_key
    by_key.update(dict.fromkeys(by_key, 0))
    with pytest.raises(InvariantViolation, match="did not change the class"):
        polygon_deformation_pairs(eng)


def test_comparable_unoriented_polygon_sides_listed_once_per_order():
    spec = AlgebraSpec.nakayama([3, 3, 3], cyclic=True)
    eng = engine_for(spec)
    size = len(eng.equivalence_classes())
    full = (1 << size) - 1
    unoriented = [p for p in polygon_deformation_pairs(eng) if p.sides[1] >= 3]
    pairs = sorted({tuple(sorted(pair)) for p in unoriented
                    for pair in p.class_pairs})
    assert len(pairs) == 3
    # summand and hn orders that relate every two classes: both ways, then
    # one way, the other way round in each order
    for summand, hn in ((lambda i: full, lambda i: full),
                        (lambda i: full >> i << i, lambda i: full & (2 << i) - 1)):
        posets = build_posets(eng, include_brick=False)
        for tag, row in (("summand", summand), ("hn", hn)):
            posets[tag] = posets[tag]._replace(
                rows=tuple(row(i) for i in range(size)))
        [check] = [c for c in suite_theorem_b(eng, posets)
                   if c.name == "unoriented-polygon-sides-incomparable"]
        assert not check.passed
        assert check.detail == {
            "polygons": 3,
            "violations": [{"pair": list(pair), "order": tag}
                           for pair in pairs for tag in ("hn", "summand")]}


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.label())
def test_theorem_b_lists_violations_in_lexicographic_order(spec):
    eng = engine_for(spec)
    posets = build_posets(eng, include_brick=False)
    size = posets["pentagon"].size
    # pentagon and hn orders that put every class below every class
    for tag in ("pentagon", "hn"):
        posets[tag] = _total(size, tag)
    bricks = [frozenset(c.representative.bricks)
              for c in eng.equivalence_classes()]
    summand = _matrix(posets["summand"])
    strict = [(lo, hi) for lo in range(size) for hi in range(size) if lo != hi]
    expected = {
        "deformation-order-contained-in-summand-order":
            [(i, j) for i in range(size) for j in range(size)
             if not summand[i][j]],
        "deformation-order-contained-in-hn-order": [],
        "hn-order-implies-strict-brick-containment":
            [[lo, hi] for lo, hi in strict if not bricks[lo] > bricks[hi]],
        "deformation-strictly-shortens-length":
            [[lo, hi] for lo, hi in strict
             if len(bricks[lo]) <= len(bricks[hi])]}
    checks = {c.name: c for c in suite_theorem_b(eng, posets)}
    for name, violations in expected.items():
        assert checks[name].detail == {"violations": violations}
        assert checks[name].passed == (not violations)
    assert bool(expected["deformation-strictly-shortens-length"]) == (size > 1)


def _theorem_b_loops(eng, posets):
    """Oracle: theorem B's order checks and exchange persistence as walks
    over every related pair, with the lists and element types the suite
    reports."""
    bricks = [frozenset(c.representative.bricks)
              for c in eng.equivalence_classes()]
    pent, hn = posets["pentagon"].rows, posets["hn"].rows
    expected = {f"deformation-order-contained-in-{tag}-order":
                [(i, j) for i, row in enumerate(pent)
                 for j in _bits(row & ~posets[tag].rows[i])]
                for tag in ("summand", "hn")}
    expected["hn-order-implies-strict-brick-containment"] = [
        [lo, hi] for lo, row in enumerate(hn)
        for hi in _bits(row & ~(1 << lo)) if not bricks[lo] > bricks[hi]]
    expected["deformation-strictly-shortens-length"] = [
        [lo, hi] for lo, row in enumerate(pent)
        for hi in _bits(row & ~(1 << lo)) if len(bricks[lo]) <= len(bricks[hi])]
    pairs = [eng.exchange_pairs(c.representative)
             for c in eng.equivalence_classes()]
    outs = [{p.out for p in found} for found in pairs]
    failures = [{"lower": lo, "upper": hi, "missing_out": repr(pair.out)}
                for lo, row in enumerate(pent) for hi in _bits(row & ~(1 << lo))
                for pair in pairs[hi] if pair.out not in outs[lo]]
    return expected, failures, list(pent) == _containment_rows(list(map(mask_of, bricks)))


THEOREM_B_SPECS = [AlgebraSpec.type_a("<"), AlgebraSpec.type_a("<>"),
                   AlgebraSpec.type_a("<<>"), AlgebraSpec.type_a("<><"),
                   AlgebraSpec.nakayama([2, 2], cyclic=True),
                   AlgebraSpec.nakayama([3, 2, 1]),
                   AlgebraSpec.nakayama([3, 3, 3], cyclic=True),
                   AlgebraSpec.nakayama([3, 3, 3, 2, 1])]
_BUILT_POSETS: dict = {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(THEOREM_B_SPECS), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from([0.0, 0.01, 0.5, 1.0]), min_size=3, max_size=3))
def test_theorem_b_matches_pair_walks_on_drawn_relations(spec, seed, densities):
    # each order is the built one with each cell flipped at its density
    eng = engine_for(spec)
    if spec not in _BUILT_POSETS:
        _BUILT_POSETS[spec] = build_posets(eng, include_brick=False)
    posets, rng = dict(_BUILT_POSETS[spec]), random.Random(seed)
    size = posets["pentagon"].size
    for tag, density in zip(("pentagon", "summand", "hn"), densities):
        posets[tag] = posets[tag]._replace(rows=tuple(
            row ^ sum(1 << j for j in range(size) if rng.random() < density)
            for row in posets[tag].rows))
    expected, failures, coincide = _theorem_b_loops(eng, posets)
    checks = {c.name: c for c in suite_theorem_b(eng, posets)}
    for name, violations in expected.items():
        assert repr(checks[name].detail) == repr({"violations": violations})
        assert checks[name].passed == (not violations)
    persistence = checks["exchange-pairs-persist-downward"]
    assert repr(persistence.detail) == repr({"failures": failures})
    assert persistence.passed == (not failures)
    if spec.n == 2:
        equal = orders_equal_report(list(posets.values()))["equal"]
        assert checks["two-simples-orders-all-coincide"].passed == (
            equal and coincide)


def test_orders_equal_report_lists_differences_by_order_pair_then_cell():
    p = ClassPoset("p", 3, (0b111, 0b010, 0b100), ())
    q = ClassPoset("q", 3, (0b011, 0b110, 0b100), ())
    r = ClassPoset("r", 3, (0b111, 0b010, 0b101), ())
    assert orders_equal_report([p, q, r]) == {
        "orders": ["p", "q", "r"],
        "equal": False,
        "differences": [
            {"orders": ["p", "q"], "pair": [0, 2], "p": True, "q": False},
            {"orders": ["p", "q"], "pair": [1, 2], "p": False, "q": True},
            {"orders": ["p", "r"], "pair": [2, 0], "p": False, "r": True},
            {"orders": ["q", "r"], "pair": [0, 2], "q": False, "r": True},
            {"orders": ["q", "r"], "pair": [1, 2], "q": True, "r": False},
            {"orders": ["q", "r"], "pair": [2, 0], "q": False, "r": True},
        ]}
    assert orders_equal_report([p, p._replace(tag="s")]) == {
        "orders": ["p", "s"], "equal": True, "differences": []}


# -- DOT emission ------------------------------------------------------------------------

def test_dot_byte_identical_across_equal_orders(example_engine):
    dot_s = hasse_dot(build_order("summand", example_engine), example_engine)
    dot_h = hasse_dot(build_order("hn", example_engine), example_engine)
    assert dot_s == dot_h
    assert dot_s.count("->") == 6
    assert dot_s.count("label=") == 6


def test_dot_arrow_direction(a2_cat, a2_engine):
    # arrows run from the covering (shorter) class down to the covered one
    dot = hasse_dot(build_order("summand", a2_engine), a2_engine)
    hi = class_of_names(a2_cat, a2_engine, ["1", "2"])
    lo = class_of_names(a2_cat, a2_engine, ["2", "12", "1"])
    assert f"c{hi} -> c{lo};" in dot
