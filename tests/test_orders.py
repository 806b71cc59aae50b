"""Partial orders on equivalence classes: deformation, summand, HN, brick."""

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory
from greenseq.errors import InvariantViolation, UsageError
from greenseq.green import MGS
from greenseq.orders import (_check_partial_order, _covers_from_leq,
                             _transitive_reflexive_closure, build_order,
                             check_extrema, exchange_persistence, hasse_dot,
                             iepd_cover_pairs, orders_equal_report,
                             polygon_deformation_pairs)

from conftest import category_for, engine_for, full_battery, ids_of
from test_verify import verify_phi


def class_of_names(cat, engine, names):
    return engine.class_of(engine.index_of(ids_of(cat, names)))


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


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_deformation_candidates_valid_iff_enumerated(spec):
    # iepd_cover_pairs trusts the sequence index instead of is_valid_mgs
    eng = engine_for(spec)
    for g in eng.enumerate_mgs():
        r = len(g.bricks)
        for p in range(r):
            for q in range(p + 2, r):
                seq = g.bricks[:p] + (g.bricks[q], g.bricks[p]) + g.bricks[q + 1:]
                assert (eng._index.get(seq) is not None) == eng.is_valid_mgs(seq)


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
    assert not poset.leq[c1][c2]
    assert not poset.leq[c2][c1]


def test_a2_long_below_short_everywhere(a2_cat, a2_engine):
    lo = class_of_names(a2_cat, a2_engine, ["2", "12", "1"])
    hi = class_of_names(a2_cat, a2_engine, ["1", "2"])
    for tag in ("pentagon", "summand", "hn"):
        poset = build_order(tag, a2_engine)
        assert poset.leq[lo][hi]
        assert not poset.leq[hi][lo]


def test_pentagon_contained_in_others(example_engine):
    pent = build_order("pentagon", example_engine).relation_pairs()
    for tag in ("summand", "hn"):
        assert pent <= build_order(tag, example_engine).relation_pairs()


def test_brick_order_refused_off_nakayama(example_engine):
    with pytest.raises(UsageError, match="antisymmetry"):
        build_order("brick", example_engine)


def test_brick_order_on_nakayama():
    spec = AlgebraSpec.nakayama([3, 2, 1])
    eng = engine_for(spec)
    posets = [build_order(tag, eng)
              for tag in ("pentagon", "summand", "hn", "brick")]
    assert orders_equal_report(posets)["equal"]


def test_hn_implies_brick_containment(example_engine):
    classes = example_engine.equivalence_classes()
    poset = build_order("hn", example_engine)
    for lo, hi in poset.relation_pairs():
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


def _rows(leq):
    return [sum(1 << j for j, x in enumerate(row) if x) for row in leq]


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
        leq = [list(row) for row in poset.leq]
        _check_loops(tag, leq)
        _check_partial_order(tag, _rows(leq))
        assert _covers_from_leq(_rows(leq)) == _covers_loops(leq) == poset.covers


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
    assert (_check_message(_check_partial_order, "t", _rows(leq))
            == _check_message(_check_loops, "t", leq))
    assert _covers_from_leq(_rows(leq)) == _covers_loops(leq)


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
    report = check_extrema(example_cat, example_engine, _posets(example_engine))
    assert report["applicable"] and report["passed"], report
    classes = example_engine.equivalence_classes()
    mx = class_of_names(example_cat, example_engine, ["1", "3", "2"])
    assert len(classes[mx].key) == 6  # projectives and shifts only
    mn = class_of_names(example_cat, example_engine,
                        ["2", "12", "32", "132", "1", "3"])
    assert len(classes[mn].key) == 9  # every summand


def test_a2_extrema(a2_cat, a2_engine):
    report = check_extrema(a2_cat, a2_engine, _posets(a2_engine))
    assert report["applicable"] and report["passed"]


def test_extrema_skipped_on_cyclic():
    spec = AlgebraSpec.nakayama([2, 2], cyclic=True)
    cat, eng = category_for(spec), engine_for(spec)
    report = check_extrema(cat, eng, _posets(eng))
    assert report["applicable"] is False
    assert "skipped" in report["notice"]


# -- exchange persistence ----------------------------------------------------------------

def test_exchange_persistence_example(example_engine):
    pent = build_order("pentagon", example_engine)
    assert exchange_persistence(example_engine, pent)["passed"]


def test_exchange_persistence_a2(a2_engine):
    pent = build_order("pentagon", a2_engine)
    assert exchange_persistence(a2_engine, pent)["passed"]


# -- unoriented polygons ----------------------------------------------------------------

def test_cyclic_2_2_is_an_unoriented_polygon():
    spec = AlgebraSpec.nakayama([2, 2], cyclic=True)
    cat, eng = category_for(spec), engine_for(spec)
    pairs = polygon_deformation_pairs(eng)
    assert len(pairs) == 1
    assert sorted(pairs[0]["sides"]) == [3, 3]
    posets = _posets(eng)
    c1 = eng.class_of(pairs[0]["first"])
    c2 = eng.class_of(pairs[0]["second"])
    for poset in posets.values():
        assert not poset.leq[c1][c2]
        assert not poset.leq[c2][c1]


def test_example_polygon_sides(example_engine):
    # every detected polygon deformation over the three-vertex quiver is a
    # square (2,2) or pentagon-like (2,k); no unoriented ones
    for p in polygon_deformation_pairs(example_engine):
        assert min(p["sides"]) == 2


def _all_pairs_polygons(engine):
    """Oracle: compare every two sequences; keep those whose torsion chains
    split at one class, meet again at the first shared class below, and
    whose top and bottom there share n-2 silting summands."""
    all_mgs = engine.enumerate_mgs()
    chains = [engine.torsion_chain(g) for g in all_mgs]
    found = []
    for k in range(len(all_mgs)):
        for l in range(k + 1, len(all_mgs)):
            ck, cl = chains[k], chains[l]
            a = 0
            while a < min(len(ck), len(cl)) and ck[a] == cl[a]:
                a += 1
            b = 0
            while (b < min(len(ck), len(cl))
                   and ck[len(ck) - 1 - b] == cl[len(cl) - 1 - b]):
                b += 1
            if a == 0 or b == 0 or a + b > min(len(ck), len(cl)):
                continue
            if set(ck[a:len(ck) - b]) & set(cl[a:len(cl) - b]):
                continue
            top, bottom = ck[a - 1], ck[len(ck) - b]
            shared = (engine.silting_summands(top)
                      & engine.silting_summands(bottom))
            if len(shared) != engine.cat.n - 2:
                continue
            found.append({"first": k, "second": l,
                          "sides": (len(ck) - b - a + 1, len(cl) - b - a + 1)})
    return found


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_polygon_pairs_match_all_pairs_search(spec):
    eng = engine_for(spec)
    assert polygon_deformation_pairs(eng) == _all_pairs_polygons(eng)


def test_polygon_chain_missing_from_the_index_is_a_violation():
    eng = GreenEngine(ModuleCategory(AlgebraSpec.type_a("<")))
    eng.enumerate_mgs()
    del eng._index[eng.enumerate_mgs()[0].bricks]
    with pytest.raises(InvariantViolation, match="not an enumerated"):
        polygon_deformation_pairs(eng)


def test_polygon_without_shared_summands_is_a_violation(monkeypatch):
    eng = GreenEngine(ModuleCategory(AlgebraSpec.type_a("<>")))
    monkeypatch.setattr(eng, "silting_summands", lambda tors: frozenset())
    with pytest.raises(InvariantViolation, match="silting summands"):
        polygon_deformation_pairs(eng)


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
