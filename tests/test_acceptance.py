"""Acceptance criteria, one test per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass/fail
line per criterion alongside the stated runtime budgets.
"""

import time

from greenseq import AlgebraSpec
from greenseq.green import MGS
from greenseq.orders import build_order, check_extrema, orders_equal_report
from greenseq.verify import suite_lemmas, suite_theorem_a

from conftest import (CYCLIC_BATTERY, category_for, engine_for, full_battery,
                      ids_of, linear_nakayama_battery, members)
from test_modcat import EXAMPLE_COVERS, EXAMPLE_LATTICE

EXAMPLE = AlgebraSpec.type_a("<>")
A2 = AlgebraSpec.type_a("<")

EXPECTED_SUMMAND_SETS = {
    frozenset({"12", "2", "32", "12[1]", "2[1]", "32[1]"}),
    frozenset({"1", "12", "2", "32", "12[1]", "2[1]", "32[1]"}),
    frozenset({"12", "2", "32", "3", "12[1]", "2[1]", "32[1]"}),
    frozenset({"1", "12", "132", "2", "32", "12[1]", "2[1]", "32[1]"}),
    frozenset({"12", "132", "2", "32", "3", "12[1]", "2[1]", "32[1]"}),
    frozenset({"1", "12", "132", "2", "32", "3", "12[1]", "2[1]", "32[1]"}),
}


def report(name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' ' + extra if extra else ''}")
    assert ok, name


def summand_tokens(cat, key):
    out = set()
    for s in key:
        if s.shifted:
            out.add(cat.display(cat.projectives[s.value]) + "[1]")
        else:
            out.add(cat.display(s.value))
    return frozenset(out)


def test_criterion_1_example_golden_run():
    t0 = time.monotonic()
    cat = category_for(EXAMPLE)
    eng = engine_for(EXAMPLE)

    ok = len(cat.catalog) == 6 and all(cat.is_brick(i) for i in range(6))

    lattice = cat.torsion_lattice()
    ok = ok and len(lattice.classes) == 14
    named = {frozenset(v): k for k, v in EXAMPLE_LATTICE.items()}
    got_covers = set()
    for up, lo, label in lattice.covers:
        upper = frozenset(cat.display(i) for i in members(lattice.classes[up]))
        lower = frozenset(cat.display(i) for i in members(lattice.classes[lo]))
        got_covers.add((named[upper], named[lower], cat.display(label)))
    ok = ok and got_covers == EXAMPLE_COVERS

    all_mgs = eng.enumerate_mgs()
    ok = ok and len(all_mgs) == 10

    classes = eng.equivalence_classes()
    ok = ok and len(classes) == 6
    ok = ok and {summand_tokens(cat, c.key) for c in classes} == EXPECTED_SUMMAND_SETS

    g1 = ids_of(cat, ["2", "12", "1", "32", "3"])
    g2 = ids_of(cat, ["2", "32", "3", "12", "1"])
    ok = ok and set(g1) == set(g2)
    ok = ok and eng.class_of(g1) != eng.class_of(g2)

    elapsed = time.monotonic() - t0
    report("criterion-1 example golden run", ok and elapsed < 5.0,
           f"({elapsed:.2f}s)")


def test_criterion_2_class_poset_shape():
    cat = category_for(EXAMPLE)
    eng = engine_for(EXAMPLE)
    posets = {tag: build_order(tag, eng) for tag in ("pentagon", "summand", "hn")}
    ok = orders_equal_report(list(posets.values()))["equal"]

    def cls(names):
        return eng.class_of(ids_of(cat, names))

    mx = cls(["1", "3", "2"])
    l2 = cls(["1", "2", "32", "3"])
    r2 = cls(["3", "2", "12", "1"])
    l1 = cls(["2", "12", "1", "32", "3"])
    r1 = cls(["2", "32", "3", "12", "1"])
    mn = cls(["2", "12", "32", "132", "1", "3"])
    expected = {(mx, l2), (mx, r2), (l2, l1), (r2, r1), (l1, mn), (r1, mn)}
    for poset in posets.values():
        ok = ok and poset.size == 6 and set(poset.covers) == expected
    report("criterion-2 class poset shape", ok)


def test_criterion_3_a2_battery():
    t0 = time.monotonic()
    cat = category_for(A2)
    eng = engine_for(A2)
    all_mgs = eng.enumerate_mgs()
    ok = len(all_mgs) == 2

    short = MGS(ids_of(cat, ["1", "2"]))
    stable = eng.stable_factors(cat.resolve_token("12"), short)
    ok = ok and {cat.display(b): m for b, m in stable.items()} == {"1": 1, "2": 1}

    lo = eng.class_of(ids_of(cat, ["2", "12", "1"]))
    hi = eng.class_of(short.bricks)
    for tag in ("pentagon", "summand", "hn"):
        poset = build_order(tag, eng)
        ok = (ok and bool(poset.rows[lo] >> hi & 1)
              and not poset.rows[hi] >> lo & 1)

    elapsed = time.monotonic() - t0
    report("criterion-3 a2 battery", ok and elapsed < 1.0, f"({elapsed:.2f}s)")


def test_criterion_4_equivalence_agreement_battery():
    t0 = time.monotonic()
    ok = True
    for spec in full_battery():
        checks = suite_theorem_a(engine_for(spec))
        if not all(c.passed for c in checks):
            ok = False
            print(f"  disagreement on {spec.label()}")
    elapsed = time.monotonic() - t0
    report("criterion-4 equivalence agreement", ok and elapsed < 60.0,
           f"({elapsed:.1f}s, {len(full_battery())} algebras)")


def test_criterion_5_deformation_containment_battery():
    ok = True
    for spec in full_battery():
        eng = engine_for(spec)
        pent = build_order("pentagon", eng).rows
        for tag in ("summand", "hn"):
            other = build_order(tag, eng).rows
            if any(row & ~other[i] for i, row in enumerate(pent)):
                ok = False
                print(f"  containment fails for {tag} on {spec.label()}")
    report("criterion-5 deformation containment", ok)


def test_criterion_6_nakayama_order_equality():
    ok = True
    for spec in linear_nakayama_battery() + CYCLIC_BATTERY:
        eng = engine_for(spec)
        posets = [build_order(tag, eng)
                  for tag in ("pentagon", "summand", "hn", "brick")]
        if not orders_equal_report(posets)["equal"]:
            ok = False
            print(f"  orders differ on {spec.label()}")
        by_brickset = {}
        for g in eng.enumerate_mgs():
            by_brickset.setdefault(frozenset(g.bricks), set()).add(
                eng.class_of(g.bricks))
        if any(len(v) != 1 for v in by_brickset.values()):
            ok = False
            print(f"  equal bricks split classes on {spec.label()}")
    report("criterion-6 nakayama order equality", ok)


def test_criterion_7_lemma_suite_battery():
    ok = True
    for spec in full_battery():
        for check in suite_lemmas(engine_for(spec)):
            if not check.passed:
                ok = False
                print(f"  {check.name} fails on {spec.label()}: {check.detail}")
    report("criterion-7 lemma suite", ok)


def test_criterion_8_extrema_battery():
    ok = True
    for spec in full_battery():
        if spec.is_nakayama and spec.cyclic:
            continue
        eng = engine_for(spec)
        posets = {tag: build_order(tag, eng)
                  for tag in ("pentagon", "summand", "hn")}
        result = check_extrema(eng, posets)
        if not (result["applicable"] and result["passed"]):
            ok = False
            print(f"  extrema fail on {spec.label()}: {result}")
    report("criterion-8 extrema", ok)


def test_criterion_9_oracle_consistency():
    ok = True
    for spec in full_battery():
        cat, eng = category_for(spec), engine_for(spec)
        lattice = cat.torsion_lattice()
        if lattice.maximal_chain_count() != len(eng.enumerate_mgs()):
            ok = False
            print(f"  chain count mismatch on {spec.label()}")
        size = len(cat.catalog)
        for a in range(size):
            for b in range(size):
                if cat.ext1(a, b) != cat.ext1_presentation(a, b):
                    ok = False
                    print(f"  ext oracle mismatch on {spec.label()}")
                if not spec.is_nakayama and cat.hom(a, b) not in (0, 1):
                    ok = False
                    print(f"  hom dim out of range on {spec.label()}")
    report("criterion-9 oracle consistency", ok)
