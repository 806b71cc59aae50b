"""Verification suites: how `all` composes the others, checks that run
instead of skipping, and the lemma battery, which reads the generated
lattice's per-class and per-cover tables, against the per-sequence loops
it replaces."""

import ast
import re
from collections import Counter
from itertools import combinations

import pytest

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory
from greenseq import modcat, orders
from greenseq.errors import GateError, InvariantViolation, UsageError
from greenseq.green import MGS, PATH_CHECKS, SiltingSummand
from greenseq.nakayama import NakayamaBackend
from greenseq.verify import (LATTICE_CHECKS, CheckResult, _filt_interval_check,
                             _orthogonal_brick_sets, _representation_directed_check,
                             _square_check, _unique_filtration_check, run_suite)

from conftest import (EXAMPLE_QUIVER, category_for, drop_last_chain, edit_walk,
                      engine_for, full_battery, ids_of, linear_nakayama_battery,
                      mask_of, members, repeat_last_chain, type_a_battery)
from test_modcat import _maximal_chains_by_recursion

LEMMA_EXTRA_SPECS = [AlgebraSpec.type_a("<<<<"),
                     AlgebraSpec.nakayama([3, 3, 3, 2, 1]),
                     AlgebraSpec.nakayama([3, 3, 3], cyclic=True)]


def test_all_suite_builds_each_order_once(monkeypatch):
    cat = ModuleCategory(AlgebraSpec.nakayama([3, 2, 1]))
    eng = GreenEngine(cat)
    built = []
    real = orders.build_order

    def counting(tag, engine):
        built.append(tag)
        return real(tag, engine)

    monkeypatch.setattr(orders, "build_order", counting)
    run_suite("all", eng)
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
    parts = [c.to_dict() for name in names for c in run_suite(name, eng)]
    assert [c.to_dict() for c in run_suite("all", eng)] == parts


def test_filt_interval_check_runs_beyond_twenty_classes():
    cat = category_for(AlgebraSpec.type_a("<><"))
    lattice = cat.torsion_lattice()
    assert len(lattice.classes) == 42
    check = _filt_interval_check(cat, lattice)
    assert check.passed
    assert check.detail == {"violations": []}


def _filt_interval_by_chains(cat, lattice):
    """Oracle: the filtration check chain by chain, over every maximal chain
    between two comparable classes, listed by recursion."""
    bad = []
    for ui, upper in enumerate(lattice.classes):
        for li, lower in enumerate(lattice.classes):
            if ui == li or lower & ~upper:
                continue
            expected = cat.interval_members(upper, lower)
            for chain in _maximal_chains_by_recursion(lattice, ui, li):
                labels = mask_of(lab for _, lab in chain)
                if cat.filt_mask(labels) != expected:
                    bad.append({"upper": sorted(members(upper)),
                                "lower": sorted(members(lower))})
    return CheckResult("interval-equals-filtration-of-chain-labels",
                       not bad, {"violations": bad})


@pytest.mark.parametrize("spec", full_battery() + LEMMA_EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_filt_interval_check_matches_per_chain_loop(spec):
    cat = category_for(spec)
    lattice = cat.torsion_lattice()
    assert _filt_interval_check(cat, lattice) == _filt_interval_by_chains(cat, lattice)


@pytest.mark.parametrize("spec", [AlgebraSpec.type_a("<><"),
                                  AlgebraSpec.nakayama([3, 3, 2, 1]),
                                  AlgebraSpec.nakayama([3, 3, 3], cyclic=True)],
                         ids=lambda s: s.label())
def test_failing_filt_interval_check_matches_per_chain_loop(spec, monkeypatch):
    cat = ModuleCategory(spec)
    real = cat.filt_mask
    # label sets of three or more bricks filter nothing
    monkeypatch.setattr(cat, "filt_mask", lambda labels: (
        0 if labels.bit_count() > 2 else real(labels)))
    lattice = cat.torsion_lattice()
    check = _filt_interval_check(cat, lattice)
    violations = check.detail["violations"]
    assert not check.passed
    # some pair is reported once for each of several failing chains
    assert len({str(v) for v in violations}) < len(violations)
    assert check == _filt_interval_by_chains(cat, lattice)


def test_gated_lemmas_report_each_lattice_check_as_skipped(monkeypatch):
    def lemmas():
        return run_suite("lemmas", GreenEngine(ModuleCategory(AlgebraSpec.type_a("<>"))))

    full = lemmas()
    monkeypatch.setattr(modcat, "SUBSET_GATE", 4)
    gated = lemmas()
    assert [c.name for c in gated] == [c.name for c in full]
    for before, after in zip(full, gated):
        if after.name in LATTICE_CHECKS:
            assert after.passed
            assert "gate of 4" in after.detail["skipped"]
        else:
            assert after.to_dict() == before.to_dict()
    assert sum(c.name in LATTICE_CHECKS for c in full) == len(LATTICE_CHECKS)


def test_gated_lemmas_skip_after_an_ungated_lattice_call(monkeypatch):
    # the lattice cached by the first call must not slip past the gate
    cat = ModuleCategory(AlgebraSpec.type_a("<>"))
    cat.torsion_lattice()
    monkeypatch.setattr(modcat, "SUBSET_GATE", 4)
    checks = run_suite("lemmas", GreenEngine(cat))
    skipped = [c.name for c in checks if "skipped" in c.detail]
    assert skipped == list(LATTICE_CHECKS)
    assert all("gate of 4" in c.detail["skipped"]
               for c in checks if c.name in LATTICE_CHECKS)


# -- the lemma battery against the per-sequence loops it replaces ---------------

def verify_phi(cat, eng, g):
    """Socle quotients of the non-simple bricks = non-projective module
    summands of the silting summand set (Nakayama only)."""
    if not cat.spec.is_nakayama:
        raise UsageError("the socle-quotient correspondence needs a Nakayama algebra")
    simples = set(cat.simples)
    left = {cat.backend.socle_quotient(b)
            for b in g.bricks if b not in simples}
    projs = set(cat.projectives)
    right = {s.value for s in eng.summand_set(g)
             if not s.shifted and s.value not in projs}
    return left == right


def oracle_lemmas(cat, eng):
    """The lemma battery as it ran sequence by sequence, through
    `torsion_chain`, `summand_set`, `exchange_pairs`,
    `stable_factor_function`, `square_swap` and `verify_phi`, less the HN
    additivity check."""
    checks = []
    all_mgs = eng.enumerate_mgs()

    def names(g):
        return [cat.display(b) for b in g.bricks]

    def add(name, bad):
        checks.append(CheckResult(name, not bad, {"violations": bad}))

    bad = []
    for l, n in combinations(cat.bricks, 2):
        if cat.hom(l, n) or cat.hom(n, l):
            continue
        for pair in ((l, n), (n, l)):
            for e in range(len(cat.catalog)):
                for rec in cat.sub_quotient_pairs(e):
                    if rec.sub.ids == (pair[0],) and rec.quot.ids == (pair[1],):
                        if not cat.is_brick(e):
                            bad.append(cat.display(e))
    add("extension-of-orthogonal-bricks-is-brick", bad)
    add("adjacent-hom-vanishing-forces-ext-vanishing",
        [[cat.display(a), cat.display(b)] for g in all_mgs
         for a, b in zip(g.bricks, g.bricks[1:])
         if cat.hom(a, b) == 0 and cat.ext1(b, a) != 0])
    add("first-and-last-brick-simple",
        [names(g) for g in all_mgs
         if not (cat.is_simple(g.bricks[0]) and cat.is_simple(g.bricks[-1]))])
    bad = []
    for g in all_mgs:
        seen = set()
        for tors in eng.torsion_chain(g):
            seen |= members(cat.relative_simples(tors))
        if seen != set(g.bricks):
            bad.append(names(g))
    add("chain-relative-simples-equal-brick-set", bad)
    bad = []
    for g in all_mgs:
        pairs = eng.exchange_pairs(g)
        outs = [p.out for p in pairs]
        ins = [p.in_ for p in pairs]
        if len(set(outs)) != len(outs) or len(set(ins)) != len(ins):
            bad.append(names(g))
    add("exchange-components-never-repeat", bad)
    bad = []
    for g in all_mgs:
        summ = eng.summand_set(g)
        mods = [s for s in summ if not s.shifted]
        if len(summ) != cat.n + len(g.bricks) or len(mods) != len(g.bricks):
            bad.append(names(g))
    add("summand-count-is-n-plus-length", bad)

    try:
        lattice = cat.torsion_lattice()
    except GateError as exc:
        checks += [CheckResult(name, True, {"skipped": str(exc)})
                   for name in LATTICE_CHECKS]
    else:
        degree = Counter()
        for up, lo, _ in lattice.covers:
            degree[up] += 1
            degree[lo] += 1
        bad = [i for i in range(len(lattice.classes)) if degree[i] != cat.n]
        checks.append(CheckResult(
            "torsion-lattice-degree-n-regular", not bad,
            {"violations": bad, "classes": len(lattice.classes)}))
        count = lattice.maximal_chain_count()
        checks.append(CheckResult(
            "mgs-count-matches-lattice-chains", count == len(all_mgs),
            {"chains": count, "sequences": len(all_mgs)}))
        bad = []
        for g in all_mgs:
            chain = eng.torsion_chain(g)
            for pos, (up, lo) in enumerate(zip(chain, chain[1:]), start=1):
                ui = lattice.index_of(up)
                li = lattice.index_of(lo)
                if dict(lattice.lower_covers[ui]).get(li) != g.bricks[pos - 1]:
                    bad.append({"mgs": names(g), "position": pos})
        add("chain-steps-are-labelled-lattice-covers", bad)
        checks.append(_filt_interval_check(cat, lattice))

    add("ext-formula-matches-presentation-oracle",
        [[cat.display(a), cat.display(b)]
         for a in range(len(cat.catalog)) for b in range(len(cat.catalog))
         if cat.ext1(a, b) != cat.ext1_presentation(a, b)])
    keys = {}

    def keys_of(g):
        """The three class keys of g, computed once per sequence."""
        if g not in keys:
            keys[g] = (eng.summand_set(g), set(eng.exchange_pairs(g)),
                       eng.stable_factor_function(g))
        return keys[g]

    bad = []
    for g in all_mgs:
        for i in range(1, len(g.bricks)):
            swapped = eng.square_swap(g, i)
            if swapped is not None and keys_of(g) != keys_of(swapped):
                bad.append({"mgs": names(g), "position": i})
    add("square-swaps-preserve-class-invariants", bad)

    if cat.spec.is_nakayama:
        checks.append(_unique_filtration_check(cat))
        add("socle-quotient-matches-summand-modules",
            [names(g) for g in all_mgs if not verify_phi(cat, eng, g)])
    else:
        add("interval-hom-dimensions-at-most-one",
            [[cat.display(a), cat.display(b)]
             for a in range(len(cat.catalog)) for b in range(len(cat.catalog))
             if cat.hom(a, b) > 1])
        checks.append(_representation_directed_check(cat))
    return checks


def _lemma_dicts(suite_or_oracle, spec):
    cat = ModuleCategory(spec)
    return [c.to_dict() for c in suite_or_oracle(cat, GreenEngine(cat))]


@pytest.mark.parametrize("spec", full_battery() + LEMMA_EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_lemmas_match_per_sequence_oracle(spec):
    new = _lemma_dicts(lambda cat, eng: run_suite("lemmas", eng), spec)
    assert new == _lemma_dicts(oracle_lemmas, spec)
    assert "hn-stable-factors-additive-over-sums" not in {
        c["check"] for c in new}


def _orthogonal_brick_sets_by_scan(cat):
    """Oracle: every brick subset, by size and then lexicographically,
    kept when its bricks are pairwise Hom-orthogonal."""
    hom = cat.hom_table
    return [combo for r in range(1, len(cat.bricks) + 1)
            for combo in combinations(cat.bricks, r)
            if not any(hom[a][b] or hom[b][a] for a, b in combinations(combo, 2))]


@pytest.mark.parametrize(
    "spec", [s for s in full_battery() if s.is_nakayama]
    + [AlgebraSpec.nakayama([4, 4, 4, 4], cyclic=True)], ids=lambda s: s.label())
def test_orthogonal_brick_sets_match_subset_scan(spec):
    cat = category_for(spec)
    assert list(_orthogonal_brick_sets(cat)) == _orthogonal_brick_sets_by_scan(cat)


def test_orthogonal_brick_sets_are_the_semibricks_of_cyclic_5_5_5_5_5():
    # one semibrick per non-zero torsion class (Asai, "Semibricks"); the
    # subset scan would read 2^25 sets
    cat = ModuleCategory(AlgebraSpec.nakayama([5] * 5, cyclic=True))
    sets = list(_orthogonal_brick_sets(cat))
    assert len(sets) == 251 == len(cat.generated_lattice().classes) - 1
    assert len(set(map(frozenset, sets))) == 251
    assert _unique_filtration_check(cat).passed


def test_lemmas_call_no_per_sequence_method(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("per-sequence method called")

    for name in ("torsion_chain", "summand_set", "exchange_pairs",
                 "stable_factor_function", "square_swap", "explain_invalid"):
        monkeypatch.setattr(GreenEngine, name, refuse)
    cat = ModuleCategory(AlgebraSpec.nakayama([3, 2, 1]))
    checks = run_suite("lemmas", GreenEngine(cat))
    assert checks and all(c.passed for c in checks)


@pytest.mark.parametrize("spec", [AlgebraSpec.type_a("<><"),
                                  AlgebraSpec.nakayama([3, 3, 3, 2, 1])],
                         ids=lambda s: s.label())
def test_suites_call_no_per_sequence_method(monkeypatch, spec):
    # the orders and theorems read the class masks, never a representative
    def refuse(*args):
        raise AssertionError("a per-sequence method was called")

    for name in ("torsion_chain", "summand_set", "exchange_pairs",
                 "stable_factor_function", "square_swap"):
        monkeypatch.setattr(GreenEngine, name, refuse)
    checks = run_suite("all", GreenEngine(ModuleCategory(spec)))
    assert checks and all(c.passed for c in checks)


# the 16 type-A orientations and the 14 linear Kupisch series on five vertices
FIVE_VERTEX_SPECS = [s for s in type_a_battery(5) + linear_nakayama_battery(5)
                     if s.n == 5]


@pytest.mark.parametrize("spec", FIVE_VERTEX_SPECS, ids=lambda s: s.label())
def test_all_suites_pass_at_five_vertices(spec):
    checks = run_suite("all", engine_for(spec))
    assert checks and all(c.passed for c in checks)
    assert not [c.name for c in checks if "skipped" in c.detail]


@pytest.mark.parametrize("spec", [AlgebraSpec.nakayama([3, 3, 3, 2, 1]),
                                  AlgebraSpec.type_a("<><")],
                         ids=lambda s: s.label())
def test_all_suites_walk_the_squares_once(spec, monkeypatch):
    # theorem A, the path checks and the square check read one comparison
    # of the squares: `run_suite("all")` makes as many commutation tests
    # inside `square_failures` as one call on a fresh engine does
    inside, tests = [], Counter()
    real_squares, real_commute = GreenEngine.square_failures, GreenEngine._commute

    def squares(self):
        inside.append(self)
        try:
            return real_squares(self)
        finally:
            inside.pop()

    def commute(self, a, b):
        if inside:
            tests[self] += 1
        return real_commute(self, a, b)

    monkeypatch.setattr(GreenEngine, "square_failures", squares)
    monkeypatch.setattr(GreenEngine, "_commute", commute)
    alone, suites = GreenEngine(category_for(spec)), GreenEngine(category_for(spec))
    alone.square_failures()
    checks = run_suite("all", suites)
    assert all(c.passed for c in checks)
    assert tests[alone] > 0 and tests[suites] == tests[alone]


# -- fault injection: each rewritten check reports a planted fault ---------------

def _failed(checks, name):
    check, = [c for c in checks if c.name == name]
    assert not check.passed
    return check.detail["violations"]


def test_patched_ext_entry_fails_the_adjacent_check():
    cat = ModuleCategory(EXAMPLE_QUIVER)
    eng = GreenEngine(cat)
    eng.equivalence_classes()
    a, b = next((a, b) for g in eng.enumerate_mgs()
                for a, b in zip(g.bricks, g.bricks[1:])
                if cat.hom_table[a][b] == 0)
    table = [list(row) for row in cat.ext1_table]
    table[b][a] += 1
    cat.ext1_table = tuple(map(tuple, table))
    checks = run_suite("lemmas", eng)
    pair = [cat.display(a), cat.display(b)]
    assert pair in _failed(checks, "adjacent-hom-vanishing-forces-ext-vanishing")
    assert pair[::-1] in _failed(checks, "ext-formula-matches-presentation-oracle")


def test_patched_projective_cover_fails_the_ext_oracle(monkeypatch):
    # the syzygy of the simple 1 gains its projective cover 123, so the
    # presentation overcounts Ext^1(1, N) by hom(123, N), which is non-zero
    # for N = 1, 12, 123 only; the Ext table never reads the cover
    cat = ModuleCategory(AlgebraSpec.nakayama([3, 2, 1]))
    one = cat.resolve_token("1")
    real = NakayamaBackend.projective_cover

    def padded(self, i):
        p0, omega = real(self, i)
        return (p0, tuple(sorted(omega + p0))) if i == one else (p0, omega)

    monkeypatch.setattr(NakayamaBackend, "projective_cover", padded)
    checks = run_suite("lemmas", GreenEngine(cat))
    assert _failed(checks, "ext-formula-matches-presentation-oracle") == [
        ["1", "1"], ["1", "12"], ["1", "123"]]


def test_patched_elimination_fails_the_interval_hom_check(monkeypatch):
    # the check reads every pair's solution by elimination: one solution
    # above 1 and one that differs from the Hom table are both reported
    cat = ModuleCategory(EXAMPLE_QUIVER)
    above, differs = (0, 0), (0, 1)
    table = [list(row) for row in cat.solved_hom_table]
    table[above[0]][above[1]] = 2
    table[differs[0]][differs[1]] = 1 - table[differs[0]][differs[1]]
    monkeypatch.setattr(cat, "solved_hom_table", tuple(map(tuple, table)))
    checks = run_suite("lemmas", GreenEngine(cat))
    assert _failed(checks, "interval-hom-dimensions-at-most-one") == [
        [cat.display(a), cat.display(b)] for a, b in (above, differs)]


def test_non_simple_end_label_fails_the_end_check(monkeypatch):
    cat = ModuleCategory(EXAMPLE_QUIVER)
    one = cat.resolve_token("1")
    real = cat.is_simple
    monkeypatch.setattr(cat, "is_simple", lambda i: i != one and real(i))
    checks = run_suite("lemmas", GreenEngine(cat))
    # one cover below the top and one above the bottom carry the label 1
    assert _failed(checks, "first-and-last-brick-simple") == ["1", "1"]


def _assert_fault_matches_oracle(spec, name):
    new = _lemma_dicts(lambda cat, eng: run_suite("lemmas", eng), spec)
    old = _lemma_dicts(oracle_lemmas, spec)
    check, = [c for c in new if c["check"] == name]
    assert not check["passed"] and check["detail"]["violations"]
    assert check in old


def test_patched_relative_simples_fail_like_the_oracle(monkeypatch):
    real = ModuleCategory.relative_simples

    def patched(self, tors):
        found = real(self, tors)
        return 0 if tors == (1 << len(self.catalog)) - 1 else found

    monkeypatch.setattr(ModuleCategory, "relative_simples", patched)
    _assert_fault_matches_oracle(EXAMPLE_QUIVER,
                                 "chain-relative-simples-equal-brick-set")


def test_merged_exchange_components_fail_like_the_oracle(monkeypatch):
    # two outgoing summands of one sequence are merged; no two exchange
    # pairs become equal, so the classes do not change
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    every = {p for g in eng.enumerate_mgs() for p in eng.exchange_pairs(g)}

    def ins(out):
        return {p.in_ for p in every if p.out == out}

    keep, merged = next(
        (p.out, q.out) for g in eng.enumerate_mgs()
        for p, q in combinations(eng.exchange_pairs(g), 2)
        if ins(p.out).isdisjoint(ins(q.out)) and p.out not in ins(q.out))
    keep, merged = map(eng.cover_table().summands.index, (keep, merged))
    real = GreenEngine._cover_exchange

    def patched(self, up, lo):
        out, in_ = real(self, up, lo)
        return (keep, in_) if out == merged else (out, in_)

    monkeypatch.setattr(GreenEngine, "_cover_exchange", patched)
    _assert_fault_matches_oracle(EXAMPLE_QUIVER,
                                 "exchange-components-never-repeat")


def test_shifted_projective_summand_fails_like_the_oracle(monkeypatch):
    # a projective module summand renamed as a shifted one, a bit past
    # the summands that decodes to P_99[1]: the summand sets keep their
    # sizes and the classes do not change
    real_init, real = GreenEngine.__init__, GreenEngine.silting_summands

    def init(self, cat):
        real_init(self, cat)
        self._summands.append(SiltingSummand(True, 99))

    def patched(self, tors):
        proj, fake = 1 << self.cat.projectives[0], 1 << len(self._summands) - 1
        found = real(self, tors)
        return found & ~proj | fake if found & proj else found

    monkeypatch.setattr(GreenEngine, "__init__", init)
    monkeypatch.setattr(GreenEngine, "silting_summands", patched)
    _assert_fault_matches_oracle(EXAMPLE_QUIVER,
                                 "summand-count-is-n-plus-length")


def test_patched_socle_quotient_fails_like_the_oracle(monkeypatch):
    spec = AlgebraSpec.nakayama([3, 2, 1])
    real = NakayamaBackend.socle_quotient

    def patched(self, i):
        quot = real(self, i)
        return None if quot is None else (quot + 1) % len(self.catalog)

    monkeypatch.setattr(NakayamaBackend, "socle_quotient", patched)
    _assert_fault_matches_oracle(spec, "socle-quotient-matches-summand-modules")


def test_mislabelled_oracle_cover_fails_the_cover_check():
    cat = ModuleCategory(EXAMPLE_QUIVER)
    oracle = cat.torsion_lattice()
    (up, lo, lab), *rest = oracle.covers
    other = next(b for b in cat.bricks if b != lab)
    cat._lattice = oracle._replace(covers=((up, lo, other), *rest))
    checks = run_suite("lemmas", GreenEngine(cat))
    assert _failed(checks, "chain-steps-are-labelled-lattice-covers") == [
        {"upper": sorted(members(oracle.classes[up])),
         "lower": sorted(members(oracle.classes[lo]))}]


@pytest.mark.parametrize("edit, walked", [(drop_last_chain, 9),
                                          (repeat_last_chain, 11)],
                         ids=["short", "long"])
def test_count_check_counts_the_walked_chains(monkeypatch, edit, walked):
    # the check sums the group tails of the walk
    edit_walk(monkeypatch, edit)
    cat = ModuleCategory(EXAMPLE_QUIVER)
    check = next(c for c in run_suite("lemmas", GreenEngine(cat))
                 if c.name == "mgs-count-matches-lattice-chains")
    assert check.to_dict() == {"check": "mgs-count-matches-lattice-chains",
                               "passed": False,
                               "detail": {"chains": 10, "sequences": walked}}


def _patch_square_side(eng, patch):
    """Replace, in the cover table, the row list of the first class below
    which two covers a then b commute by patch(rows, k), k the position of
    the row of the other side's first cover, labelled b; return the class."""
    table = eng.cover_table()
    steps = table.steps
    for top, rows in steps.items():
        for a, mid, *_ in rows:
            for b, *_ in steps[mid]:
                if eng._commute(a, b):
                    k = next(j for j, row in enumerate(rows) if row[0] == b)
                    eng._cover_table = table._replace(
                        steps={**steps, top: patch(list(rows), k)})
                    return top
    raise AssertionError("no square")


def test_patched_square_side_fails_the_square_check():
    cat = ModuleCategory(EXAMPLE_QUIVER)
    eng = GreenEngine(cat)

    def patch(rows, k):
        b, lo, s, e, f, *rest = rows[k]
        rows[k] = (b, lo, s, e, f | 1 << 300, *rest)
        return rows

    top = _patch_square_side(eng, patch)
    check = _square_check(eng)
    assert not check.passed
    assert check.detail["violations"]
    assert all(v["class"] == sorted(members(cat.generated_lattice().classes[top]))
               for v in check.detail["violations"])


def _path_failures_by_chain(eng):
    """Oracle: for each of the PATH_CHECKS, the sequences whose own
    `cover_table` rows, ORed down the chain, fail it, in lexicographic
    order."""
    table = eng.cover_table()
    summands, summ, steps = table.summands, table.summand_masks, table.steps
    lattice = eng.cat.generated_lattice()
    modules = {i for i, s in enumerate(summands) if not s.shifted}
    failures = {name: [] for name in PATH_CHECKS}
    for g in sorted(eng.enumerate_mgs(), key=lambda g: g.bricks):
        c, folded = lattice.top, [summ[lattice.top], 0, 0, 0, 0]
        for b in g.bricks:
            row, = [row for row in steps[c] if row[0] == b]
            c = row[1]
            for i, mask in enumerate((row[2], *row[5:])):
                folded[i] |= mask
        s, r, x, q, m = folded
        held = (r == sum(1 << b for b in g.bricks),
                x.bit_count() == 2 * len(g.bricks),
                sum(s >> i & 1 for i in modules) == len(g.bricks), q == m)
        for name, ok in zip(PATH_CHECKS, held):
            if not ok:
                failures[name].append(g.bricks)
    return failures


def test_path_column_differing_on_a_square_falls_back_to_every_chain():
    # the relative-simples mask of one square side gains the bit of brick
    # 12: the square check fails there, no normal form fails, and the
    # chains through that side that do not take 12 fail the path check
    cat = ModuleCategory(EXAMPLE_QUIVER)
    eng = GreenEngine(cat)
    twelve = cat.resolve_token("12")

    def patch(rows, k):
        b, lo, s, e, f, r, *rest = rows[k]
        rows[k] = (b, lo, s, e, f, r | 1 << twelve, *rest)
        return rows

    top = _patch_square_side(eng, patch)
    forms = {c.representative.bricks for c in eng.equivalence_classes()}
    expected = _path_failures_by_chain(eng)
    failing = {labels for found in expected.values() for labels in found}
    assert failing and not failing & forms
    checks = run_suite("lemmas", eng)
    squares = _failed(checks, "square-swaps-preserve-class-invariants")
    assert all(v["class"] == sorted(members(cat.generated_lattice().classes[top]))
               for v in squares)
    assert eng.path_failures() == expected
    for name in PATH_CHECKS[:3]:
        check, = [c for c in checks if c.name == name]
        assert check.detail["violations"] == [
            [cat.display(b) for b in labels] for labels in expected[name]]


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_lemmas_list_no_sequence(spec, monkeypatch):
    def lemmas(cat, eng):
        return run_suite("lemmas", eng)

    expected = _lemma_dicts(lemmas, spec)

    def refuse(self):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "enumerate_mgs", refuse)
    assert _lemma_dicts(lemmas, spec) == expected


def test_patched_square_side_fails_theorem_a():
    # the square's failure is theorem A's witness: two sequences that
    # differ by a swap across the patched cover
    cat = ModuleCategory(EXAMPLE_QUIVER)
    eng = GreenEngine(cat)
    patched = []

    def patch(rows, k):
        b, lo, s, e, f, *rest = rows[k]
        patched.append(b)
        rows[k] = (b, lo, s, e, f | 1 << 300, *rest)
        return rows

    top = _patch_square_side(eng, patch)
    [check] = run_suite("theoremA", eng)
    assert check.name == "equivalence-criteria-agree" and not check.passed
    match = re.fullmatch(
        r"equivalence by square-swap closure disagrees with stable-factor "
        r"functions: sequences (\[.*\]) and (\[.*\])", check.detail["witness"])
    assert match, check.detail
    x, y = (ids_of(cat, ast.literal_eval(group)) for group in match.groups())
    i = next(i for i in range(len(x)) if x[i] != y[i])
    assert x[:i] + (x[i + 1], x[i]) + x[i + 2:] == y
    top_class = cat.generated_lattice().classes[top]
    assert any(eng.torsion_chain(MGS(z))[j] == top_class
               and z[j] == patched[0]
               for z in (x, y) for j in (i, i + 1))


def test_removed_square_side_raises():
    cat = ModuleCategory(EXAMPLE_QUIVER)
    eng = GreenEngine(cat)
    _patch_square_side(eng, lambda rows, k: rows[:k] + rows[k + 1:])
    with pytest.raises(InvariantViolation, match="square swap broke the sequence"):
        _square_check(eng)
