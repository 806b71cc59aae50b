"""Green-sequence engine: enumeration, summands, swaps, HN filtrations."""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory, ModuleSum, green
from greenseq.errors import GateError, UsageError
from greenseq.green import MGS, SiltingSummand

from conftest import (EXAMPLE_QUIVER, category_for, engine_for, full_battery,
                      ids_of, members, names_of)


def mgs_of(cat, names):
    return MGS(ids_of(cat, names))


def summand_names(cat, summands):
    out = []
    for s in sorted(summands):
        if s.shifted:
            out.append(cat.display(cat.projectives[s.value]) + "[1]")
        else:
            out.append(cat.display(s.value))
    return out


# -- enumeration -------------------------------------------------------------

def test_a1_single_sequence():
    eng = engine_for(AlgebraSpec.type_a(""))
    assert [g.bricks for g in eng.enumerate_mgs()] == [(0,)]


def test_a2_two_sequences(a2_cat, a2_engine):
    seqs = [names_of(a2_cat, g.bricks) for g in a2_engine.enumerate_mgs()]
    assert seqs == [["1", "2"], ["2", "12", "1"]]


def test_example_ten_sequences(example_cat, example_engine):
    seqs = [names_of(example_cat, g.bricks)
            for g in example_engine.enumerate_mgs()]
    assert seqs == [
        ["1", "2", "32", "3"],
        ["1", "3", "2"],
        ["2", "12", "1", "32", "3"],
        ["2", "12", "32", "132", "1", "3"],
        ["2", "12", "32", "132", "3", "1"],
        ["2", "32", "12", "132", "1", "3"],
        ["2", "32", "12", "132", "3", "1"],
        ["2", "32", "3", "12", "1"],
        ["3", "1", "2"],
        ["3", "2", "12", "1"],
    ]


@pytest.mark.parametrize("spec", [EXAMPLE_QUIVER, AlgebraSpec.type_a("<<<"),
                                  AlgebraSpec.nakayama([3, 2, 1])],
                         ids=lambda s: s.label())
def test_sequence_at_unranks_every_index(spec, monkeypatch):
    listed = GreenEngine(ModuleCategory(spec)).enumerate_mgs()

    def refuse(*args):
        raise AssertionError("sequences walked")

    monkeypatch.setattr(GreenEngine, "_walk", refuse)
    eng = GreenEngine(ModuleCategory(spec))
    assert [eng.sequence_at(k) for k in range(len(listed))] == listed
    with pytest.raises(UsageError, match=rf"index {len(listed)} out of range "
                                         rf"0\.\.{len(listed) - 1}$"):
        eng.sequence_at(len(listed))


def test_sequence_at_unranks_the_last_index_of_a_line():
    eng = engine_for(AlgebraSpec.type_a("<<<<"))
    listed = eng.enumerate_mgs()
    assert eng.sequence_at(len(listed) - 1) == listed[-1]


def test_sequence_gate_bounds_only_the_listings(monkeypatch):
    # the classes and unranking list no sequence, so the gate leaves them be
    monkeypatch.setattr(green, "SEQUENCE_GATE", 9)
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    assert len(eng.equivalence_classes()) == 6
    assert eng.sequence_at(9) == MGS(ids_of(eng.cat, ["3", "2", "12", "1"]))
    for listing in (eng.sequence_walk, eng.class_members):
        with pytest.raises(GateError, match="sequence gate of 9"):
            listing()


def test_sequence_gate_counts_before_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "_walk", refuse)
    monkeypatch.setattr(green, "SEQUENCE_GATE", 9)
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    with pytest.raises(GateError) as exc:
        eng.enumerate_mgs()
    assert str(exc.value) == ("10 maximal green sequences exceed the "
                              "sequence gate of 9; they are not listed")


def test_sequence_gate_admits_exactly_the_count(monkeypatch):
    monkeypatch.setattr(green, "SEQUENCE_GATE", 10)
    eng = GreenEngine(ModuleCategory(EXAMPLE_QUIVER))
    assert len(eng.enumerate_mgs()) == 10


def test_default_sequence_gate_admits_the_six_vertex_line():
    # typeA <<<<< has the fewest sequences of the six-vertex orientations
    lattice = ModuleCategory(AlgebraSpec.type_a("<<<<<")).generated_lattice()
    assert lattice.maximal_chain_count() == 340549 <= green.SEQUENCE_GATE


def _insertion_dfs(eng):
    """Oracle: every backward Hom-orthogonal brick sequence, built brick
    by brick in increasing id order and kept when no brick can be
    inserted anywhere."""
    cat, out = eng.cat, []
    hom = cat.hom_table
    # after[b]: the bricks y that may sit after b, hom(y, b) = 0
    after = {b: sum(1 << y for y in cat.bricks if hom[y][b] == 0)
             for b in cat.bricks}

    def dfs(prefix, cand):
        if cand == 0:
            if eng._insertion_maximal(tuple(prefix)) is None:
                out.append(MGS(tuple(prefix)))
            return
        m = cand
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            prefix.append(b)
            dfs(prefix, cand & after[b])
            prefix.pop()

    for b in cat.bricks:
        dfs([b], after[b])
    return out


@pytest.mark.parametrize(
    "spec", full_battery() + [AlgebraSpec.type_a("<<<<"),
                              AlgebraSpec.nakayama([3, 3, 3, 2, 1])],
    ids=lambda s: s.label())
def test_enumeration_matches_insertion_dfs(spec):
    eng = GreenEngine(ModuleCategory(spec))
    assert eng.enumerate_mgs() == _insertion_dfs(eng)


@st.composite
def _small_algebra(draw):
    """A type-A orientation word or an admissible linear Kupisch series
    (c_n = 1, 2 <= c_i <= c_{i+1} + 1) on at most five vertices."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return AlgebraSpec.type_a(draw(st.text("<>", min_size=n - 1,
                                               max_size=n - 1)))
    series = [1]
    while len(series) < n:
        series.insert(0, draw(st.integers(2, series[0] + 1)))
    return AlgebraSpec.nakayama(series)


# derandomized: a five-vertex type-A draw costs the oracle up to 4.5 s
@settings(max_examples=12, deadline=None, derandomize=True)
@given(_small_algebra())
def test_enumeration_matches_insertion_dfs_on_drawn_algebras(spec):
    eng = GreenEngine(ModuleCategory(spec))
    assert eng.enumerate_mgs() == _insertion_dfs(eng)


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_first_and_last_brick_simple(spec):
    cat, eng = category_for(spec), engine_for(spec)
    for g in eng.enumerate_mgs():
        assert cat.is_simple(g.bricks[0])
        assert cat.is_simple(g.bricks[-1])


# -- validity ------------------------------------------------------------------

def test_empty_sequence_invalid():
    eng = engine_for(AlgebraSpec.type_a(""))
    assert not eng.is_valid_mgs(())
    assert "inserted" in eng.explain_invalid(())


def test_a2_valid_and_invalid(a2_cat, a2_engine):
    assert a2_engine.is_valid_mgs(ids_of(a2_cat, ["2", "12", "1"]))
    reason = a2_engine.explain_invalid(ids_of(a2_cat, ["2", "1"]))
    assert reason is not None and "12" in reason


def test_orthogonality_failure_explained(a2_cat, a2_engine):
    reason = a2_engine.explain_invalid(ids_of(a2_cat, ["12", "2", "1"]))
    assert reason is not None and "hom(" in reason


def test_non_brick_rejected():
    spec = AlgebraSpec.nakayama([3, 3], cyclic=True)
    cat, eng = category_for(spec), engine_for(spec)
    reason = eng.explain_invalid((cat.resolve_token("121"),))
    assert reason is not None and "brick" in reason


def _explain_invalid_pairwise(eng, seq):
    """Oracle: explain_invalid by pairwise Hom scans of the table.  A brick
    y fits after every B_i with hom(B_i, y) != 0 and before every B_i with
    hom(y, B_i) != 0; the least brick with the earliest such slot is the
    one reported as insertable."""
    cat = eng.cat
    hom = cat.hom_table
    for b in seq:
        if not (0 <= b < len(cat.catalog)):
            return f"id {b} is outside the catalog"
        if not cat.is_brick(b):
            return f"{cat.display(b)} is not a brick"
    if len(set(seq)) != len(seq):
        return "sequence repeats a brick"
    for j in range(len(seq)):
        for i in range(j):
            if hom[seq[j]][seq[i]] != 0:
                return (f"hom({cat.display(seq[j])}, "
                        f"{cat.display(seq[i])}) != 0 for positions "
                        f"{i + 1} < {j + 1}")
    slots = []
    for y in cat.bricks:
        first = max((i + 1 for i, b in enumerate(seq) if hom[b][y]), default=0)
        last = min((i for i, b in enumerate(seq) if hom[y][b]), default=len(seq))
        if first <= last:
            slots.append((first, y))
    if slots:
        return f"not maximal: brick {cat.display(min(slots)[1])} can be inserted"
    return None


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_explain_invalid_matches_pairwise_scan(spec):
    eng = engine_for(spec)
    for g in eng.enumerate_mgs():
        seq = g.bricks
        candidates = [seq, seq[::-1]]
        candidates += [seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]
                       for i in range(len(seq) - 1)]
        candidates += [seq[:i] + seq[i + 1:] for i in range(len(seq))]
        for cand in candidates:
            assert eng.explain_invalid(cand) == _explain_invalid_pairwise(eng, cand)


# the catalogs of the drawn validity checks: the first three hold only
# bricks; cyclic 3,3 and 4,4,4 have non-bricks, so brick positions differ
# from catalog ids; typeA <x16 (153 bricks) is too long to list its
# sequences, so its base sequence is its simples in catalog order
VALIDITY_SPECS = [AlgebraSpec.nakayama([3, 3, 3, 2, 1]),
                  AlgebraSpec.nakayama([3, 3, 3], cyclic=True),
                  AlgebraSpec.nakayama([4, 4, 4, 4], cyclic=True),
                  AlgebraSpec.nakayama([3, 3], cyclic=True),
                  AlgebraSpec.nakayama([4, 4, 4], cyclic=True),
                  AlgebraSpec.type_a("<" * 16)]


@st.composite
def _perturbed_sequence(draw):
    """An algebra and a maximal green sequence of it, then up to three
    edits: a brick dropped, two bricks swapped, an entry repeated, or an
    entry set to a catalog id, an id outside the catalog or a non-brick."""
    spec = draw(st.sampled_from(VALIDITY_SPECS))
    eng = engine_for(spec)
    cat = eng.cat
    if spec.is_nakayama:
        count = cat.generated_lattice().maximal_chain_count()
        seq = list(eng.sequence_at(draw(st.integers(0, count - 1))).bricks)
    else:
        seq = list(cat.simples)
    size = len(cat.catalog)
    ids = {"set": st.integers(0, size - 1),
           "outside": st.sampled_from([-1, size, size + 7])}
    non_bricks = [x for x in range(size) if not cat.is_brick(x)]
    if non_bricks:
        ids["non-brick"] = st.sampled_from(non_bricks)
    for _ in range(draw(st.integers(0, 3))):
        if not seq:
            break
        edit = draw(st.sampled_from(["drop", "swap", "repeat", *ids]))
        i, j = (draw(st.integers(0, len(seq) - 1)) for _ in range(2))
        if edit == "drop":
            del seq[i]
        elif edit == "swap":
            seq[i], seq[j] = seq[j], seq[i]
        elif edit == "repeat":
            seq.insert(j, seq[i])
        else:
            seq[i] = draw(ids[edit])
    return eng, tuple(seq)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_perturbed_sequence())
def test_explain_invalid_matches_pairwise_scan_on_drawn_lists(case):
    eng, seq = case
    assert eng.explain_invalid(seq) == _explain_invalid_pairwise(eng, seq)


class _CountingRow(Sequence):
    """A Hom-table row that counts its reads."""

    def __init__(self, row, reads):
        self.row, self.reads = row, reads

    def __getitem__(self, i):
        self.reads[0] += 1
        return self.row[i]

    def __len__(self):
        return len(self.row)


def test_engine_build_reads_no_hom_entry():
    cat = ModuleCategory(AlgebraSpec.type_a("<" * 16))
    reads = [0]
    cat.hom_table = tuple(_CountingRow(row, reads) for row in cat.hom_table)
    eng = GreenEngine(cat)
    assert reads == [0]
    tables = ("perp_masks", "right_perp_masks")
    assert not any(name in cat.__dict__ for name in tables)
    assert eng.explain_invalid(cat.simples) is None
    assert reads[0] > 0 and all(name in cat.__dict__ for name in tables)


# -- torsion chains ---------------------------------------------------------------

def test_chain_length(example_cat, example_engine):
    g = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    chain = example_engine.torsion_chain(g)
    assert len(chain) == len(g.bricks) + 1
    assert chain[0] == (1 << 6) - 1
    assert chain[-1] == 0


def test_a2_chain_golden(a2_cat, a2_engine):
    chain = a2_engine.torsion_chain(mgs_of(a2_cat, ["1", "2"]))
    sets = [{a2_cat.display(i) for i in members(t)} for t in chain]
    assert sets == [{"1", "12", "2"}, {"2"}, set()]


def test_example_chain_right_path(example_cat, example_engine):
    g = mgs_of(example_cat, ["2", "32", "3", "12", "1"])
    chain = example_engine.torsion_chain(g)
    sets = [frozenset(example_cat.display(i) for i in members(t)) for t in chain]
    assert sets == [
        frozenset({"1", "12", "132", "2", "32", "3"}),
        frozenset({"12", "132", "32", "1", "3"}),
        frozenset({"12", "132", "1", "3"}),
        frozenset({"12", "1"}),
        frozenset({"1"}),
        frozenset(),
    ]


# -- silting summands ----------------------------------------------------------------

def test_example_summand_sets_golden(example_cat, example_engine):
    g1 = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    assert summand_names(example_cat, example_engine.summand_set(g1)) == [
        "12", "132", "2", "32", "3", "12[1]", "2[1]", "32[1]"]
    g2 = mgs_of(example_cat, ["2", "32", "3", "12", "1"])
    assert summand_names(example_cat, example_engine.summand_set(g2)) == [
        "1", "12", "132", "2", "32", "12[1]", "2[1]", "32[1]"]


def test_summand_count_invariant(example_cat, example_engine):
    for g in example_engine.enumerate_mgs():
        summ = example_engine.summand_set(g)
        assert len(summ) == example_cat.n + len(g.bricks)
        mods = [s for s in summ if not s.shifted]
        assert len(mods) == len(g.bricks)


def test_a2_exchange_pairs(a2_cat, a2_engine):
    p1, p2 = a2_cat.projectives
    short = a2_engine.exchange_pairs(mgs_of(a2_cat, ["1", "2"]))
    assert [(p.out, p.in_) for p in short] == [
        (SiltingSummand(False, p1), SiltingSummand(True, 0)),
        (SiltingSummand(False, p2), SiltingSummand(True, 1)),
    ]
    long = a2_engine.exchange_pairs(mgs_of(a2_cat, ["2", "12", "1"]))
    assert len(long) == 3
    outs = {p.out for p in long}
    assert SiltingSummand(False, p2) in outs


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_exchange_components_unique(spec):
    eng = engine_for(spec)
    for g in eng.enumerate_mgs():
        pairs = eng.exchange_pairs(g)
        assert len({p.out for p in pairs}) == len(pairs)
        assert len({p.in_ for p in pairs}) == len(pairs)


# -- square swaps ------------------------------------------------------------------------

def test_a2_no_swaps(a2_cat, a2_engine):
    g = mgs_of(a2_cat, ["2", "12", "1"])
    assert a2_engine.square_swap(g, 1) is None
    assert a2_engine.square_swap(g, 2) is None


def test_swap_blocked_by_extension(example_cat, example_engine):
    # bricks 1, 32 sit in positions 3, 4 of [2,12,1,32,3]; hom(1,32) = 0 but
    # the non-split sequence 0 -> 32 -> 132 -> 1 -> 0 gives ext(1,32) != 0,
    # so no square exists (indeed 132 would insert after the swap)
    one, m32 = ids_of(example_cat, ["1", "32"])
    assert example_cat.hom(one, m32) == 0
    assert example_cat.ext1(one, m32) == 1
    g = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    assert example_engine.square_swap(g, 3) is None


def test_swap_across_square(example_cat, example_engine):
    g = mgs_of(example_cat, ["1", "3", "2"])
    swapped = example_engine.square_swap(g, 1)
    assert names_of(example_cat, swapped.bricks) == ["3", "1", "2"]
    assert example_engine.square_swap(swapped, 1) == g


def test_swap_position_range(example_cat, example_engine):
    g = mgs_of(example_cat, ["1", "3", "2"])
    with pytest.raises(UsageError):
        example_engine.square_swap(g, 0)
    with pytest.raises(UsageError):
        example_engine.square_swap(g, 3)


def test_swaps_preserve_invariants(example_cat, example_engine):
    for g in example_engine.enumerate_mgs():
        for i in range(1, len(g.bricks)):
            swapped = example_engine.square_swap(g, i)
            if swapped is None:
                continue
            assert example_engine.summand_set(g) == example_engine.summand_set(swapped)
            assert (set(example_engine.exchange_pairs(g))
                    == set(example_engine.exchange_pairs(swapped)))
            assert (example_engine.stable_factor_function(g)
                    == example_engine.stable_factor_function(swapped))


# -- equivalence classes -------------------------------------------------------------------

def test_a2_two_singleton_classes(a2_engine):
    assert len(a2_engine.equivalence_classes()) == 2
    assert a2_engine.class_members() == [(0,), (1,)]


def test_example_six_classes(example_cat, example_engine):
    classes = example_engine.equivalence_classes()
    assert len(classes) == 6
    sizes = sorted(len(found) for found in example_engine.class_members())
    assert sizes == [1, 1, 1, 1, 2, 4]


def test_equal_bricks_different_classes(example_cat, example_engine):
    g1 = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    g2 = mgs_of(example_cat, ["2", "32", "3", "12", "1"])
    assert set(g1.bricks) == set(g2.bricks)
    c1 = example_engine.class_of(g1.bricks)
    c2 = example_engine.class_of(g2.bricks)
    assert c1 != c2


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_union_of_relative_simples_is_brick_set(spec):
    cat, eng = category_for(spec), engine_for(spec)
    for g in eng.enumerate_mgs():
        seen = set()
        for tors in eng.torsion_chain(g):
            seen |= members(cat.relative_simples(tors))
        assert seen == set(g.bricks)


# -- Harder-Narasimhan filtrations ------------------------------------------------------------

def test_brick_of_sequence_single_layer(example_cat, example_engine):
    g = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    m = example_cat.resolve_token("12")
    result = example_engine.hn_filtration(m, g)
    assert len(result.layers) == 1
    layer = result.layers[0]
    assert layer.brick == m and layer.multiplicity == 1
    assert layer.factor.ids == (m,)


def test_bhnf_short_a2(a2_cat, a2_engine):
    g = mgs_of(a2_cat, ["1", "2"])
    m = a2_cat.resolve_token("12")
    stable = a2_engine.stable_factors(m, g)
    assert {a2_cat.display(b): c for b, c in stable.items()} == {"1": 1, "2": 1}


def test_bhnf_long_a2_identity(a2_cat, a2_engine):
    g = mgs_of(a2_cat, ["2", "12", "1"])
    m = a2_cat.resolve_token("12")
    stable = a2_engine.stable_factors(m, g)
    assert {a2_cat.display(b): c for b, c in stable.items()} == {"12": 1}


def test_bhnf_example_short_sequence(example_cat, example_engine):
    g = mgs_of(example_cat, ["3", "1", "2"])
    m = example_cat.resolve_token("12")
    stable = example_engine.stable_factors(m, g)
    assert {example_cat.display(b): c for b, c in stable.items()} == {"1": 1, "2": 1}


def test_bhnf_distinguishes_named_sequences(example_cat, example_engine):
    m = example_cat.resolve_token("132")
    g1 = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    g2 = mgs_of(example_cat, ["2", "32", "3", "12", "1"])
    s1 = {example_cat.display(b): c
          for b, c in example_engine.stable_factors(m, g1).items()}
    s2 = {example_cat.display(b): c
          for b, c in example_engine.stable_factors(m, g2).items()}
    assert s1 == {"1": 1, "32": 1}
    assert s2 == {"3": 1, "12": 1}


def test_semistable_layer_with_multiplicity(a2_cat, a2_engine):
    # 2 + 12 along the short sequence: the factor at the last step is 2+2,
    # one semistable layer of multiplicity two
    g = mgs_of(a2_cat, ["1", "2"])
    m = ModuleSum(ids_of(a2_cat, ["2", "12"]))
    result = a2_engine.hn_filtration(m, g)
    assert [(l.position, a2_cat.display(l.brick), l.multiplicity)
            for l in result.layers] == [(1, "1", 1), (2, "2", 2)]
    assert a2_cat.display_sum(result.layers[1].factor) == "2+2"


def test_hn_additivity(example_cat, example_engine):
    g = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    size = len(example_cat.catalog)
    for x in range(size):
        for y in range(size):
            lhs = example_engine.stable_factors(ModuleSum((x, y)), g)
            rhs = (example_engine.stable_factors(x, g)
                   + example_engine.stable_factors(y, g))
            assert lhs == rhs


def test_stable_factor_function_identity_on_bricks(example_cat, example_engine):
    g = mgs_of(example_cat, ["2", "12", "1", "32", "3"])
    table = example_engine.stable_factor_function(g)
    for b in g.bricks:
        assert table[b] == ((b, 1),)


def test_stable_factors_of_module_outside_the_brick_set():
    # 21 is a brick of the OTHER green sequence of the cyclic [2,2] algebra;
    # along [2,12,1] it decomposes into the simples
    spec = AlgebraSpec.nakayama([2, 2], cyclic=True)
    cat, eng = category_for(spec), engine_for(spec)
    g = MGS(ids_of(cat, ["2", "12", "1"]))
    m21 = cat.resolve_token("21")
    stable = eng.stable_factors(m21, g)
    assert {cat.display(b): c for b, c in stable.items()} == {"2": 1, "1": 1}
