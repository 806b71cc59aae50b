"""Module-category layer: hom/ext, closures, torsion submodules, lattice."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import AlgebraSpec, ModuleCategory, ModuleSum, cli, modcat
from greenseq.errors import GateError, InvariantViolation, UsageError
from greenseq.linalg import rank_exact, rank_mod_p
from greenseq.nakayama import NakayamaBackend
from greenseq.typea import TypeABackend

from conftest import (category_for, full_battery, ids_of, linear_nakayama_battery,
                      mask_of, members, type_a_battery)

# Torsion lattice of the quiver 1<-2->3 with brick labels on the covers.
EXAMPLE_LATTICE = {
    "full": {"1", "12", "132", "2", "32", "3"},
    "A": {"2", "32", "3"},
    "B": {"12", "132", "32", "1", "3"},
    "C": {"2", "12", "1"},
    "D": {"132", "32", "1", "3"},
    "E": {"12", "132", "1", "3"},
    "F": {"32", "3"},
    "G": {"132", "1", "3"},
    "H": {"12", "1"},
    "I": {"1", "3"},
    "J": {"3"},
    "K": {"2"},
    "L": {"1"},
    "bot": set(),
}
EXAMPLE_COVERS = {
    ("full", "A", "1"), ("full", "B", "2"), ("full", "C", "3"),
    ("B", "D", "12"), ("B", "E", "32"),
    ("A", "F", "2"), ("C", "H", "2"),
    ("A", "K", "3"), ("C", "K", "1"),
    ("D", "G", "32"), ("D", "F", "1"),
    ("E", "G", "12"), ("E", "H", "3"),
    ("G", "I", "132"),
    ("F", "J", "32"), ("H", "L", "12"),
    ("I", "J", "1"), ("I", "L", "3"),
    ("J", "bot", "3"), ("K", "bot", "2"), ("L", "bot", "1"),
}


# -- hom -----------------------------------------------------------------

def test_hom_simples_delta(example_cat):
    s = example_cat.simples
    for i, a in enumerate(s):
        for j, b in enumerate(s):
            assert example_cat.hom(a, b) == (1 if i == j else 0)


def test_hom_projection_to_top():
    cat = category_for(AlgebraSpec.nakayama([2, 1]))
    m, top = ids_of(cat, ["12", "1"])
    assert cat.hom(m, top) == 1
    assert cat.hom(top, m) == 0


def test_self_hom_of_long_cyclic_uniserial():
    # over the cyclic series [3,3] the layer pattern 1,2,1 repeats a top,
    # giving a two-dimensional endomorphism ring
    cat = category_for(AlgebraSpec.nakayama([3, 3], cyclic=True))
    m = cat.resolve_token("121")
    assert cat.hom(m, m) == 2
    assert not cat.is_brick(m)


def test_brick_on_longer_cycle():
    cat = category_for(AlgebraSpec.nakayama([3, 3, 3], cyclic=True))
    m = cat.resolve_token("123")
    assert cat.hom(m, m) == 1
    assert cat.is_brick(m)


def test_example_quiver_hom_values(example_cat):
    c = example_cat
    pairs = {
        ("2", "12"): 1,   # socle embedding
        ("12", "2"): 0,
        ("12", "1"): 1,   # top projection
        ("1", "12"): 0,
        ("12", "132"): 1,
        ("132", "12"): 0,
        ("132", "1"): 1,
        ("1", "132"): 0,
        ("132", "2"): 0,
        ("12", "32"): 0,
        ("32", "12"): 0,
    }
    for (a, b), expected in pairs.items():
        assert c.hom(*ids_of(c, [a, b])) == expected, (a, b)


def test_exact_mode_agrees(example_cat):
    exact = ModuleCategory(example_cat.spec, exact=True)
    size = len(example_cat.catalog)
    for a in range(size):
        for b in range(size):
            assert example_cat.hom(a, b) == exact.hom(a, b)
            assert example_cat.ext1(a, b) == exact.ext1(a, b)


def _assert_hom_table_matches_elimination(spec):
    """The backend's closed-form table against dim Hom solved by
    elimination, pair by pair: over F_p here, and over the rationals by
    the exact build, which raises on the first pair that differs (see
    test_flipped_hom_entry_fails_the_exact_build)."""
    ModuleCategory(spec, exact=True)
    cat = ModuleCategory(spec)
    size = len(cat.catalog)
    for a in range(size):
        for b in range(size):
            assert cat.hom_table[a][b] == cat.solved_hom_table[a][b], (
                spec.label(), a, b)


# every type-A word on at most 7 vertices, every admissible linear Kupisch
# series on at most 5, the cyclic battery, two long type-A quivers, and
# cyclic series whose modules wrap the cycle, with dimension 2 or 3 at a
# vertex
HOM_SWEEP = list(dict.fromkeys(
    full_battery() + type_a_battery(7) + linear_nakayama_battery(5)
    + [AlgebraSpec.type_a("<" * 16), AlgebraSpec.type_a("<>" * 8)]
    + [AlgebraSpec.nakayama(c, cyclic=True)
       for c in ([5, 5], [7, 7, 7], [7, 7, 7, 7])]))


@pytest.mark.parametrize("spec", HOM_SWEEP, ids=lambda s: s.label())
def test_exact_and_prime_field_hom_tables_equal(spec):
    _assert_hom_table_matches_elimination(spec)


def _cyclic_kupisch(series):
    """Lower entries until c_i <= c_{i+1} + 1 holds all round the cycle."""
    c = list(series)
    while any(x > c[(i + 1) % len(c)] + 1 for i, x in enumerate(c)):
        c = [min(x, c[(i + 1) % len(c)] + 1) for i, x in enumerate(c)]
    return c


# type-A words on 8 to 12 vertices (the sweep has every shorter one) and
# cyclic Kupisch series on at most 5 vertices
_drawn_specs = st.one_of(
    st.integers(7, 11).flatmap(
        lambda k: st.text("<>", min_size=k, max_size=k)).map(AlgebraSpec.type_a),
    st.lists(st.integers(2, 6), min_size=2, max_size=5).map(
        lambda c: AlgebraSpec.nakayama(_cyclic_kupisch(c), cyclic=True)))


# derandomized: a twelve-vertex type-A draw costs the eliminations 0.25 s
@settings(max_examples=20, deadline=None, derandomize=True)
@given(_drawn_specs)
def test_hom_table_matches_elimination_on_drawn_algebras(spec):
    _assert_hom_table_matches_elimination(spec)


@pytest.mark.parametrize("spec, backend", [
    (AlgebraSpec.type_a("<>"), TypeABackend),
    (AlgebraSpec.nakayama([3, 2, 2], cyclic=True), NakayamaBackend),
], ids=["typeA", "nakayama"])
def test_flipped_hom_entry_fails_the_exact_build(spec, backend, monkeypatch,
                                                 tmp_path, capsys):
    real = backend.hom_table
    cat = category_for(spec)
    a, b = 1, len(cat.catalog) - 1

    def flipped(self):
        table = [list(row) for row in real(self)]
        table[a][b] += 1
        return tuple(map(tuple, table))

    monkeypatch.setattr(backend, "hom_table", flipped)
    ModuleCategory(spec)
    with pytest.raises(InvariantViolation) as err:
        ModuleCategory(spec, exact=True)
    good = cat.hom_table[a][b]
    assert str(err.value) == (
        f"dim Hom({cat.display(a)}, {cat.display(b)}) is {good + 1} in the "
        f"Hom table but {good} by elimination")

    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert cli.main(["catalog", str(path)]) == 0
    assert cli.main(["--exact", "catalog", str(path)]) == 1
    assert str(err.value) in capsys.readouterr().err


# two entries of the Hom table of <>< flipped, the first in (a, b) order
# after the second in (b, a) order, or both in one row
@pytest.mark.parametrize("first, second", [((2, 5), (4, 1)), ((3, 2), (3, 7))])
def test_two_flipped_hom_entries_fail_the_exact_build_at_the_first(
        monkeypatch, first, second):
    spec = AlgebraSpec.type_a("<><")
    cat = category_for(spec)
    real = TypeABackend.hom_table

    def flipped(self):
        table = [list(row) for row in real(self)]
        for a, b in (second, first):
            table[a][b] = 1 - table[a][b]
        return tuple(map(tuple, table))

    monkeypatch.setattr(TypeABackend, "hom_table", flipped)
    with pytest.raises(InvariantViolation) as err:
        ModuleCategory(spec, exact=True)
    a, b = first
    good = cat.hom_table[a][b]
    assert str(err.value) == (
        f"dim Hom({cat.display(a)}, {cat.display(b)}) is {1 - good} in the "
        f"Hom table but {good} by elimination")


def _dense_system(cat, a, b):
    """(unknowns, rows) of the Hom system of (a, b) built densely, the
    oracle of `solved_hom_table`: unknowns numbered over every vertex, rows for
    every slot with a non-zero end, zero rows dropped."""
    M, N = cat.catalog[a], cat.catalog[b]
    offs, total = [], 0
    for v in range(cat.n):
        offs.append(total)
        total += M.dimvec[v] * N.dimvec[v]
    if not total:
        return 0, []
    rows = []
    for k, (s, d) in enumerate(cat.slots):
        if not M.dimvec[d] and not N.dimvec[s]:
            continue  # every row of this slot is zero
        TM, TN = M.matrices[k], N.matrices[k]
        for i in range(N.dimvec[d]):
            for j in range(M.dimvec[s]):
                row = [0] * total
                for t in range(M.dimvec[d]):
                    row[offs[d] + i * M.dimvec[d] + t] += TM[t][j]
                for t in range(N.dimvec[s]):
                    row[offs[s] + t * M.dimvec[s] + j] -= TN[i][t]
                if any(row):
                    rows.append(row)
    return total, rows


def _assert_hom_dims_match_dense_oracle(spec):
    """`solved_hom_table` against the dense, unmemoised elimination, pair by pair,
    over F_p and over the rationals."""
    prime, exact = ModuleCategory(spec), ModuleCategory(spec, exact=True)
    size = len(prime.catalog)
    for a in range(size):
        for b in range(size):
            total, rows = _dense_system(prime, a, b)
            assert prime.solved_hom_table[a][b] == total - rank_mod_p(rows), (
                a, b)
            assert exact.solved_hom_table[a][b] == total - rank_exact(rows), (
                a, b)


@pytest.mark.parametrize("spec", HOM_SWEEP, ids=lambda s: s.label())
def test_hom_dims_match_dense_elimination(spec):
    _assert_hom_dims_match_dense_oracle(spec)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_drawn_specs)
def test_hom_dims_match_dense_elimination_on_drawn_algebras(spec):
    _assert_hom_dims_match_dense_oracle(spec)


def _counting_rank_exact(monkeypatch) -> list[tuple]:
    """The rows of every exact elimination `modcat` runs from now on."""
    calls = []

    def counted(rows):
        calls.append(tuple(map(tuple, rows)))
        return rank_exact(rows)

    monkeypatch.setattr(modcat, "rank_exact", counted)
    return calls


# typeA <x16 has 15,657 pairs with a common support
@pytest.mark.parametrize("spec, count", [
    (AlgebraSpec.type_a("<" * 16), 64),
    (AlgebraSpec.nakayama([3, 3, 3], cyclic=True), 24),
], ids=["typeA-<x16", "nakayama-cyclic-3,3,3"])
def test_exact_build_eliminates_each_distinct_system_once(monkeypatch, spec,
                                                           count):
    calls = _counting_rank_exact(monkeypatch)
    cat = ModuleCategory(spec, exact=True)
    size = len(cat.catalog)
    systems = set()
    for a in range(size):
        for b in range(size):
            total, rows = _dense_system(cat, a, b)
            if total:
                systems.add(tuple(map(tuple, rows)))
    assert len(calls) == len(set(calls)) == len(systems) == count
    assert set(calls) == systems


# the pairs' restrictions repeat: 545 distinct keys among the 15,657
# pairs of <x16 with a common support, and as many on <>x8
@pytest.mark.parametrize("spec, builds, systems", [
    (AlgebraSpec.type_a("<" * 16), 545, 64),
    (AlgebraSpec.type_a("<>" * 8), 545, 121),
], ids=["typeA-<x16", "typeA-<>x8"])
def test_exact_build_builds_each_restricted_system_once(monkeypatch, spec,
                                                        builds, systems):
    calls = _counting_rank_exact(monkeypatch)
    real = ModuleCategory._hom_system
    built = []

    def counted(self, a, b):
        built.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(ModuleCategory, "_hom_system", counted)
    cat = ModuleCategory(spec, exact=True)
    assert len(built) == len(set(built)) == builds
    assert len(calls) == len(set(calls)) == systems
    # a second read of the table builds nothing more
    cat._check_hom_table()
    assert len(built) == builds and len(calls) == systems


def test_flipped_hom_entry_read_from_the_memo_fails_the_exact_build(
        monkeypatch):
    spec = AlgebraSpec.type_a("<<<<")
    cat = category_for(spec)
    size = len(cat.catalog)
    seen, repeats = set(), []
    for a in range(size):
        for b in range(size):
            total, rows = _dense_system(cat, a, b)
            key = tuple(map(tuple, rows))
            if total:
                if key in seen:
                    repeats.append((a, b, key))
                seen.add(key)
    # the last repeat, so that many systems are eliminated before it
    a, b, key = repeats[-1]
    real = TypeABackend.hom_table

    def flipped(self):
        table = [list(row) for row in real(self)]
        table[a][b] += 1
        return tuple(map(tuple, table))

    monkeypatch.setattr(TypeABackend, "hom_table", flipped)
    calls = _counting_rank_exact(monkeypatch)
    with pytest.raises(InvariantViolation) as err:
        ModuleCategory(spec, exact=True)
    assert calls.count(key) == 1  # eliminated for an earlier pair
    good = cat.hom_table[a][b]
    assert str(err.value) == (
        f"dim Hom({cat.display(a)}, {cat.display(b)}) is {good + 1} in the "
        f"Hom table but {good} by elimination")


# -- ext ------------------------------------------------------------------

def test_ext_vanishes_on_projectives(example_cat):
    for p in example_cat.projectives:
        for m in range(len(example_cat.catalog)):
            assert example_cat.ext1(p, m) == 0


def test_a2_simple_extension(a2_cat):
    # arrow 2 -> 1: the non-split extension 0 -> 2 -> 12 -> 1 -> 0
    one, two = ids_of(a2_cat, ["1", "2"])
    assert a2_cat.ext1(one, two) == 1
    assert a2_cat.ext1(two, one) == 0


def test_negative_ext_table_entry_raises(monkeypatch):
    real = TypeABackend.ext1_table

    def lowered(self, hom):
        table = [list(row) for row in real(self, hom)]
        table[-1][0] -= 1
        return tuple(map(tuple, table))

    monkeypatch.setattr(TypeABackend, "ext1_table", lowered)
    cat = ModuleCategory(AlgebraSpec.type_a("<"))
    first, last = cat.display(0), cat.display(len(cat.catalog) - 1)
    with pytest.raises(InvariantViolation, match=re.escape(
            f"negative Ext dimension for ({last}, {first}) in the Ext table")):
        cat.ext1(0, 0)


def test_padded_projective_cover_fails_the_presentation(monkeypatch):
    # P_0 of the simple 1 gains a second copy of its projective cover 123,
    # so the presentation undercounts Ext^1(1, N) by hom(123, N), which is
    # 1 for N = 1 and for N = 12
    real = NakayamaBackend.projective_cover
    cat = ModuleCategory(AlgebraSpec.nakayama([3, 2, 1]))
    one, twelve = ids_of(cat, ["1", "12"])

    def padded(self, i):
        p0, omega = real(self, i)
        return (tuple(sorted(p0 + p0)), omega) if i == one else (p0, omega)

    monkeypatch.setattr(NakayamaBackend, "projective_cover", padded)
    cat = ModuleCategory(AlgebraSpec.nakayama([3, 2, 1]))
    assert cat.ext1_presentation(twelve, one) == cat.ext1(twelve, one)
    with pytest.raises(InvariantViolation) as err:
        cat.ext1_presentation(one, ModuleSum((one, twelve)))
    assert str(err.value) == (
        "presentation gave negative Ext dimension for (1, 1+12)")
    with pytest.raises(InvariantViolation) as err:
        cat.ext1_presentation(cat.catalog[one], one)
    assert str(err.value) == "presentation gave negative Ext dimension for (1, 1)"


def test_example_nonsplit_extension_of_wide_module(example_cat):
    # 0 -> 12 -> 132 -> 3 -> 0 with hom vanishing both ways
    three, mid = ids_of(example_cat, ["3", "12"])
    assert example_cat.hom(three, mid) == 0
    assert example_cat.hom(mid, three) == 0
    assert example_cat.ext1(three, mid) == 1


def cyclic_kupisch(max_n, top):
    """All admissible cyclic Kupisch series with at most max_n vertices
    and entries 2..top: c_i <= c_{i+1} + 1 around the cycle."""
    return [AlgebraSpec.nakayama(s, cyclic=True) for n in range(1, max_n + 1)
            for s in itertools.product(range(2, top + 1), repeat=n)
            if all(c <= s[(i + 1) % n] + 1 for i, c in enumerate(s))]


def test_nakayama_ext_presentation_agreement():
    # the injective-envelope table against the projective presentation:
    # 65 linear and 124 cyclic series
    for spec in linear_nakayama_battery(6) + cyclic_kupisch(4, 5):
        cat = ModuleCategory(spec)
        size = len(cat.catalog)
        assert cat.ext1_table == tuple(
            tuple(cat.ext1_presentation(a, b) for b in range(size))
            for a in range(size)), spec.label()


# -- quotients and closures ---------------------------------------------------

def test_indec_quotients_uniserial():
    cat = category_for(AlgebraSpec.nakayama([3, 2, 1]))
    m = cat.resolve_token("123")
    quots = {cat.display_sum(q) for q in cat.indec_quotients(m)}
    assert quots == {"1", "12", "123"}


def test_indec_quotients_wide(example_cat):
    m = example_cat.resolve_token("132")
    quots = {example_cat.display_sum(q) for q in example_cat.indec_quotients(m)}
    assert quots == {"132", "1", "3", "1+3"}


def test_closure_empty_and_simples(example_cat):
    assert example_cat.torsion_closure(0) == 0
    full = example_cat.torsion_closure(mask_of(example_cat.simples))
    assert full == (1 << 6) - 1


def test_closure_golden(example_cat):
    seed = mask_of(ids_of(example_cat, ["32", "3"]))
    closed = example_cat.torsion_closure(seed)
    assert {example_cat.display(i) for i in members(closed)} == {"32", "3"}


def test_closure_forces_extension(a2_cat):
    seed = mask_of(ids_of(a2_cat, ["1", "2"]))
    closed = a2_cat.torsion_closure(seed)
    assert {a2_cat.display(i) for i in members(closed)} == {"1", "2", "12"}


# -- torsion submodules ----------------------------------------------------------

def test_torsion_submodule_member_is_itself(example_cat):
    m = example_cat.resolve_token("132")
    tors = example_cat.torsion_closure(1 << m)
    assert example_cat.torsion_row(tors)[m].pair[0].ids == (m,)


def test_torsion_submodule_zero_class(example_cat):
    m = example_cat.resolve_token("132")
    sub, _ = example_cat.torsion_row(0)[m].pair
    assert sub.is_zero


def test_torsion_submodule_picks_maximal(example_cat):
    m132 = example_cat.resolve_token("132")
    t = example_cat.torsion_closure(mask_of(ids_of(example_cat, ["32", "3"])))
    sub, _ = example_cat.torsion_row(t)[m132].pair
    assert example_cat.display_sum(sub) == "32"
    # only the zero submodule of 132 lies in the closure of the simple 3
    t3 = example_cat.torsion_closure(mask_of(ids_of(example_cat, ["3"])))
    assert example_cat.torsion_row(t3)[m132].pair[0].is_zero


def test_torsion_submodule_componentwise(a2_cat):
    one, two, m = ids_of(a2_cat, ["1", "2", "12"])
    t = a2_cat.torsion_closure(1 << two)
    # the torsion submodule of a sum is the sum of those of its summands
    sub = ModuleSum(tuple(i for x in (m, two)
                          for i in a2_cat.torsion_row(t)[x].pair[0].ids))
    assert sub.ids == tuple(sorted((two, two)))


# -- relative projectives and simples ----------------------------------------------

def test_relative_projectives_whole_category(example_cat):
    full = example_cat.torsion_closure(mask_of(example_cat.simples))
    assert example_cat.relative_projectives(full) == mask_of(example_cat.projectives)


def test_relative_projectives_empty(example_cat):
    assert example_cat.relative_projectives(0) == 0


def test_relative_projectives_golden(example_cat):
    tors = mask_of(ids_of(example_cat, ["12", "132", "32", "1", "3"]))
    rp = example_cat.relative_projectives(tors)
    assert {example_cat.display(x) for x in members(rp)} == {"12", "132", "32"}


@pytest.mark.parametrize("spec", full_battery() + [AlgebraSpec.type_a("<<<<")],
                         ids=lambda s: s.label())
def test_relative_projectives_match_pairwise_ext_scan(spec):
    # the oracle scans Ext^1(x, m) over every pair of members
    cat = category_for(spec)
    ext = cat.ext1_table
    for tors in cat.generated_lattice().classes:
        inside = members(tors)
        assert members(cat.relative_projectives(tors)) == frozenset(
            x for x in inside if not any(ext[x][m] for m in inside))


def test_relative_simples_whole_category(example_cat):
    full = example_cat.torsion_closure(mask_of(example_cat.simples))
    assert example_cat.relative_simples(full) == mask_of(example_cat.simples)


def test_relative_simples_four_not_three(example_cat):
    tors = mask_of(ids_of(example_cat, ["12", "132", "32", "1", "3"]))
    rs = example_cat.relative_simples(tors)
    assert {example_cat.display(x) for x in members(rs)} == {"12", "32", "1", "3"}


def test_relative_simples_single_brick(example_cat):
    # add of one brick without self-extensions: here the simple 2, whose
    # singleton really is quotient- and extension-closed
    b = example_cat.resolve_token("2")
    tors = example_cat.torsion_closure(1 << b)
    assert tors == 1 << b
    assert example_cat.relative_simples(tors) == 1 << b
    # closing a non-simple brick drags its quotients along
    tors32 = example_cat.torsion_closure(1 << example_cat.resolve_token("32"))
    assert example_cat.relative_simples(tors32) == tors32


# -- the lattice oracle --------------------------------------------------------------

def test_lattice_one_simple():
    cat = category_for(AlgebraSpec.type_a(""))
    lat = cat.torsion_lattice()
    assert len(lat.classes) == 2
    assert len(lat.covers) == 1
    assert lat.covers[0][2] == cat.simples[0]


def test_lattice_a2_five_classes(a2_cat):
    lat = a2_cat.torsion_lattice()
    sets = [{a2_cat.display(i) for i in members(c)} for c in lat.classes]
    assert len(lat.classes) == 5
    assert {frozenset(s) for s in sets} == {
        frozenset(), frozenset({"1"}), frozenset({"2"}),
        frozenset({"1", "12"}), frozenset({"1", "12", "2"})}


def test_lattice_example_golden(example_cat):
    lat = example_cat.torsion_lattice()
    assert len(lat.classes) == 14
    named = {frozenset(v): k for k, v in EXAMPLE_LATTICE.items()}
    got_covers = set()
    for up, lo, label in lat.covers:
        upper = frozenset(example_cat.display(i) for i in members(lat.classes[up]))
        lower = frozenset(example_cat.display(i) for i in members(lat.classes[lo]))
        got_covers.add((named[upper], named[lower], example_cat.display(label)))
    assert got_covers == EXAMPLE_COVERS


def test_lattice_gate(monkeypatch):
    cat = ModuleCategory(AlgebraSpec.type_a("<>"))
    monkeypatch.setattr(modcat, "SUBSET_GATE", 4)
    with pytest.raises(GateError, match="gate"):
        cat.torsion_lattice()


def test_lattice_gate_holds_after_the_lattice_is_cached(monkeypatch):
    cat = ModuleCategory(AlgebraSpec.type_a("<>"))
    lattice = cat.torsion_lattice()
    monkeypatch.setattr(modcat, "SUBSET_GATE", 4)
    with pytest.raises(GateError, match="gate"):
        cat.torsion_lattice()
    monkeypatch.undo()
    assert cat.torsion_lattice() is lattice


def test_lattice_gate_admits_exactly_the_count(monkeypatch):
    # the README example's torsion lattice has 14 classes
    monkeypatch.setattr(modcat, "LATTICE_GATE", 13)
    with pytest.raises(GateError) as exc:
        ModuleCategory(AlgebraSpec.type_a("<>")).generated_lattice()
    assert str(exc.value) == ("the torsion lattice has more than 13 classes, "
                              "the lattice gate")
    monkeypatch.setattr(modcat, "LATTICE_GATE", 14)
    assert len(ModuleCategory(AlgebraSpec.type_a("<>")).generated_lattice().classes) == 14


class _CountedMask(int):
    """A perp mask that counts the intersections the lattice search takes
    with it."""

    taken: list = []

    def __rand__(self, other):
        self.taken.append(1)
        return int(self) & other


def _intersections(monkeypatch, gate: int) -> int:
    monkeypatch.setattr(modcat, "LATTICE_GATE", gate)
    monkeypatch.setattr(_CountedMask, "taken", [])
    cat = ModuleCategory(AlgebraSpec.type_a("<<<"))
    cat.__dict__["perp_masks"] = {b: _CountedMask(m)
                                  for b, m in cat.perp_masks.items()}
    try:
        cat.generated_lattice()
    except GateError:
        pass
    return len(_CountedMask.taken)


def test_lattice_gate_stops_the_search_at_the_bound(monkeypatch):
    # typeA <<< has 10 bricks and 42 torsion classes: with a gate of 3 the
    # search expands at most the 4 classes it has found
    assert _intersections(monkeypatch, 3) <= 4 * 10 < _intersections(monkeypatch, 42)


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_lattice_n_regular(spec):
    cat = category_for(spec)
    lat = cat.torsion_lattice()
    degree = {i: 0 for i in range(len(lat.classes))}
    for up, lo, _ in lat.covers:
        degree[up] += 1
        degree[lo] += 1
    assert all(d == cat.n for d in degree.values())


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_generated_lattice_equals_subset_oracle(spec):
    cat = category_for(spec)
    assert cat.generated_lattice() == cat.torsion_lattice()


FIVE_VERTEX_WORDS = ["".join(w) for w in itertools.product("<>", repeat=4)]


@pytest.mark.parametrize("spec", full_battery() + [AlgebraSpec.type_a(w) for w in
                                                   FIVE_VERTEX_WORDS],
                         ids=lambda s: s.label())
def test_lattice_classes_are_the_oracle_sets_in_size_then_id_order(spec):
    """The member sets of the classes, class by class, are the subset
    oracle's, in the order of the sort by (size, sorted ids) that the
    lattice used when it held frozensets."""
    cat = ModuleCategory(spec)
    generated = [members(c) for c in cat.generated_lattice().classes]
    assert generated == [members(c) for c in cat.torsion_lattice().classes]
    assert generated == sorted(generated, key=lambda c: (len(c), tuple(sorted(c))))
    assert len(set(generated)) == len(generated)


@pytest.mark.parametrize("spec", full_battery() + [AlgebraSpec.type_a(w) for w in
                                                   FIVE_VERTEX_WORDS],
                         ids=lambda s: s.label())
def test_lower_covers_come_in_label_order(spec):
    # the generated lattice and the subset oracle list each class's lower
    # covers by increasing label, and every cover once
    cat = category_for(spec)
    for lattice in (cat.generated_lattice(), cat.torsion_lattice()):
        below = lattice.lower_covers
        assert sorted((up, lo, lab) for up, downs in below.items()
                      for lo, lab in downs) == list(lattice.covers)
        for downs in below.values():
            labels = [lab for _, lab in downs]
            assert labels == sorted(set(labels))


def test_bits_lists_the_set_bits_in_increasing_order():
    assert list(modcat._bits(0)) == []
    assert list(modcat._bits(1)) == [0]
    assert list(modcat._bits(1 << 300)) == [300]
    assert list(modcat._bits(0b1011 | 1 << 64 | 1 << 300)) == [0, 1, 3, 64, 300]


def _maximal_chains_by_recursion(lat, start, end):
    """Oracle: every cover path from start, kept when it ends at end."""
    below = {}
    for up, lo, lab in lat.covers:
        below.setdefault(up, []).append((lo, lab))
    chains = []

    def walk(idx, acc):
        if idx == end:
            chains.append(list(acc))
            return
        for lo, lab in sorted(below.get(idx, [])):
            acc.append((lo, lab))
            walk(lo, acc)
            acc.pop()

    walk(start, [])
    return chains


@pytest.mark.parametrize("spec", [AlgebraSpec.type_a("<>"),
                                  AlgebraSpec.nakayama([3, 3], cyclic=True)],
                         ids=lambda s: s.label())
def test_maximal_chain_count_matches_recursion(spec):
    lat = category_for(spec).torsion_lattice()
    assert (len(_maximal_chains_by_recursion(lat, lat.top, lat.bottom))
            == lat.maximal_chain_count())


@pytest.mark.parametrize("label", ["typeA-<>", "typeA-<", "nak-2,2-cyclic", "nak-2,2,1"])
def test_filt_interval_decomposition(label):
    spec = {
        "typeA-<>": AlgebraSpec.type_a("<>"),
        "typeA-<": AlgebraSpec.type_a("<"),
        "nak-2,2-cyclic": AlgebraSpec.nakayama([2, 2], cyclic=True),
        "nak-2,2,1": AlgebraSpec.nakayama([2, 2, 1]),
    }[label]
    cat = category_for(spec)
    lat = cat.torsion_lattice()
    for ui, upper in enumerate(lat.classes):
        for li, lower in enumerate(lat.classes):
            if ui == li or lower & ~upper:
                continue
            expected = cat.interval_members(upper, lower)
            for chain in _maximal_chains_by_recursion(lat, ui, li):
                labels = mask_of(lab for _, lab in chain)
                assert cat.filt_mask(labels) == expected


# -- additivity properties ---------------------------------------------------------------

@st.composite
def _sum_pair(draw):
    spec = draw(st.sampled_from(full_battery()))
    cat = category_for(spec)
    size = len(cat.catalog)
    ids_a = draw(st.lists(st.integers(0, size - 1), min_size=0, max_size=4))
    ids_b = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
    return cat, ModuleSum(tuple(ids_a)), ModuleSum(tuple(ids_b))


@settings(max_examples=60, deadline=None)
@given(_sum_pair())
def test_hom_additive_over_sums(data):
    cat, a, b = data
    expected = sum(cat.hom(x, y) for x in a.ids for y in b.ids)
    assert cat.hom(a, b) == expected
    assert cat.hom(b, a) == sum(cat.hom(y, x) for x in a.ids for y in b.ids)


@settings(max_examples=60, deadline=None)
@given(_sum_pair())
def test_ext_additive_in_second_argument(data):
    cat, _, b = data
    for m in range(len(cat.catalog)):
        assert cat.ext1(m, b) == sum(cat.ext1(m, y) for y in b.ids)


@settings(max_examples=40, deadline=None)
@given(_sum_pair())
def test_torsion_closure_output_is_torsion_class(data):
    cat, a, b = data
    closed = cat.torsion_closure(mask_of(a.ids) | mask_of(b.ids))
    assert cat.is_torsion_class(closed)


# -- argument validation -----------------------------------------------------------------

def test_hom_accepts_indec_objects(example_cat):
    a = example_cat.catalog[example_cat.resolve_token("2")]
    b = example_cat.catalog[example_cat.resolve_token("12")]
    assert example_cat.hom(a, b) == 1


def test_hom_rejects_foreign_module(example_cat, a2_cat):
    foreign = a2_cat.catalog[a2_cat.resolve_token("12")]
    with pytest.raises(UsageError, match="different algebra"):
        example_cat.hom(foreign, example_cat.resolve_token("2"))


def test_hom_rejects_out_of_range_id(example_cat):
    with pytest.raises(UsageError, match="outside the catalog"):
        example_cat.hom(99, 0)


def test_ext_rejects_sum_in_first_argument(a2_cat):
    with pytest.raises(UsageError, match="indecomposable"):
        a2_cat.ext1(ModuleSum((0, 1)), 0)


# -- cross-oracle checks against the enumerated lattice ------------------------------------

@pytest.mark.parametrize("spec", [
    AlgebraSpec.type_a("<>"), AlgebraSpec.type_a("<"),
    AlgebraSpec.nakayama([2, 2], cyclic=True),
    AlgebraSpec.nakayama([2, 2, 1]),
], ids=lambda s: s.label())
def test_closure_is_meet_of_enumerated_classes(spec):
    # the smallest torsion class containing a seed must equal the
    # intersection of every enumerated class containing it
    cat = category_for(spec)
    lattice = cat.torsion_lattice()
    size = len(cat.catalog)
    for seed in range(1 << size):
        expected = frozenset(range(size))
        for tors in map(members, lattice.classes):
            if members(seed) <= tors:
                expected &= tors
        assert members(cat.torsion_closure(seed)) == expected


@pytest.mark.parametrize("spec", [
    AlgebraSpec.type_a("<>"), AlgebraSpec.nakayama([3, 3], cyclic=True),
], ids=lambda s: s.label())
def test_pairwise_intersections_are_torsion_classes(spec):
    cat = category_for(spec)
    lattice = cat.torsion_lattice()
    for a in lattice.classes:
        for b in lattice.classes:
            assert cat.is_torsion_class(a & b)
