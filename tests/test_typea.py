"""Type-A backend: interval catalogs, submodule supports, hereditary checks."""

import itertools

import pytest

from greenseq import AlgebraSpec, ModuleCategory
from greenseq.modcat import Indec, _mask
from greenseq.typea import TypeABackend

from conftest import category_for, type_a_battery


def test_one_vertex():
    cat = category_for(AlgebraSpec.type_a(""))
    assert len(cat.catalog) == 1
    assert cat.catalog[0].display == "1"


def test_example_quiver_catalog(example_cat):
    assert len(example_cat.catalog) == 6
    assert sorted(m.display for m in example_cat.catalog) == [
        "1", "12", "132", "2", "3", "32"]


def _relaxed_display(backend, a0, b0):
    """The radical layering of the interval by relaxing every in-interval
    arrow once per vertex: the oracle of `TypeABackend._display`."""
    supp = range(a0, b0 + 1)
    inner = [(s, d) for s, d in backend.slots if s in supp and d in supp]
    layer = {w: 0 for w in supp}
    for _ in supp:
        for s, d in inner:
            layer[d] = max(layer[d], layer[s] + 1)
    rows = ["".join(str(w + 1) for w in supp if layer[w] == lvl)
            for lvl in range(max(layer.values()) + 1)]
    return ("" if backend.n <= 9 else "|").join(rows)


def test_displays_match_layer_relaxation():
    # every word on at most 7 vertices, and long words, which join the
    # layers with "|"
    specs = type_a_battery(7) + [
        AlgebraSpec.type_a(w) for w in ("<" * 16, "<>" * 8, "<<><<>><<><<>><<",
                                        "<<<>>>" * 2)]
    for spec in specs:
        backend = TypeABackend(spec)
        for m in backend.catalog:
            _, a1, b1 = m.descriptor
            assert m.display == _relaxed_display(backend, a1 - 1, b1 - 1), (
                spec.label(), m.descriptor)


def _nested_list_catalog(backend):
    """The interval catalog with every structure map built as a nested
    list of zeros, its one entry set to 1 when both ends of the slot lie in
    the interval, and every record built by keyword: the oracle of
    `TypeABackend._build_catalog`."""
    n, catalog = backend.n, []
    for a0 in range(n):
        for b0 in range(a0, n):
            spaces = tuple(1 if a0 <= v <= b0 else 0 for v in range(n))
            mats = []
            for s, d in backend.slots:
                m = [[0] * spaces[s] for _ in range(spaces[d])]
                if spaces[s] and spaces[d]:
                    m[0][0] = 1
                mats.append(tuple(tuple(r) for r in m))
            catalog.append(Indec(
                ident=len(catalog), descriptor=("I", a0 + 1, b0 + 1),
                dimvec=spaces, matrices=tuple(mats),
                display=backend._display(a0, b0)))
    return catalog


def _scanned_hom_table(backend):
    """The Hom table with each mask of intervals by their ends found by a
    scan of every interval at each vertex, and each row expanded digit by
    digit: the oracle of `TypeABackend.hom_table`."""
    maps = set(backend.slots)
    ends = [(m.descriptor[1] - 1, m.descriptor[2] - 1) for m in backend.catalog]
    starts_le = [_mask(j for j, (a1, _) in enumerate(ends) if a1 <= x)
                 for x in range(backend.n)]
    ends_ge = [_mask(j for j, (_, b1) in enumerate(ends) if b1 >= x)
               for x in range(backend.n)]
    into_start = _mask(j for j, (a1, _) in enumerate(ends)
                       if (a1 - 1, a1) in maps)
    into_end = _mask(j for j, (_, b1) in enumerate(ends)
                     if (b1 + 1, b1) in maps)
    table = []
    for a0, b0 in ends:
        row = starts_le[b0] & ends_ge[a0]
        row &= ~(into_start & ~starts_le[a0]) & ~(into_end & ~ends_ge[b0])
        if (a0, a0 - 1) in maps:
            row &= ~starts_le[a0 - 1]
        if (b0, b0 + 1) in maps:
            row &= ~ends_ge[b0 + 1]
        table.append(tuple(map(int, format(row, f"0{len(ends)}b")[::-1])))
    return tuple(table)


# every word on at most 7 vertices, A1 among them, and the long words
@pytest.mark.parametrize("spec", type_a_battery(7) + [
    AlgebraSpec.type_a(w) for w in ("<" * 16, "<>" * 8, "<<><<>><<><<>><<")],
    ids=lambda s: s.label())
def test_catalog_and_hom_table_match_the_scans(spec):
    backend = TypeABackend(spec)
    oracle = _nested_list_catalog(backend)
    assert len(backend.catalog) == len(oracle)
    for m, o in zip(backend.catalog, oracle):
        assert m == o and hash(m) == hash(o), (spec.label(), m.descriptor)
    assert backend.hom_table() == _scanned_hom_table(backend)


@pytest.mark.parametrize("word", ["<<<", "<><", ">>>", "><>"])
def test_interval_count_n4(word):
    cat = category_for(AlgebraSpec.type_a(word))
    assert len(cat.catalog) == 10


def test_submodule_supports_full_interval(example_cat):
    # Over 1<-2->3, submodules of the big module are spanned below: the
    # socle vertex 2 and the two length-two wings.
    m = example_cat.resolve_token("132")
    supports = example_cat.backend.submodule_supports(m)
    assert supports == [frozenset(), frozenset({2}), frozenset({1, 2}),
                        frozenset({2, 3}), frozenset({1, 2, 3})]


def test_submodule_supports_simple(example_cat):
    s = example_cat.resolve_token("2")
    assert example_cat.backend.submodule_supports(s) == [frozenset(), frozenset({2})]


def test_submodule_supports_linear_arrow():
    cat = category_for(AlgebraSpec.type_a(">"))
    # arrow 1 -> 2: the module "21" has top 2 and socle 1
    m = cat.resolve_token("21")
    assert cat.backend.submodule_supports(m) == [
        frozenset(), frozenset({1}), frozenset({1, 2})]


def _supports_by_mask_scan(backend, i):
    """Every subset of the interval, kept when closed under the in-interval
    arrows: the 2^width scan that the vertex-by-vertex build replaced."""
    _, a1, b1 = backend.catalog[i].descriptor
    a0, b0 = a1 - 1, b1 - 1
    width = b0 - a0 + 1
    inner = [(s - a0, d - a0) for s, d in backend.slots
             if a0 <= s <= b0 and a0 <= d <= b0]
    supports = []
    for mask in range(1 << width):
        if all(not (mask >> s & 1) or (mask >> d & 1) for s, d in inner):
            supports.append(frozenset(
                a0 + k + 1 for k in range(width) if mask >> k & 1))
    return sorted(supports, key=lambda f: (len(f), tuple(sorted(f))))


@pytest.mark.parametrize("n", range(1, 10))
def test_submodule_supports_match_mask_scan(n):
    # every orientation of A_n, n <= 9; equal lists, in order
    for word in itertools.product("<>", repeat=n - 1):
        backend = TypeABackend(AlgebraSpec.type_a("".join(word)))
        for i in range(len(backend.catalog)):
            assert (backend.submodule_supports(i)
                    == _supports_by_mask_scan(backend, i)), ("".join(word), i)


def test_full_interval_records(example_cat):
    m = example_cat.resolve_token("132")
    recs = {(example_cat.display_sum(r.sub), example_cat.display_sum(r.quot))
            for r in example_cat.sub_quotient_pairs(m)}
    assert recs == {("2", "1+3"), ("12", "3"), ("32", "1")}


def test_projective_covers(example_cat):
    backend = example_cat.backend
    m = example_cat.resolve_token("132")
    p0, omega = backend.projective_cover(m)
    assert sorted(example_cat.display(p) for p in p0) == ["12", "32"]
    assert [example_cat.display(o) for o in omega] == ["2"]
    proj = example_cat.resolve_token("12")
    assert backend.projective_cover(proj) == ((proj,), ())


@pytest.mark.parametrize("spec", type_a_battery(), ids=lambda s: s.label())
def test_hom_dims_zero_or_one(spec):
    # solved by elimination: the closed-form table is 0 or 1 by construction
    cat = category_for(spec)
    size = len(cat.catalog)
    for a in range(size):
        for b in range(size):
            assert cat.solved_hom_table[a][b] in (0, 1)


@pytest.mark.parametrize("spec", type_a_battery(6), ids=lambda s: s.label())
def test_euler_formula_matches_presentation(spec):
    cat = ModuleCategory(spec)
    size = len(cat.catalog)
    assert cat.ext1_table == tuple(
        tuple(cat.ext1_presentation(a, b) for b in range(size))
        for a in range(size))


def test_syzygy_dimension_vectors_up_to_seven_vertices():
    # 0 -> syzygy -> P_0 -> M -> 0 is exact, so the dimension vectors of
    # P_0 and of the syzygy differ by that of M
    for spec in type_a_battery(7):
        backend = TypeABackend(spec)

        def dimvec(ids):
            return [sum(backend.catalog[i].dimvec[v] for i in ids)
                    for v in range(backend.n)]

        for m in range(len(backend.catalog)):
            p0, omega = backend.projective_cover(m)
            assert [x - y for x, y in zip(dimvec(p0), dimvec([m]))] == \
                dimvec(omega), (spec.label(), m)


@pytest.mark.parametrize("spec", type_a_battery(), ids=lambda s: s.label())
def test_representation_directed(spec):
    # no cycle of non-zero non-isomorphisms through the hom relation
    cat = category_for(spec)
    size = len(cat.catalog)
    adj = {a: [b for b in range(size) if a != b and cat.hom(a, b)]
           for a in range(size)}
    state = dict.fromkeys(range(size), 0)

    def visit(a):
        state[a] = 1
        for b in adj[a]:
            assert state[b] != 1
            if state[b] == 0:
                visit(b)
        state[a] = 2

    for a in range(size):
        if state[a] == 0:
            visit(a)


def test_all_intervals_are_bricks(example_cat):
    assert example_cat.bricks == tuple(range(6))
