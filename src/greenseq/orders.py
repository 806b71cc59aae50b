"""Partial orders on equivalence classes of maximal green sequences.

Three orders exist for every algebra: the deformation (pentagon) order
generated by increasing elementary polygonal deformations, reverse
inclusion of silting summand sets, and refinement of Harder-Narasimhan
stable factors.  Reverse inclusion of brick sets is a fourth order that
is only antisymmetric over Nakayama algebras, so it is refused elsewhere.

The pentagon order and theorem B's polygon check read one list of the
generated torsion lattice's polygons, walked once per engine
(`GreenEngine.polygons`), and find the classes on either side by
summand-mask lookup, never by listing sequences; the all-pairs polygon
search and the per-sequence deformation scan stay in the tests as
oracles.  The pentagon closure ORs each row with its generators' rows,
pass after pass, until no row changes.  The other orders, exchange
persistence and the extrema read the columns of the class table
(`GreenEngine.class_table`) by name and never a representative's chain:
the summand and brick orders are reverse containment of its
summand_masks and brick_masks.  The hn order reads, for each module, the
mask of the classes with each stable-factor value there, decoded once
per distinct value from the factor_masks through the cover table's
numbering (`CoverTable.factors`, `_stable_factor_cells`); for each
module x and value v, it evaluates once per cell of the classes that
agree on the stable-factor function at x and at the bricks of v
(partition refinement), never once per pair of classes.  Exchange
persistence is a row inclusion: the deformation rows against reverse
containment of the classes' masks of outgoing summands, decoded from
the exchange_masks through `CoverTable.exchanges`, so only the pairs
that fail are expanded.  Every order is built, checked and read as int
rows (`ClassPoset`); only `poset --format json` expands one to a boolean
matrix.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import or_

from .algebra import Record
from .cli import ORDER_TAGS
from .errors import GateError, InvariantViolation, UsageError
from .green import GreenEngine
from .modcat import ModuleCategory, _bits

# no order is built on more classes than this.  It admits every 6-vertex
# type-A orientation (972-1,085 classes; at 1,085 the hn order takes 0.2 s
# and the `poset --format json` matrix 0.4 s and 15 MB) and refuses
# Nakayama 2,4,5,4,3,2,1 (1,150) and 7-vertex type A (8,477-10,929).  At
# 8,477 classes (typeA <<<<<<, the gate raised in the measuring process
# only) the hn order takes 0.61-0.73 s, of which the stable-factor cells
# are 0.06-0.07 s and `_checked_covers` 0.44-0.49 s (as in each order),
# and the JSON matrix would be about 1 GB, so raising it needs a bound on
# that matrix (in-process, two runs, 2 shared vCPUs)
CLASS_GATE = 1_100

BRICK_ORDER_REFUSAL = (
    "the brick order is only defined over Nakayama algebras: over the "
    "quiver 1<-2->3 the sequences 2,12,1,32,3 and 2,32,3,12,1 have equal "
    "brick sets but are inequivalent, so reverse brick inclusion fails "
    "antisymmetry"
)


class ClassPoset(Record):
    """A partial order on the classes: bit j of rows[i] is set when class
    i lies below class j; covers are its (greater, lesser) Hasse pairs."""

    tag: str
    size: int
    rows: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]


class Polygon(Record):
    """A polygon of the torsion lattice: the lengths of its two maximal
    chains, the longer first; the number of pairs of green sequences that
    differ by the deformation across it; and their classes, the class
    through the first side first."""

    sides: tuple[int, int]
    sequence_pairs: int
    class_pairs: frozenset[tuple[int, int]]


def iepd_cover_pairs(engine: GreenEngine) -> frozenset[tuple[int, int]]:
    """Class pairs (long, short) related by an increasing elementary
    polygonal deformation: the class pairs of the polygons with a side of
    two covers and a longer side."""
    return frozenset(pair for polygon in engine.polygons()
                     if polygon.sides[1] == 2 < polygon.sides[0]
                     for pair in polygon.class_pairs)


def _transitive_reflexive_closure(size: int, pairs) -> list[int]:
    """Each row ORed with the rows of its generators, pass after pass,
    until no row changes: exact on any graph, with or without cycles."""
    rows = [1 << i for i in range(size)]
    for i, j in pairs:
        rows[i] |= 1 << j
    generators = [list(_bits(row)) for row in rows]
    while True:
        before = rows[:]
        for i, gens in enumerate(generators):
            rows[i] = reduce(or_, map(rows.__getitem__, gens))
        if rows == before:
            return rows


def _check_partial_order(tag: str, rows: list[int]) -> None:
    """Raise at the first (i, j, k), in lexicographic order, that breaks
    reflexivity at i, antisymmetry on i, j or transitivity on i, j, k: the
    message of a failure that `_checked_covers` finds."""
    for i, row_i in enumerate(rows):
        if not row_i >> i & 1:
            raise InvariantViolation(f"{tag} order is not reflexive at {i}")
        for j in _bits(row_i):
            if j != i and rows[j] >> i & 1:
                raise InvariantViolation(
                    f"{tag} order fails antisymmetry on classes {i}, {j}")
            missing = rows[j] & ~row_i
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise InvariantViolation(
                    f"{tag} order fails transitivity on {i}, {j}, {k}")


def _checked_covers(tag: str, rows: list[int]) -> tuple[tuple[int, int], ...]:
    """The (greater, lesser) pairs (j, i): i lies below j, i != j, and no
    k other than i and j lies between them, from one pass that also checks
    that rows is a partial order.  For each i, between is the OR of the
    strict rows of the classes strictly above i: the order is reflexive at
    i when rows[i] holds i, antisymmetric there when between does not hold
    i, and transitive when rows[i] holds between; the covers of i are the
    classes above it outside between.  On a failure `_check_partial_order`
    raises with its message."""
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    covers = []
    for i, above in enumerate(strict):
        between = 0
        for k in _bits(above):
            between |= strict[k]
        if not rows[i] >> i & 1 or between >> i & 1 or between & ~rows[i]:
            _check_partial_order(tag, rows)
        covers.extend((j, i) for j in _bits(above & ~between))
    return tuple(sorted(covers))


def _containment_rows(masks: list[int]) -> list[int]:
    """Reverse inclusion: class i lies below class j when its mask
    contains the mask of j, so j holds no bit x outside mask i."""
    has: dict[int, int] = {}  # x -> the mask of the classes whose mask holds x
    for i, mask in enumerate(masks):
        has.update((x, has.get(x, 0) | 1 << i) for x in _bits(mask))
    full = (1 << len(masks)) - 1
    return [full & ~reduce(or_, (m for x, m in has.items() if not mask >> x & 1), 0)
            for mask in masks]


def _outside(rows, allowed) -> list[tuple[int, int]]:
    """The pairs (i, j), in lexicographic order, with j in rows[i] but not
    in allowed[i]."""
    return [(i, j) for i, row in enumerate(rows) for j in _bits(row & ~allowed[i])]


def _hn_refines(value: tuple, key: tuple) -> bool:
    """Do the f_hi stable factors of the bricks of value, a stable-factor
    tuple of (brick, multiplicity) at x, add up to f_hi(x)?  key holds
    f_hi(x), then f_hi(b) for each brick b of value."""
    expected: dict[int, int] = {}
    for (_, mult), factors in zip(value, key[1:]):
        for b2, m2 in factors:
            expected[b2] = expected.get(b2, 0) + mult * m2
    return tuple(sorted(expected.items())) == key[0]


def _stable_factor_cells(engine: GreenEngine) -> list[dict]:
    """having[y][w], the mask of the classes whose stable-factor function
    takes the value w at module y: w is the sorted tuple of (brick,
    multiplicity) of the stable-factor bits of y in a class's mask, one
    tuple per distinct set of them."""
    masks, factors = engine.class_table().factor_masks, engine.cover_table().factors
    having = []
    for y in range(len(engine.cat.catalog)):
        bits = sum(1 << k for k, (x, _, _) in enumerate(factors) if x == y)
        cells: dict[int, int] = {}
        for i, f in enumerate(masks):
            cells[f & bits] = cells.get(f & bits, 0) | 1 << i
        having.append({tuple(sorted(factors[k][1:] for k in _bits(key))): cell
                       for key, cell in cells.items()})
    return having


def build_order(tag: str, engine: GreenEngine) -> ClassPoset:
    table = engine.class_table()
    size = len(table.classes)
    if size > CLASS_GATE:
        raise GateError(f"{size} classes exceed the class gate of {CLASS_GATE}; "
                        f"no order is built on them")
    if tag == "pentagon":
        rows = _transitive_reflexive_closure(size, iepd_cover_pairs(engine))
    elif tag == "summand":
        rows = _containment_rows(table.summand_masks)
    elif tag == "hn":
        # lo lies below hi when every f_lo(x) refines at hi.  That reads lo
        # only through v = f_lo(x), and hi only through f_hi at x and at the
        # bricks of v, so it is tested once per cell of classes hi that
        # agree there: having[y][w] is the mask of the classes with f(y) = w
        having = _stable_factor_cells(engine)
        rows = [(1 << size) - 1] * size
        for x, values in enumerate(having):
            for v, lower in values.items():
                cells = [((), (1 << size) - 1)]
                for y in (x, *(b for b, _ in v)):
                    cells = [(key + (w,), cell & mask) for key, cell in cells
                             for w, mask in having[y].items() if cell & mask]
                passing = sum(cell for key, cell in cells if _hn_refines(v, key))
                for lo in _bits(lower):
                    rows[lo] &= passing
        rows = [row | 1 << i for i, row in enumerate(rows)]
    elif tag == "brick":
        if not engine.cat.spec.is_nakayama:
            raise UsageError(BRICK_ORDER_REFUSAL)
        rows = _containment_rows(table.brick_masks)
    else:
        raise UsageError(f"unknown order tag {tag!r}; pick one of {ORDER_TAGS}")
    return ClassPoset(tag=tag, size=size, rows=tuple(rows),
                      covers=_checked_covers(tag, rows))


def orders_equal_report(posets: list[ClassPoset]) -> dict:
    differences = [{"orders": [pa.tag, pb.tag], "pair": [i, j],
                    pa.tag: bool(row_a >> j & 1), pb.tag: bool(row_b >> j & 1)}
                   for pa, pb in combinations(posets, 2)
                   for i, (row_a, row_b) in enumerate(zip(pa.rows, pb.rows))
                   for j in _bits(row_a ^ row_b)]
    return {"orders": [p.tag for p in posets],
            "equal": not differences,
            "differences": differences}


def source_order_simples(cat: ModuleCategory) -> list[int]:
    """Vertices ordered so that hom(P_earlier, P_later) = 0, smallest-first
    among the free choices."""
    n = cat.n
    remaining = set(range(n))
    order = []
    while remaining:
        ready = [v for v in remaining
                 if all(cat.hom_table[cat.projectives[v]][cat.projectives[w]] == 0
                        for w in remaining if w != v)]
        if not ready:
            raise InvariantViolation("projectives admit no hom-free ordering")
        v = min(ready)
        order.append(v)
        remaining.remove(v)
    return order


def check_extrema(engine: GreenEngine, posets: dict[str, ClassPoset]) -> dict:
    """Unique maximum (projectives-and-shifts class) and unique minimum
    (all-bricks class) where the hypotheses apply."""
    cat = engine.cat
    if cat.spec.is_nakayama and cat.spec.cyclic:
        return {"applicable": False,
                "notice": "cyclic Nakayama algebra: not acyclic and not "
                          "representation-directed, extrema checks skipped"}
    table = engine.class_table()
    report: dict = {"applicable": True, "checks": []}

    def add(name, passed, detail=None):
        report["checks"].append({"check": name, "passed": bool(passed),
                                 **({"detail": detail} if detail is not None else {})})

    # the projectives and every shifted projective
    top = sum(1 << p for p in cat.projectives) | (1 << cat.n) - 1 << len(cat.catalog)
    max_classes = [i for i, mask in enumerate(table.summand_masks) if mask == top]
    add("projectives-and-shifts-class-exists", len(max_classes) == 1,
        {"count": len(max_classes)})
    gmax_seq = tuple(cat.simples[v] for v in source_order_simples(cat))
    add("source-order-simples-sequence-is-maximal-green",
        engine.is_valid_mgs(gmax_seq),
        {"sequence": [cat.display(b) for b in gmax_seq]})
    if max_classes and engine.is_valid_mgs(gmax_seq):
        mx = max_classes[0]
        add("source-order-class-is-projectives-and-shifts",
            engine.class_of(gmax_seq) == mx)
        for tag in ("summand", "hn"):
            add(f"{tag}-order-has-unique-maximum",
                all(row >> mx & 1 for row in posets[tag].rows))
        add("pentagon-order-maximal-at-source-class",
            posets["pentagon"].rows[mx] == 1 << mx)
    min_classes = [i for i, mask in enumerate(table.brick_masks)
                   if mask == cat.brick_mask]
    add("all-bricks-class-exists-uniquely", len(min_classes) == 1,
        {"count": len(min_classes)})
    if len(min_classes) == 1:
        mn, full = min_classes[0], (1 << len(table.classes)) - 1
        for tag, poset in posets.items():
            add(f"{tag}-order-has-unique-minimum", poset.rows[mn] == full)
    report["passed"] = all(c["passed"] for c in report["checks"])
    return report


def exchange_persistence(engine: GreenEngine, pentagon: ClassPoset) -> dict:
    """Below a class in the deformation order, every exchange pair keeps a
    partner with the same outgoing summand."""
    table, covers = engine.class_table(), engine.cover_table()
    exchanges = covers.exchanges
    outs = [reduce(or_, (1 << exchanges[k][0] for k in _bits(e)), 0)
            for e in table.exchange_masks]

    @cache
    def chain_outs(i: int) -> list[int]:
        """The outgoing summand bits along class i's representative."""
        return [exchanges[row[3].bit_length() - 1][0]
                for row in engine.chain_rows(table.classes[i].representative.bricks)]

    # a pair fails where the outgoing summands of hi are not all in lo's
    failures = [{"lower": lo, "upper": hi, "missing_out": repr(covers.summands[out])}
                for lo, hi in _outside(pentagon.rows, _containment_rows(outs))
                for out in chain_outs(hi) if not outs[lo] >> out & 1]
    return {"passed": not failures, "failures": failures}


def polygon_deformation_pairs(engine: GreenEngine) -> list[Polygon]:
    """The polygons of the generated torsion lattice, by top and then by its
    two lower covers, each with the classes of the pairs of green sequences
    that differ by a deformation across it.

    For a class T and two of its lower covers T1, T2, the interval
    [T1 & T2, T] has exactly two maximal chains, its sides (the lattice is
    polygonal: Demonet, Iyama, Reading, Reiten, Thomas, arXiv:1711.01785),
    and its top and bottom share n-2 silting summands.  A sequence across
    it is a chain down to T, a side and a chain from T1 & T2 down to zero;
    its class key is the OR of its classes' summand masks (`cover_table`),
    so each distinct mask of the chains above and below meets each side
    once."""
    by_key = engine.class_table().by_key
    lattice = engine.cat.generated_lattice()
    summ = engine.cover_table().summand_masks
    classes, below, n = lattice.classes, lattice.lower_covers, engine.cat.n
    # the summand masks of the chains from the top down to each class and
    # from each class down to zero, and the number of the former; classes
    # are sorted by size, so a class comes after its lower covers
    prefixes, above = {lattice.top: {summ[lattice.top]}}, {lattice.top: 1}
    for c in range(len(classes) - 1, -1, -1):
        for lo, _ in below.get(c, ()):
            prefixes.setdefault(lo, set()).update(m | summ[lo] for m in prefixes[c])
            above[lo] = above.get(lo, 0) + above[c]
    suffixes = {lattice.bottom: {summ[lattice.bottom]}}
    for c in range(lattice.bottom + 1, len(classes)):
        suffixes[c] = {summ[c] | m for lo, _ in below[c] for m in suffixes[lo]}

    polygons = []
    for top in range(len(classes)):
        for (t1, _), (t2, _) in combinations(below.get(top, ()), 2):
            bottom = lattice.index_of(classes[t1] & classes[t2])
            name = f"[{list(_bits(classes[bottom]))}, {list(_bits(classes[top]))}]"
            sides = sorted(_interval_chains(lattice, summ, top, bottom),
                           reverse=True)
            if len(sides) != 2:
                raise InvariantViolation(
                    f"interval {name} has {len(sides)} sides, not two")
            shared = (summ[top] & summ[bottom]).bit_count()
            if shared != n - 2:
                raise InvariantViolation(f"polygon {name} shares {shared} "
                                         f"silting summands, not {n - 2}")
            iepd = sides[1][0] == 2 < sides[0][0]
            pairs = set()
            for pre in prefixes[top]:
                for suf in suffixes[bottom]:
                    pair = tuple(by_key.get(pre | mask | suf) for _, mask in sides)
                    if None in pair:
                        raise InvariantViolation(
                            f"a chain across polygon {name} has a summand "
                            f"mask that is not the key of a class")
                    if iepd and pair[0] == pair[1]:
                        raise InvariantViolation(
                            "polygonal deformation did not change the class")
                    pairs.add(pair)
            polygons.append(Polygon(
                sides=(sides[0][0], sides[1][0]),
                sequence_pairs=above[top] * lattice.chain_counts[bottom],
                class_pairs=frozenset(pairs)))
    return polygons


def _interval_chains(lattice, summ: list[int], top: int, bottom: int
                     ) -> list[tuple[int, int]]:
    """The maximal chains of the interval [bottom, top] as (number of
    covers, OR of the summand masks of the classes below top)."""
    if top == bottom:
        return [(0, 0)]
    return [(length + 1, summ[lo] | mask)
            for lo, _ in lattice.lower_covers[top]
            if not lattice.classes[bottom] & ~lattice.classes[lo]
            for length, mask in _interval_chains(lattice, summ, lo, bottom)]


def hasse_dot(poset: ClassPoset, engine: GreenEngine) -> str:
    """Hasse diagram in DOT, arrows from the covering class down to the
    covered one.  Node labels carry the summand-set size and a
    representative brick sequence, so equal posets serialize identically."""
    classes = engine.equivalence_classes()
    lines = ["digraph hasse {", "  node [shape=box];"]
    for i, cls in enumerate(classes):
        rep = ",".join(engine.cat.display(b) for b in cls.representative.bricks)
        lines.append(f'  c{i} [label="{len(cls.key)} summands\\n{rep}"];')
    for upper, lower in poset.covers:
        lines.append(f"  c{upper} -> c{lower};")
    lines.append("}")
    return "\n".join(lines) + "\n"
