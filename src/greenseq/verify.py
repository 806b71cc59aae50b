"""Executable property suites.

Each suite takes the `GreenEngine` alone, reads the category from
`engine.cat`, and returns a list of named checks with a pass flag and
witnessing detail; the CLI maps any failure to a non-zero exit.  Suite
names follow the command-line interface (theoremA, theoremB, theoremC,
lemmas); the individual checks are named by the property they exercise.
The lemma battery reads the generated lattice's per-class and per-cover
tables: one test per cover, pair of consecutive covers or square, and
the per-sequence checks as masks folded once per class, on its normal
form (`GreenEngine.path_failures`); it calls no per-sequence method.
Only a failing path check, and the sequence count where the subset
oracle is admitted, walk the chains.  Theorems A, B and C read the
classes, one lexicographic normal form each, and list no sequence;
theorems B and C read each class's brick mask from the brick_masks
column of the class table (`GreenEngine.class_table`), not its
representative.  The lemma battery and theorem A share one comparison
of the squares (`GreenEngine.square_failures`).
Theorem B's order checks are row inclusions (`orders._outside`): the
rows of one order against those of the other, against reverse brick
containment and the classes with fewer bricks, or against those alone;
only the pairs that violate one are listed.  The LATTICE_CHECKS compare
the generated lattice with the subset oracle
(`ModuleCategory.torsion_lattice`) up to its fixed gate,
`modcat.SUBSET_GATE`; above it, each reads `skipped` with the gate's
message.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_

from .algebra import Record
from .cli import SUITES
from .errors import GateError, TheoremViolation, UsageError
from .green import PATH_CHECKS, GreenEngine
from .modcat import ModuleCategory, _bits
from . import orders as orders_mod
from .orders import _containment_rows, _outside


class CheckResult(Record):
    """A named check: its pass flag and witnessing detail, a fresh dict
    when none is given."""

    name: str
    passed: bool
    detail: dict | None = None

    def __post_init__(self):
        if self.detail is None:
            object.__setattr__(self, "detail", {})

    def to_dict(self) -> dict:
        return {"check": self.name, "passed": self.passed, "detail": self.detail}


# the orders theoremB compares, in the order its checks read them
THEOREM_B_ORDERS = ("pentagon", "summand", "hn")

# the lemma checks that need the subset-oracle lattice; each is reported
# as skipped when its gate refuses the lattice
LATTICE_CHECKS = (
    "torsion-lattice-degree-n-regular",
    "mgs-count-matches-lattice-chains",
    "chain-steps-are-labelled-lattice-covers",
    "interval-equals-filtration-of-chain-labels",
)


def build_posets(engine: GreenEngine, include_brick: bool) -> dict[str, orders_mod.ClassPoset]:
    tags = THEOREM_B_ORDERS + (("brick",) if include_brick else ())
    return {tag: orders_mod.build_order(tag, engine) for tag in tags}


# -- theorem A ---------------------------------------------------------------

def suite_theorem_a(engine: GreenEngine) -> list[CheckResult]:
    try:
        classes = engine.equivalence_classes()
        return [CheckResult(
            "equivalence-criteria-agree", True,
            {"sequences": engine.cat.generated_lattice().maximal_chain_count(),
             "classes": len(classes)})]
    except TheoremViolation as exc:
        return [CheckResult("equivalence-criteria-agree", False,
                            {"witness": str(exc)})]


# -- theorem B ---------------------------------------------------------------

def suite_theorem_b(engine: GreenEngine,
                    posets: dict[str, orders_mod.ClassPoset]) -> list[CheckResult]:
    """Checks on the THEOREM_B_ORDERS, which `posets` holds in that order
    and nothing else: the extrema and polygon checks read every entry."""
    checks: list[CheckResult] = []
    bricks = engine.class_table().brick_masks
    pent = posets["pentagon"].rows
    for tag in ("summand", "hn"):
        extra = _outside(pent, posets[tag].rows)
        checks.append(CheckResult(
            f"deformation-order-contained-in-{tag}-order", not extra,
            {"violations": extra}))

    # fewer[lo]: lo and the classes with fewer bricks, from one mask per
    # length; a contained brick set with fewer bricks is strictly contained
    by_length: dict[int, int] = {}
    for i, b in enumerate(bricks):
        by_length[b.bit_count()] = by_length.get(b.bit_count(), 0) | 1 << i
    fewer = [1 << i | sum(m for n, m in by_length.items() if n < b.bit_count())
             for i, b in enumerate(bricks)]
    contained = _containment_rows(bricks)
    bad = _outside(posets["hn"].rows, [c & f for c, f in zip(contained, fewer)])
    checks.append(CheckResult("hn-order-implies-strict-brick-containment",
                              not bad, {"violations": list(map(list, bad))}))

    bad = _outside(pent, fewer)
    checks.append(CheckResult("deformation-strictly-shortens-length",
                              not bad, {"violations": list(map(list, bad))}))

    unoriented = [p for p in engine.polygons() if p.sides[1] >= 3]
    # each unordered class pair once per order it is comparable in
    bad = sorted({(min(c1, c2), max(c1, c2), tag) for p in unoriented
                  for c1, c2 in p.class_pairs
                  for tag, poset in posets.items()
                  if poset.rows[c1] >> c2 & 1 or poset.rows[c2] >> c1 & 1})
    checks.append(CheckResult(
        "unoriented-polygon-sides-incomparable", not bad,
        {"polygons": sum(p.sequence_pairs for p in unoriented),
         "violations": [{"pair": [c1, c2], "order": tag}
                        for c1, c2, tag in bad]}))

    persistence = orders_mod.exchange_persistence(engine, posets["pentagon"])
    checks.append(CheckResult("exchange-pairs-persist-downward",
                              persistence["passed"],
                              {"failures": persistence["failures"]}))

    extrema = orders_mod.check_extrema(engine, posets)
    detail = ({"checks": extrema["checks"]} if extrema.get("applicable")
              else {"skipped": extrema["notice"]})
    checks.append(CheckResult("extrema-unique-max-and-min",
                              extrema.get("passed", True), detail))

    if engine.cat.n == 2:
        # with two simples, the three orders coincide and agree with
        # reverse brick containment
        report = orders_mod.orders_equal_report(list(posets.values()))
        ok = report["equal"] and list(pent) == contained
        checks.append(CheckResult("two-simples-orders-all-coincide", ok,
                                  {"differences": report["differences"]}))
    return checks


# -- theorem C ----------------------------------------------------------------

def suite_theorem_c(engine: GreenEngine,
                    posets: dict[str, orders_mod.ClassPoset]) -> list[CheckResult]:
    """Checks on all four orders, which `posets` holds; the brick order
    exists only over Nakayama algebras."""
    checks: list[CheckResult] = []
    report = orders_mod.orders_equal_report(list(posets.values()))
    checks.append(CheckResult("four-order-relations-equal", report["equal"],
                              {"differences": report["differences"]}))
    brick_masks = engine.class_table().brick_masks
    # a square swap keeps the brick set, so it is one per class
    by_brickset: dict[int, list[int]] = {}
    for ci, bricks in enumerate(brick_masks):
        by_brickset.setdefault(bricks, []).append(ci)
    bad = [found for found in by_brickset.values() if len(found) != 1]
    checks.append(CheckResult("equal-brick-sets-imply-equivalence", not bad,
                              {"violations": bad, "brick_sets": len(by_brickset),
                               "classes": len(brick_masks)}))
    return checks


# -- lemma battery ---------------------------------------------------------------

def suite_lemmas(engine: GreenEngine) -> list[CheckResult]:
    cat, checks = engine.cat, []
    # first, so that the gates fire before any check runs
    failures = engine.path_failures()
    hom, modules = cat.hom_table, range(len(cat.catalog))

    # Non-split extensions of doubly hom-orthogonal bricks are bricks.
    bad = [cat.display(e) for l, n in combinations(cat.bricks, 2)
           if not hom[l][n] | hom[n][l] for pair in (((l,), (n,)), ((n,), (l,)))
           for e in modules for rec in cat.sub_quotient_pairs(e)
           if (rec.sub.ids, rec.quot.ids) == pair and not cat.is_brick(e)]
    checks.append(CheckResult("extension-of-orthogonal-bricks-is-brick",
                              not bad, {"violations": bad}))

    # every cover, pair of consecutive covers and square lies on a maximal
    # chain, so the checks below examine what the sequences would
    lattice = cat.generated_lattice()
    steps = engine.cover_table().steps

    # Hom-vanishing forward forces Ext-vanishing backward on adjacent bricks.
    bad = [[cat.display(a), cat.display(b)]
           for row in steps.values() for a, mid, *_ in row
           for b, *_ in steps[mid]
           if cat.hom_table[a][b] == 0 and cat.ext1_table[b][a] != 0]
    checks.append(CheckResult("adjacent-hom-vanishing-forces-ext-vanishing",
                              not bad, {"violations": bad}))

    # the labels of the covers below the top and above the bottom
    ends = [b for b, *_ in steps[lattice.top]]
    ends += [b for row in steps.values() for b, lo, *_ in row
             if lo == lattice.bottom]
    bad = [cat.display(b) for b in ends if not cat.is_simple(b)]
    checks.append(CheckResult("first-and-last-brick-simple", not bad,
                              {"violations": bad}))

    def path_check(name: str) -> CheckResult:
        bad = [[cat.display(b) for b in labels] for labels in failures[name]]
        return CheckResult(name, not bad, {"violations": bad})

    checks += [path_check(name) for name in PATH_CHECKS[:3]]

    try:
        oracle = cat.torsion_lattice()
    except GateError as exc:
        checks += [CheckResult(name, True, {"skipped": str(exc)})
                   for name in LATTICE_CHECKS]
    else:
        checks += _lattice_checks(engine, oracle)

    bad = [[cat.display(a), cat.display(b)] for a in modules for b in modules
           if cat.ext1_table[a][b] != cat.ext1_presentation(a, b)]
    checks.append(CheckResult("ext-formula-matches-presentation-oracle",
                              not bad, {"violations": bad}))

    checks.append(_square_check(engine))

    if cat.spec.is_nakayama:
        checks.append(_unique_filtration_check(cat))
        checks.append(path_check(PATH_CHECKS[3]))
    else:
        # solved by elimination: the table's closed form is 0 or 1 by
        # construction, so reading it here would check it against itself
        bad = [[cat.display(a), cat.display(b)] for a in modules for b in modules
               if (solved := cat._hom_dim(a, b)) > 1 or solved != hom[a][b]]
        checks.append(CheckResult("interval-hom-dimensions-at-most-one",
                                  not bad, {"violations": bad}))
        checks.append(_representation_directed_check(cat))
    return checks


def _lattice_checks(engine: GreenEngine, lattice) -> list[CheckResult]:
    """The LATTICE_CHECKS, in that order, against the subset oracle."""
    cat, checks = engine.cat, []
    degree = Counter()
    for up, lo, _ in lattice.covers:
        degree[up] += 1
        degree[lo] += 1
    bad = [i for i in range(len(lattice.classes)) if degree[i] != cat.n]
    checks.append(CheckResult("torsion-lattice-degree-n-regular", not bad,
                              {"violations": bad,
                               "classes": len(lattice.classes)}))
    count = lattice.maximal_chain_count()
    walked = sum(len(tails) for _, _, tails in engine.sequence_groups())
    checks.append(CheckResult("mgs-count-matches-lattice-chains",
                              count == walked,
                              {"chains": count, "sequences": walked}))
    # every cover of the generated lattice, with its label, in the oracle
    labels = {(lattice.classes[up], lattice.classes[lo]): lab
              for up, lo, lab in lattice.covers}
    classes = cat.generated_lattice().classes
    bad = [{"upper": list(_bits(classes[up])), "lower": list(_bits(classes[lo]))}
           for up, lo, lab in cat.generated_lattice().covers
           if labels.get((classes[up], classes[lo])) != lab]
    checks.append(CheckResult("chain-steps-are-labelled-lattice-covers",
                              not bad, {"violations": bad}))
    checks.append(_filt_interval_check(cat, lattice))
    return checks


def _square_check(engine: GreenEngine) -> CheckResult:
    """The lattice squares whose sides differ (`GreenEngine.square_failures`)."""
    cat = engine.cat
    classes = cat.generated_lattice().classes
    bad = [{"class": list(_bits(classes[top])), "swap": [cat.display(a), cat.display(b)]}
           for top, a, b, *_ in engine.square_failures()]
    return CheckResult("square-swaps-preserve-class-invariants",
                       not bad, {"violations": bad})


def _filt_interval_check(cat: ModuleCategory, lattice) -> CheckResult:
    # Filtration category of the labels along any maximal chain between two
    # comparable classes equals the hom-perpendicular interval.  The chains
    # down to each lower class are counted per label mask, walking up the
    # classes in order of size; a pair is reported once per failing chain.
    classes, below = lattice.classes, lattice.lower_covers
    perp, failing = cat.right_perp_masks, []
    for li, lower in enumerate(classes):
        # the interval [lower, U] is U & lower_perp
        lower_perp = reduce(and_, (perp[t] for t in _bits(lower)), -1)
        # upper class -> label mask -> number of maximal chains down to li
        chains = {li: Counter({0: 1})}
        for ui in range(li + 1, len(classes)):
            counts: Counter = Counter()
            for lo, lab in below.get(ui, ()):
                for labels, k in chains.get(lo, {}).items():
                    counts[labels | 1 << lab] += k
            if counts:
                chains[ui] = counts
                expected = classes[ui] & lower_perp
                failing += [(ui, li)] * sum(
                    k for labels, k in counts.items()
                    if cat.filt_mask(labels) != expected)
    bad = [{"upper": list(_bits(classes[ui])), "lower": list(_bits(classes[li]))}
           for ui, li in sorted(failing)]
    return CheckResult("interval-equals-filtration-of-chain-labels",
                       not bad, {"violations": bad})


def _orthogonal_brick_sets(cat: ModuleCategory):
    """The non-empty sets of pairwise Hom-orthogonal bricks in the order of
    `combinations(cat.bricks, r)`, r = 1, 2, ..., each grown from a smaller
    one by a larger brick orthogonal to all of its members."""
    left, right, bricks = cat.perp_masks, cat.right_perp_masks, cat.brick_mask
    # later[b]: the bricks after b that are Hom-orthogonal to it
    later = {b: left[b] & right[b] & (bricks >> b + 1 << b + 1) for b in left}
    level = [((b,), later[b]) for b in cat.bricks]
    while level:
        yield from (combo for combo, _ in level)
        level = [((*combo, c), free & later[c]) for combo, free in level
                 for c in _bits(free)]


def _unique_filtration_check(cat: ModuleCategory) -> CheckResult:
    # Over a Nakayama algebra, a module filtered by pairwise hom-orthogonal
    # bricks admits exactly one factor sequence.
    def count_filtrations(x: int, brickset: frozenset[int]) -> int:
        total = 1 if x in brickset else 0
        for rec in cat.sub_quotient_pairs(x):
            if len(rec.quot.ids) == 1 and rec.quot.ids[0] in brickset:
                total += count_filtrations(rec.sub.ids[0], brickset)
        return total

    bad = [{"module": cat.display(x), "bricks": [cat.display(b) for b in combo]}
           for combo in _orthogonal_brick_sets(cat) for x in range(len(cat.catalog))
           if count_filtrations(x, frozenset(combo)) > 1]
    return CheckResult("orthogonal-brick-filtrations-unique", not bad,
                       {"violations": bad})


def _representation_directed_check(cat: ModuleCategory) -> CheckResult:
    # No cycle of non-zero non-isomorphisms among the indecomposables.
    size = len(cat.catalog)
    adj = {a: [b for b in range(size) if a != b and cat.hom_table[a][b]]
           for a in range(size)}
    state = {a: 0 for a in range(size)}
    cycle = []

    def visit(a: int) -> bool:
        state[a] = 1
        for b in adj[a]:
            if state[b] == 1 or (state[b] == 0 and visit(b)):
                cycle.append(cat.display(a))
                return True
        state[a] = 2
        return False

    has_cycle = any(state[a] == 0 and visit(a) for a in range(size))
    return CheckResult("hom-relation-is-representation-directed",
                       not has_cycle, {"cycle": cycle})


def run_suite(name: str, engine: GreenEngine) -> list[CheckResult]:
    nakayama = engine.cat.spec.is_nakayama
    if name == "theoremA":
        return suite_theorem_a(engine)
    if name == "theoremB":
        return suite_theorem_b(engine, build_posets(engine, include_brick=False))
    if name == "theoremC":
        if not nakayama:
            raise UsageError("theoremC applies to Nakayama algebras only")
        return suite_theorem_c(engine, build_posets(engine, include_brick=True))
    if name == "lemmas":
        return suite_lemmas(engine)
    if name == "all":
        out = suite_theorem_a(engine)
        # one build of each order, shared by theoremB and theoremC
        posets = build_posets(engine, include_brick=nakayama)
        out += suite_theorem_b(engine,
                               {tag: posets[tag] for tag in THEOREM_B_ORDERS})
        if nakayama:
            out += suite_theorem_c(engine, posets)
        out += suite_lemmas(engine)
        return out
    raise UsageError(f"unknown suite {name!r}; pick one of {SUITES}")
