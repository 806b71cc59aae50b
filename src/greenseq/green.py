"""Maximal green sequences: enumeration, validity, torsion chains,
silting summands, exchange pairs, square deformations, equivalence
classes, and Harder-Narasimhan filtrations.

A maximal green sequence is held as its maximal backward Hom-orthogonal
sequence of bricks: hom(B_j, B_i) = 0 whenever i < j, and no brick can
be inserted anywhere.  These are the cover labels of the maximal chains
of the torsion lattice, so the sequences are read off the lattice that
`ModuleCategory.generated_lattice` builds from its covers, one at a time
(`sequence_walk`).  The validity of a given brick list is decided by
ANDing the category's left and right Hom-perpendicular masks
(`ModuleCategory.perp_masks`, `right_perp_masks`); like every bitmask
of modules here they are over catalog ids, so the engine keeps no index
of its own and building it reads no Hom entry.

A torsion class is the bitmask of its members over catalog ids, as in
the lattice.  The torsion chain of a sequence is one such mask per
brick: T_0 is the whole catalog and T_i = T_{i-1} & perp[B_i], the
cover of T_{i-1} labelled B_i (`ModuleCategory.perp_masks`); each
distinct class is checked once.  Its silting summands are a bitmask
over one fixed index space, tabled by the class's mask: bit x for the
catalog module x and bit len(catalog) + v for the shifted projective
P_v[1], so ascending bits follow the order of `SiltingSummand`.  The
exchange pair of each cover (upper class mask U, label), its outgoing
and incoming summand bits, is tabled and shared by every sequence
through it.  The Harder-Narasimhan layer t_U(x)/t_L(x) of a module x at
a cover U > L is read off the torsion rows of U and L
(`ModuleCategory.torsion_row`, one per class): its quotient is the OR
of the quotient masks of t_L(y) over the summands y of t_U(x), and it
must lie in Filt(B) (`ModuleCategory.filt_mask`); HN filtrations and
stable-factor functions are assembled from those layers.

Equivalence classes are certified locally against theorem A, on the
lattice's squares and one lexicographic normal form per class, which is
the class (`equivalence_classes`).  Each key is the OR of bitmasks along
a chain: every exchange pair and (module, brick, multiplicity) HN entry
is numbered, and each class and cover contributes a bitmask, as to the
per-sequence lemma checks (PATH_CHECKS), which are checked once per
class (`path_failures`).  The squares are compared once per engine
(`square_failures`), for theorem A and the lemma battery alike.  Each
table is one value, built once and read by name.  The cover table
(`CoverTable`) holds each cover's contributions and the numberings of
their bits: its `summands`, `exchanges` and `factors` say what bit i of
a summand, exchange and stable-factor mask stands for.  The class table
(`ClassTable`) holds the classes, their `summand_masks`,
`exchange_masks`, `factor_masks` and `brick_masks` columns and the
`by_key` index of classes by summand mask; it is the one table that the
orders and theorems B and C read.  One walk visits every maximal chain
(`_walk`) and yields the chains grouped by shared prefix: a head of
labels down to a class with at most `_TAIL_LIMIT` chains below it, and
that class's list of tails, listed once and shared by every head that
reaches it.  The walk lists the sequences (`sequence_groups`,
flattened by `sequence_walk`) and finds the members of the classes
(`class_members`), the two listings that `SEQUENCE_GATE` bounds.  The
uncached per-sequence methods (`torsion_chain`, `summand_set`,
`exchange_pairs`, `stable_factor_function`, `square_swap`) serve the
`hn` command and the tests as oracles; the records `SiltingSummand`
and `ExchangePair` are made only there and in each class's key.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce, total_ordering
from operator import or_

from .algebra import Record
from .errors import GateError, InvariantViolation, TheoremViolation, UsageError
from .modcat import ModuleCategory, ModuleSum, _bits

# `sequence_groups` (so `sequence_walk`) and `class_members`, which alone
# list sequences, refuse more than this before the walk starts.  typeA
# <<<<< has 340,549: `mgs` streams them in 0.5-0.75 s at a 39 MB peak RSS
# for 302 MB of JSON (CLI, stdout to /dev/null, nine runs, 2 shared
# vCPUs), about 890 bytes a sequence, so this bound keeps a listing near
# 355 MB of output; typeA <><>< has 16,424,057
SEQUENCE_GATE = 400_000

# `GreenEngine._walk` lists the chains below a class once when there are at
# most this many, and yields that list once per prefix that reaches the
# class: on typeA <<<<< the walk yields 11,554 groups in 0.007 s, and its
# 340,549 chains flattened in 0.05 s; at most 1 gives 340,549 groups in
# 0.2 s (in-process, 2 shared vCPUs)
_TAIL_LIMIT = 64

# the per-sequence lemma checks, read off the `cover_table` path columns
# ORed down a chain (`path_failures`)
PATH_CHECKS = (
    "chain-relative-simples-equal-brick-set",
    "exchange-components-never-repeat",
    "summand-count-is-n-plus-length",
    "socle-quotient-matches-summand-modules",
)


class MGS(Record):
    bricks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bricks)


@total_ordering
class SiltingSummand(Record):
    """Module(indec id) when shifted is False, else ShiftedProjective(vertex),
    ordered by its field tuple."""

    shifted: bool
    value: int

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented


class ExchangePair(Record):
    out: SiltingSummand
    in_: SiltingSummand

    def __post_init__(self):
        if self.out == self.in_:
            raise InvariantViolation("exchange pair with equal components")


class HNLayer(Record):
    position: int  # 1-based index into the green sequence
    brick: int
    factor: ModuleSum
    multiplicity: int


class HNResult(Record):
    layers: tuple[HNLayer, ...]


class EquivClass(Record):
    key: tuple[SiltingSummand, ...]
    representative: MGS


class CoverTable(Record):
    """The contributions of the generated lattice's classes and covers
    (`GreenEngine._cover_steps`).  summands, exchanges and factors say what
    bit i of a summand, exchange and stable-factor mask stands for: a
    `SiltingSummand`, an (outgoing, incoming) pair of summand bits and a
    (module, brick, multiplicity) entry.  summand_masks holds each lattice
    class's summand mask, and steps each class's lower covers in label
    order, one row each: (label, lower class, summand mask of the lower
    class, exchange bit, stable-factor mask, the four PATH_CHECKS masks)."""

    summands: list[SiltingSummand]
    summand_masks: list[int]
    steps: dict[int, list[tuple[int, ...]]]
    exchanges: list[tuple[int, int]]
    factors: list[tuple[int, int, int]]


class ClassTable(Record):
    """The classes in order (`GreenEngine.equivalence_classes`) and one
    column per invariant, each ORed along the class's normal form: summand
    masks and exchange and stable-factor masks, whose bits `CoverTable`
    numbers, and brick masks over catalog ids; by_key gives each class's
    index by its summand mask."""

    classes: tuple[EquivClass, ...]
    summand_masks: tuple[int, ...]
    exchange_masks: tuple[int, ...]
    factor_masks: tuple[int, ...]
    brick_masks: tuple[int, ...]
    by_key: dict[int, int]


class GreenEngine:
    def __init__(self, cat: ModuleCategory):
        self.cat = cat
        # the member bitmasks checked to be torsion classes
        self._checked: set[int] = set()
        self._silting_cache: dict[int, int] = {}
        # what each summand bit stands for
        self._summands = ([SiltingSummand(False, x) for x in range(len(cat.catalog))]
                          + [SiltingSummand(True, v) for v in range(cat.n)])
        self._cover_table: CoverTable | None = None
        self._class_table: ClassTable | None = None
        self._squares: list | None = None
        self._polygons: list | None = None

    # -- enumeration ---------------------------------------------------------

    def _insertion_maximal(self, seq: tuple[int, ...]) -> int | None:
        """None when maximal, else the bitmask of the bricks insertable at
        the first open slot: those y with hom(y, B_i) = 0 for the bricks
        before it and hom(B_i, y) = 0 for those after it."""
        left, right = self.cat.perp_masks, self.cat.right_perp_masks
        bricks = self.cat.brick_mask
        r = len(seq)
        suffix = [bricks] * (r + 1)
        for p in range(r - 1, -1, -1):
            suffix[p] = suffix[p + 1] & right[seq[p]]
        prefix = bricks
        for p in range(r + 1):
            open_mask = prefix & suffix[p]
            if open_mask:
                return open_mask
            if p < r:
                prefix &= left[seq[p]]
        return None

    def enumerate_mgs(self) -> list[MGS]:
        """Every maximal green sequence, in lexicographic order of brick
        ids (`sequence_walk`): the listing the tests compare against; the
        commands read `sequence_walk`, `sequence_at` and `class_members`."""
        return [MGS(s) for s in self.sequence_walk()]

    def sequence_walk(self):
        """An iterator over the cover labels of every maximal chain of the
        generated torsion lattice, in lexicographic order: the chains of
        `sequence_groups`, flattened; the gates fire on this call, before
        the first label is read."""
        return (head + t for head, _, tails in self.sequence_groups() for t, _ in tails)

    def sequence_groups(self):
        """The chains of `sequence_walk` as `_walk` groups them, once
        `_listed_lattice` admits them: (head, 0, tails), whose chains are
        head + t for the labels t of tails, a list shared by every group
        that reaches one class; the gates fire on this call."""
        lattice = self._listed_lattice()
        rows = {up: [(lab, lo, 0) for lo, lab in downs]
                for up, downs in lattice.lower_covers.items()}
        return self._walk(lattice, rows)

    def sequence_at(self, k: int) -> MGS:
        """The k-th sequence of `sequence_walk`, unranked from the per-class
        chain counts: at each class, the lower covers in label order whose
        chains all come before it are stepped over."""
        lattice = self.cat.generated_lattice()
        counts, labels, c = lattice.chain_counts, [], lattice.top
        if not 0 <= k < counts[c]:
            raise UsageError(
                f"green sequence index {k} out of range 0..{counts[c] - 1}")
        while c != lattice.bottom:
            for lo, lab in lattice.lower_covers[c]:
                if k < counts[lo]:
                    break
                k -= counts[lo]
            labels.append(lab)
            c = lo
        return MGS(tuple(labels))

    def _listed_lattice(self):
        """The generated torsion lattice, refused before any walk when it
        has more maximal chains than `SEQUENCE_GATE`."""
        lattice = self.cat.generated_lattice()
        chains = lattice.maximal_chain_count()
        if chains > SEQUENCE_GATE:
            raise GateError(
                f"{chains} maximal green sequences exceed the sequence gate "
                f"of {SEQUENCE_GATE}; they are not listed")
        return lattice

    def _walk(self, lattice, rows):
        """Yield the maximal chains grouped by shared prefix, where rows
        gives each class's lower covers in label order as (label, lower
        class, mask).  A group (head, mask, tails) holds the chains head + t,
        with mask | tm their OR of masks, for each (t, tm) of tails: head
        runs down to a class with at most `_TAIL_LIMIT` chains below it,
        whose chains are listed once, bottom up, as tails, and shared by
        every group that reaches it.  The lower covers of a class carry
        distinct labels, so the chains come lexicographically.  Every atom
        has one chain, so a tail is empty only when the head is too."""
        tails = {lattice.bottom: [((), 0)]}
        # in index order, each class comes after its lower covers
        for c in sorted(rows):
            if c not in tails and all(lo in tails for _, lo, _ in rows[c]):
                below = [((lab, *t), m | tm) for lab, lo, m in rows[c]
                         for t, tm in tails[lo]]
                if len(below) <= _TAIL_LIMIT:
                    tails[c] = below
        if lattice.top in tails:
            yield (), 0, tails[lattice.top]
            return
        # stack[i] runs over the lower covers of the class below prefix[:i],
        # with the OR of the masks along prefix[:i]
        prefix: list[int] = []
        stack = [(iter(rows[lattice.top]), 0)]
        while stack:
            below, above = stack[-1]
            for lab, lo, m in below:
                m |= above
                if lo in tails:
                    yield (*prefix, lab), m, tails[lo]
                else:
                    prefix.append(lab)
                    stack.append((iter(rows[lo]), m))
                    break
            else:
                stack.pop()
                del prefix[-1:]

    # -- validity --------------------------------------------------------------

    def explain_invalid(self, seq) -> str | None:
        cat, seq = self.cat, tuple(seq)
        perp = cat.perp_masks
        for b in seq:
            if not (0 <= b < len(cat.catalog)):
                return f"id {b} is outside the catalog"
            if b not in perp:
                return f"{cat.display(b)} is not a brick"
        if len(set(seq)) != len(seq):
            return "sequence repeats a brick"
        # allowed: modules y with hom(y, B_i) = 0 for every earlier B_i
        allowed = -1
        for j, b in enumerate(seq):
            if not allowed >> b & 1:
                hom = cat.hom_table[b]
                i = next(i for i in range(j) if hom[seq[i]] != 0)
                return (f"hom({cat.display(b)}, {cat.display(seq[i])}) != 0 "
                        f"for positions {i + 1} < {j + 1}")
            allowed &= perp[b]
        open_mask = self._insertion_maximal(seq)
        if open_mask is not None:
            b = (open_mask & -open_mask).bit_length() - 1
            return f"not maximal: brick {cat.display(b)} can be inserted"
        return None

    def is_valid_mgs(self, seq) -> bool:
        return self.explain_invalid(seq) is None

    # -- torsion chain and silting summands --------------------------------------

    def torsion_chain(self, g: MGS) -> list[int]:
        """The member bitmasks T_0 = the whole catalog and T_i = T_{i-1} &
        perp[B_i]: each step is the cover of T_{i-1} labelled B_i."""
        perp = self.cat.perp_masks
        full = (1 << len(self.cat.catalog)) - 1
        chain = [self._checked_class(full)]
        for b in g.bricks:
            if not chain[-1] >> b & 1:
                raise InvariantViolation(
                    f"brick {self.cat.display(b)} lies outside the torsion "
                    f"class it should label a cover of")
            chain.append(self._checked_class(chain[-1] & perp[b]))
        if chain[-1]:
            raise InvariantViolation("green sequence chain does not reach zero")
        if any(lo == up for up, lo in zip(chain, chain[1:])):
            raise InvariantViolation("green sequence chain is not strictly decreasing")
        return chain

    def _checked_class(self, t: int) -> int:
        """The member bitmask t, checked to be a torsion class on first use."""
        if t not in self._checked:
            if not self.cat.is_torsion_class(t):
                raise InvariantViolation(
                    f"chain step {list(_bits(t))} is not a torsion class")
            self._checked.add(t)
        return t

    def silting_summands(self, t: int) -> int:
        """The summand mask of the class with member bitmask t: its
        relative projectives, and bit len(catalog) + v for each P_v[1]
        with hom(P_v, T) = 0."""
        found = self._silting_cache.get(t)
        if found is None:
            perp, shift = self.cat.right_perp_masks, len(self.cat.catalog)
            found = self.cat.relative_projectives(t) | sum(
                1 << shift + v for v, pv in enumerate(self.cat.projectives)
                if not t & ~perp[pv])
            if found.bit_count() != self.cat.n:
                raise InvariantViolation(
                    f"silting summand set of {list(_bits(t))} has size "
                    f"{found.bit_count()}, expected {self.cat.n}")
            self._silting_cache[t] = found
        return found

    def summand_set(self, g: MGS) -> frozenset[SiltingSummand]:
        mask = reduce(or_, map(self.silting_summands, self.torsion_chain(g)))
        if mask.bit_count() != self.cat.n + len(g.bricks):
            raise InvariantViolation(
                f"summand set has size {mask.bit_count()}, expected "
                f"{self.cat.n}+{len(g.bricks)}")
        return frozenset(self._summands[i] for i in _bits(mask))

    def exchange_pairs(self, g: MGS) -> tuple[ExchangePair, ...]:
        chain, summands = self.torsion_chain(g), self._summands
        return tuple(ExchangePair(summands[out], summands[in_])
                     for out, in_ in map(self._cover_exchange, chain, chain[1:]))

    def _cover_exchange(self, up: int, lo: int) -> tuple[int, int]:
        """The outgoing and incoming summand bits of the cover up > lo,
        from the tabled summand masks of both classes."""
        su, sl = self.silting_summands(up), self.silting_summands(lo)
        gone, came = su & ~sl, sl & ~su
        if gone.bit_count() != 1 or came.bit_count() != 1:
            raise InvariantViolation(f"mutation step changes {gone.bit_count()}"
                                     f"+{came.bit_count()} summands")
        return gone.bit_length() - 1, came.bit_length() - 1

    # -- square deformations -------------------------------------------------------

    def square_swap(self, g: MGS, i: int) -> MGS | None:
        """Swap bricks at 1-based positions i, i+1 when the square exists:
        hom(B_i, B_{i+1}) = ext^1(B_i, B_{i+1}) = 0."""
        if not 1 <= i < len(g.bricks):
            raise UsageError(f"swap position {i} out of range 1..{len(g.bricks) - 1}")
        a, b = g.bricks[i - 1], g.bricks[i]
        if not self._commute(a, b):
            return None
        seq = g.bricks[:i - 1] + (b, a) + g.bricks[i + 1:]
        reason = self.explain_invalid(seq)
        if reason is not None:
            raise InvariantViolation(f"square swap broke the sequence: {reason}")
        return MGS(seq)

    def _commute(self, a: int, b: int) -> bool:
        """hom(a, b) = ext^1(a, b) = 0."""
        return self.cat.hom_table[a][b] == 0 and self.cat.ext1_table[a][b] == 0

    # -- Harder-Narasimhan filtrations ------------------------------------------------

    def hn_filtration(self, module, g: MGS) -> HNResult:
        msum = module if isinstance(module, ModuleSum) else ModuleSum((module,))
        chain = self.torsion_chain(g)
        layers = []
        for pos, (up, lo, b) in enumerate(zip(chain, chain[1:], g.bricks), 1):
            parts = [(self._layer_factor(x, up, lo), mult)
                     for x, mult in self._layers(up, lo, b, msum.ids)]
            if parts:
                layers.append(HNLayer(
                    position=pos, brick=b,
                    factor=ModuleSum(tuple(i for ids, _ in parts for i in ids)),
                    multiplicity=sum(mult for _, mult in parts)))
        total = self.cat.dimvec_sum(ModuleSum(tuple(
            i for layer in layers for i in layer.factor.ids)))
        if total != self.cat.dimvec_sum(msum):
            raise InvariantViolation("layer dimension vectors do not sum up")
        return HNResult(layers=tuple(layers))

    def _layer_factor(self, x: int, up: int, lo: int) -> tuple[int, ...]:
        """The summands of t_up(x)/t_lo(x): the quotients t_lo(y) of the
        summands y of t_up(x)."""
        sub, _ = self.cat.torsion_row(up)[x].pair
        lower = self.cat.torsion_row(lo)
        return tuple(sorted(i for y in sub.ids for i in lower[y].pair[1].ids))

    def stable_factors(self, module, g: MGS) -> Counter:
        """Multiset of bricks occurring as stable factors of the module."""
        out: Counter = Counter()
        for layer in self.hn_filtration(module, g).layers:
            out[layer.brick] += layer.multiplicity
        return out

    def stable_factor_function(self, g: MGS) -> dict[int, tuple[tuple[int, int], ...]]:
        catalog = self.cat.catalog
        rows: dict[int, list[tuple[int, int]]] = {x: [] for x in range(len(catalog))}
        dims = [0] * len(catalog)
        chain = self.torsion_chain(g)
        for up, lo, b in zip(chain, chain[1:], g.bricks):
            bdim = catalog[b].dim
            for x, mult in self._cover_multiplicities(up, lo, b):
                rows[x].append((b, mult))
                dims[x] += mult * bdim
        # the factors lie in Filt(b), so the layers of x add up to dim x
        for x, dim in enumerate(dims):
            if dim != catalog[x].dim:
                raise InvariantViolation(
                    f"layer dimensions of {self.cat.display(x)} sum to {dim}, "
                    f"not {catalog[x].dim}")
        return {x: tuple(sorted(row)) for x, row in rows.items()}

    def _cover_multiplicities(self, up: int, lo: int, b: int
                              ) -> tuple[tuple[int, int], ...]:
        """(x, multiplicity of b) for every catalog module x with a
        non-zero layer at the cover of `up` labelled b."""
        return tuple(self._layers(up, lo, b, range(len(self.cat.catalog))))

    def _layers(self, up: int, lo: int, b: int, modules):
        """(x, multiplicity of b) for each x of modules whose layer
        t_up(x)/t_lo(x) at the cover of `up` labelled b is non-zero, read
        off the torsion rows of both classes.  The layer holds the
        quotients t_lo(y) of the summands y of t_up(x), so its quotient
        mask is the OR of theirs and its dimension is dim t_up(x) less the
        sum of dim t_lo(y); it must lie in Filt(b) and its dimension must
        be a multiple of dim b."""
        cat = self.cat
        upper, lower = cat.torsion_row(up), cat.torsion_row(lo)
        filt = cat.filt_mask(1 << b)
        bdim, below = cat.catalog[b].dim, ~lo
        for x in modules:
            sub = upper[x]
            if not sub.sub_mask & below:
                continue  # t_up(x) lies in lo, so t_lo(t_up(x)) = t_up(x)
            quot, dim = 0, sub.dim
            for y in sub.pair[0].ids:
                t = lower[y]
                quot |= t.quot_mask
                dim -= t.dim
            if not quot:
                continue
            if quot & ~filt:
                factor = ModuleSum(self._layer_factor(x, up, lo))
                raise InvariantViolation(
                    f"layer {cat.display_sum(factor)} escapes the "
                    f"filtration category of {cat.display(b)}")
            if dim % bdim != 0:
                raise InvariantViolation(
                    f"layer dimension {dim} not a multiple of brick "
                    f"dimension {bdim}")
            yield x, dim // bdim

    # -- equivalence --------------------------------------------------------------------

    def equivalence_classes(self) -> list[EquivClass]:
        """The classes of the sequences, one per lexicographic normal form
        and in their order, each with its sorted summand key and its normal
        form as representative.  Theorem A, that square-swap closure,
        summand sets, exchange pairs and stable-factor functions give one
        partition, is certified locally: each key is equal on the two sides
        of every square (`square_failures`), and the keys of the normal
        forms, one per swap class (`_normal_forms`), are pairwise distinct.
        A failure raises with two sequences that the swap closure and a key
        group differently.  No sequence is listed.  Builds the class table
        (`class_table`) on the first call."""
        if self._class_table is not None:
            return list(self._class_table.classes)
        lattice = self.cat.generated_lattice()
        names = ("summand sets", "exchange pairs", "stable-factor functions")

        def disagree(name: str, x, y) -> TheoremViolation:
            return TheoremViolation(
                f"equivalence by square-swap closure disagrees with {name}: "
                f"sequences {[self.cat.display(i) for i in x]} and "
                f"{[self.cat.display(i) for i in y]}")

        for top, a, b, bottom, key in self.square_failures():
            if key >= len(names):
                continue  # a path column, which the lemma battery reports
            # the least chain through the side with the larger label first,
            # and its swap
            head = self._least_chain(lattice.top, top)
            tail = self._least_chain(bottom, lattice.bottom)
            b, a = sorted((a, b))
            raise disagree(names[key], head + [a, b] + tail,
                           head + [b, a] + tail)
        forms = self._normal_forms()
        for key, name in enumerate(names):
            first: dict[int, tuple[int, ...]] = {}
            for form in forms:
                seen = first.setdefault(form[key + 1], form[0])
                if seen != form[0]:
                    raise disagree(name, seen, form[0])
        # the summand key and the length are class invariants
        for form, mask, *_ in forms:
            if mask.bit_count() != self.cat.n + len(form):
                raise InvariantViolation(
                    f"summand set has size {mask.bit_count()}, expected "
                    f"{self.cat.n}+{len(form)}")
        reps, summ, exch, sff = zip(*forms)
        self._class_table = ClassTable(
            classes=tuple(EquivClass(
                key=tuple(map(self._summands.__getitem__, _bits(mask))),
                representative=MGS(form)) for form, mask in zip(reps, summ)),
            summand_masks=summ, exchange_masks=exch, factor_masks=sff,
            brick_masks=tuple(sum(1 << b for b in form) for form in reps),
            by_key={mask: ci for ci, mask in enumerate(summ)})
        return list(self._class_table.classes)

    def class_table(self) -> ClassTable:
        """The one table of class invariants, built by
        `equivalence_classes` on first use."""
        if self._class_table is None:
            self.equivalence_classes()
        return self._class_table

    def class_of(self, bricks) -> int:
        """The class of the sequence with these cover labels: the OR of the
        summand masks of the classes along its chain, looked up in the
        class table's by_key (a KeyError for a chain that stops above
        zero)."""
        return self.class_table().by_key[self._fold(bricks)[0]]

    def chain_rows(self, bricks):
        """The `cover_table` rows of the covers along the chain with these
        labels, top down; a UsageError for a label that names no cover."""
        lattice = self.cat.generated_lattice()
        steps, c = self.cover_table().steps, lattice.top
        for b in bricks:
            row = next((row for row in steps[c] if row[0] == b), None)
            if row is None:
                raise UsageError(f"{self.cat.display(b)} labels no cover "
                                 f"below {list(_bits(lattice.classes[c]))}")
            yield row
            c = row[1]

    def _fold(self, bricks) -> list[int]:
        """The `chain_rows` ORed column by column from the summand mask on,
        the top's summand mask included."""
        top = self.cover_table().summand_masks[self.cat.generated_lattice().top]
        folded = [top, 0, 0, 0, 0, 0, 0]
        for row in self.chain_rows(bricks):
            folded = list(map(or_, folded, row[2:]))
        return folded

    def class_members(self) -> list[tuple[int, ...]]:
        """Each class's indices in `sequence_walk`, from one walk (`_walk`)
        of every chain with the summand masks of `cover_table`: a chain
        joins the class of its mask, read per chain without its labels, the
        first chain of each class must be its representative, and the
        lattice must count the chains walked."""
        lattice = self._listed_lattice()  # before the classes are found
        table, covers = self.class_table(), self.cover_table()
        classes, by_key = table.classes, table.by_key
        rows = {up: [row[:3] for row in found] for up, found in covers.steps.items()}
        members: list[list[int]] = [[] for _ in classes]
        first: dict[int, tuple[int, ...]] = {}
        k = 0
        for head, above, tails in self._walk(lattice, rows):
            above |= covers.summand_masks[lattice.top]
            for j, (t, mask) in enumerate(tails, k):
                ci = by_key.get(above | mask)
                if ci is None:
                    raise InvariantViolation(
                        f"sequence {[self.cat.display(b) for b in head + t]} "
                        f"has a summand mask that is not the key of a class")
                if ci not in first:
                    first[ci] = head + t
                members[ci].append(j)
            k += len(tails)
        walked, count = sum(map(len, members)), lattice.maximal_chain_count()
        if walked != count:
            raise InvariantViolation(f"the lattice walk found {walked} "
                                     f"sequences where the lattice counts {count}")
        if first != {ci: c.representative.bricks for ci, c in enumerate(classes)}:
            raise InvariantViolation(
                "the first members of the classes are not the normal forms")
        return [tuple(found) for found in members]

    def path_failures(self) -> dict[str, list[tuple[int, ...]]]:
        """For each of the PATH_CHECKS, the labels of the sequences that
        fail it, in lexicographic order.  The square comparison
        (`square_failures`) makes each path mask a class invariant, so each
        check runs on the normal forms; only a square that differs or a
        normal form that fails makes it fold every chain of `sequence_walk`."""
        classes = self.class_table().classes
        modules = (1 << len(self.cat.catalog)) - 1

        def failed(bricks) -> list[str]:
            s, _, _, r, x, q, m = self._fold(bricks)
            held = (r == sum(1 << b for b in bricks),
                    x.bit_count() == 2 * len(bricks),
                    (s & modules).bit_count() == len(bricks), q == m)
            return [name for name, ok in zip(PATH_CHECKS, held) if not ok]

        failures: dict[str, list[tuple[int, ...]]] = {name: [] for name in PATH_CHECKS}
        if self.square_failures() or any(failed(c.representative.bricks)
                                         for c in classes):
            for labels in self.sequence_walk():
                for name in failed(labels):
                    failures[name].append(labels)
        return failures

    def cover_table(self) -> CoverTable:
        """`_cover_steps` of the generated lattice, built on first use."""
        if self._cover_table is None:
            self._cover_table = self._cover_steps(self.cat.generated_lattice())
        return self._cover_table

    def polygons(self) -> list:
        """`orders.polygon_deformation_pairs` of this engine, built on first
        use: the pentagon order and theorem B read this one list."""
        if self._polygons is None:
            from . import orders
            self._polygons = orders.polygon_deformation_pairs(self)
        return self._polygons

    def _cover_steps(self, lattice) -> CoverTable:
        """The bit-numbered contributions of the generated lattice's
        classes and covers to the three keys and the PATH_CHECKS.

        Returns the `CoverTable`: the fixed list of silting summands (bit i
        of a summand mask is the i-th), the summand mask of each class, and
        for each class its lower covers in label order as (label, lower
        class, summand mask of the lower class, exchange-pair bit,
        stable-factor mask, then four PATH_CHECKS masks: the relative
        simples of both classes; the outgoing summand's bit and the
        incoming one's, past the summands, so a path of length r sets 2r of
        these exactly when none repeats; and, over a Nakayama algebra, the
        socle quotient of a non-simple label and the non-projective module
        summands of both classes).  Each distinct exchange pair and each
        (module, brick, multiplicity) triple of an HN layer has a bit of
        its own, numbered in the table's exchanges and factors.  Every
        class and cover is checked once.  The layers at a
        cover U > L are read off the torsion rows of U and L
        (`_cover_multiplicities`), each module's through the summands y of
        t_U(x), so the layer dimensions of each module summed down to a
        class must not depend on the chain taken, which holds when
        t_L(t_U(x)) = t_L(x), and must give dim x at the bottom."""
        cat = self.cat
        catalog = cat.catalog
        tors = [self._checked_class(t) for t in lattice.classes]
        summ = [self.silting_summands(t) for t in tors]
        simples = [cat.relative_simples(t) for t in tors]
        socle, nonproj = {}, 0
        if cat.spec.is_nakayama:
            socle = {b: 1 << cat.backend.socle_quotient(b)
                     for b in set(cat.bricks) - set(cat.simples)}
            nonproj = (1 << len(catalog)) - 1 & ~sum(1 << p for p in cat.projectives)
        exch_bits: dict[tuple[int, int], int] = {}
        sff_bits: dict[tuple[int, int, int], int] = {}
        dims = {lattice.top: [0] * len(catalog)}
        steps: dict[int, list[tuple[int, ...]]] = {}
        # classes are sorted by size, so every upper cover of a class
        # comes later and has its dimensions by the time the class is read
        for up in range(len(tors) - 1, -1, -1):
            row = steps[up] = []
            for lo, b in lattice.lower_covers.get(up, ()):
                upper, lower = tors[up], tors[lo]
                if not upper >> b & 1:
                    raise InvariantViolation(
                        f"brick {cat.display(b)} lies outside the torsion "
                        f"class it should label a cover of")
                if lower == upper or lower & ~upper:
                    raise InvariantViolation(
                        f"cover {list(_bits(upper))} > "
                        f"{list(_bits(lower))} is not strictly decreasing")
                out, in_ = pair = self._cover_exchange(upper, lower)
                exch = exch_bits.setdefault(pair, 1 << len(exch_bits))
                sff = 0
                dim = list(dims[up])
                bdim = catalog[b].dim
                for x, mult in self._cover_multiplicities(upper, lower, b):
                    sff |= sff_bits.setdefault((x, b, mult), 1 << len(sff_bits))
                    dim[x] += mult * bdim
                known = dims.setdefault(lo, dim)
                if known != dim:
                    x = next(x for x in range(len(catalog)) if known[x] != dim[x])
                    raise InvariantViolation(
                        f"layer dimensions of {cat.display(x)} down to "
                        f"{list(_bits(lower))} depend on the chain: "
                        f"{known[x]} and {dim[x]}")
                row.append((b, lo, summ[lo], exch, sff, simples[up] | simples[lo],
                            1 << out | 1 << len(self._summands) + in_,
                            socle.get(b, 0), (summ[up] | summ[lo]) & nonproj))
        for x, dim in enumerate(dims[lattice.bottom]):
            if dim != catalog[x].dim:
                raise InvariantViolation(
                    f"layer dimensions of {cat.display(x)} sum to {dim}, "
                    f"not {catalog[x].dim}")
        return CoverTable(summands=self._summands, summand_masks=summ, steps=steps,
                          exchanges=list(exch_bits), factors=list(sff_bits))

    def square_failures(self) -> list[tuple[int, int, int, int, int]]:
        """(top class, a, b, bottom class, key) for each square of the
        generated lattice, covers a then b with hom(a, b) = ext^1(a, b) = 0,
        whose sides' summand, exchange and stable-factor contributions
        (with the top's summand mask) or four PATH_CHECKS columns differ;
        key 0, 1 or 2 names the first key that does, and keys 3 to 6 a path
        column.  The side b then a must exist and commute too.  A
        sequence's keys and path masks OR its covers' contributions, so
        with no failure the sequences that differ by a swap have equal
        ones.  The squares are walked on the first call only."""
        if self._squares is not None:
            return self._squares
        lattice = self.cat.generated_lattice()
        table = self.cover_table()
        summ, steps = table.summand_masks, table.steps
        below = {up: {row[0]: row for row in rows} for up, rows in steps.items()}
        failed = []
        for top, rows in steps.items():
            for a, mid, s1, *one in rows:
                for b, bottom, s2, *two in steps[mid]:
                    if not self._commute(a, b):
                        continue
                    side = below[top].get(b)
                    other = side and below[side[1]].get(a)
                    if not other or other[1] != bottom or not self._commute(b, a):
                        raise InvariantViolation(
                            f"square swap broke the sequence: below "
                            f"{list(_bits(lattice.classes[top]))}, {self.cat.display(b)} "
                            f"then {self.cat.display(a)} are not commuting "
                            f"lattice covers")
                    sides = zip((summ[top] | s1 | s2, *map(or_, one, two)),
                                (summ[top] | side[2] | other[2],
                                 *map(or_, side[3:], other[3:])))
                    differ = [key for key, (x, y) in enumerate(sides) if x != y]
                    if differ:
                        failed.append((top, a, b, bottom, differ[0]))
        self._squares = failed
        return failed

    def _least_chain(self, start: int, end: int) -> list[int]:
        """The labels of the lexicographically least chain from class start
        down to class end: the least label, at each class, whose lower class
        still contains end."""
        classes = self.cat.generated_lattice().classes
        steps = self.cover_table().steps
        labels, low = [], classes[end]
        while start != end:
            b, start, *_ = next(row for row in steps[start]
                                if not low & ~classes[row[1]])
            labels.append(b)
        return labels

    def _normal_forms(self) -> list[tuple[tuple[int, ...], int, int, int]]:
        """The lexicographic normal form of each square-swap class, in
        lexicographic order, with its summand, exchange and stable-factor
        masks ORed along its chain.

        Bricks that commute both ways (`square_failures` checks this on
        every square) act as a trace monoid, whose lexicographic normal
        forms have no label c after a larger label d with c commuting with
        d and with every label in between (Anisimov and Knuth; Diekert and
        Rozenberg, The Book of Traces).  So the walk of `cover_table`
        extends a prefix by c only when, scanning it backwards, a label
        that does not commute with c comes before a larger one that does."""
        lattice = self.cat.generated_lattice()
        table = self.cover_table()
        forms: list[tuple[tuple[int, ...], int, int, int]] = []
        path: list[int] = []

        def walk(c: int, s: int, e: int, f: int) -> None:
            if c == lattice.bottom:
                forms.append((tuple(path), s, e, f))
            for b, lo, ls, le, lf, *_ in table.steps[c]:
                # the last earlier label that is larger than b or blocks it
                d = next((d for d in reversed(path)
                          if d > b or not self._commute(d, b)), None)
                if d is None or not self._commute(d, b):
                    path.append(b)
                    walk(lo, s | ls, e | le, f | lf)
                    path.pop()

        walk(lattice.top, table.summand_masks[lattice.top], 0, 0)
        return forms
