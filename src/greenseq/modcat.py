"""Backend-agnostic module-category layer.

Everything is computed over a fixed catalog of indecomposable modules
produced by a backend (Nakayama or type A).  The Hom table, dim Hom for
every catalog pair, which every later Hom query reads, is the backend's
closed form on the module descriptors (`hom_table`), with no linear
algebra.  Solving the commuting-square constraint system on the explicit
arrow matrices (`_hom_dim`) stays as its oracle: with `exact=True` (the
CLI's `--exact`) every pair is solved over the rationals and the first
that disagrees with the table raises `InvariantViolation`, and the
type-A verify check `interval-hom-dimensions-at-most-one` solves every
pair in the category's field, F_p unless exact.  A pair's system reads
only the part of the quiver on the common support of the two modules
and at the slots that can give it rows, so each pair is keyed by the
modules' restrictions to that part, one AND of per-module codes, and a
system is built only for a key not seen before; the ranks are kept in a
memo keyed by the rows, so each distinct system is eliminated once per
category (typeA <x16 has 15,657 pairs with a common support, 545 keys
and 64 distinct systems).  The Ext^1 table is the
backend's closed form too, read off the Hom table on first use
(`ext1_table`): the Euler form of the hereditary path algebra (type A),
or the injective envelope of the second module (Nakayama).  The
projective cover sequence 0 -> O -> P -> M -> 0 of the first module
gives Ext^1 from the Hom table by another route (`ext1_presentation`;
each module's cover is computed once per category), and the verify
check `ext-formula-matches-presentation-oracle` compares the two on
every pair, on both backends.

A torsion class is the bitmask of its members over catalog ids, closed
under indecomposable quotients and under extensions with indecomposable
middle term.  The lattices, the engine and the checks hold a class in
that one format, and every message prints it as its sorted id list
(`_bits`).  Every other bitmask of modules in greenseq is over catalog
ids too, and the routines that test Hom-vanishing or SES records against
a set of modules read the tables below.  The short exact sequences of
each module are encoded once, on first use, as bitmasks of their sub
and quotient summands (`sub_records`, `_quotient_masks`, `_ses_masks`),
so every per-class test is a mask test: the torsion predicates
(`is_torsion_class`, `relative_simples`, the subset oracle's cover
labels), the torsion closure (a fixed point on the same masks), Filt of
a set of bricks (`filt_mask`, one closure per brick mask) and the
torsion submodules t_T(x), tabled once per class as one row holding
t_T(x) for every module x (`torsion_row`).  The Hom table is read as two
perpendicular tables, each built on first use: the left one, brick B ->
the mask of x with hom(x, B) = 0 (`perp_masks`), and the right one,
module x -> the mask of m with hom(x, m) = 0 (`right_perp_masks`).  An
interval [T, U] is U ANDed with the right perpendiculars of the members
of T (`interval_members`), and a brick list is checked by ANDing the two
tables along it (`GreenEngine.explain_invalid`).  The torsion lattice is
generated from its brick-labelled covers on first use
(`generated_lattice`): the cover labelled B below T is T &
perp_masks[B], which the torsion chains of green sequences read too.
Its maximal chains are counted on the lattice, never listed; the orders
walk its polygons.  A brute-force enumeration over all subsets of the
catalog (`torsion_lattice`) stays as the independent oracle that the
verification suites and tests compare against: it lists each class's
proper sub-classes once and takes as covers those inside no other, and
the fixed `SUBSET_GATE` refuses it above 16 modules.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from operator import and_, gt, or_

from .algebra import AlgebraSpec, Record
from .errors import GateError, InvariantViolation, UsageError
from .linalg import rank_exact, rank_mod_p

# the subset oracle (`torsion_lattice`) scans every subset of the catalog,
# so it admits catalogs of at most 16 modules: every 5-vertex type-A
# algebra (15 modules); 6-vertex type A has 21
SUBSET_GATE = 1 << 16
# the torsion lattice search stops once it finds more classes than this.
# Over all 6- and 7-vertex type-A orientations, linear Kupisch series on
# at most 7 vertices and cyclic 4^4, 4^5, 5^5 the most is 1,430 (7-vertex
# type A): at most 0.22 s, then 8,477-10,929 classes of sequences in 1.9 s
# and 50 MB.  typeA <<<<<<< has 4,862: 0.66 s, then 89,405 classes in
# 8.7 s and 154 MB (in-process, one run each, 2 vCPUs)
LATTICE_GATE = 2_000


class Indec(Record):
    """An isomorphism class of indecomposable modules.

    matrices[k] is the structure map of arrow slot k as a row-major
    matrix of shape (dimvec[dst], dimvec[src]).
    """

    ident: int
    descriptor: tuple
    dimvec: tuple[int, ...]
    matrices: tuple
    display: str

    @property
    def dim(self) -> int:
        return sum(self.dimvec)


class ModuleSum(Record):
    """Finite multiset of indecomposable summands; () is the zero module."""

    ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(sorted(self.ids)))

    @property
    def is_zero(self) -> bool:
        return not self.ids


ZERO = ModuleSum(())


class SesRecord(Record):
    """A short exact sequence 0 -> sub -> middle -> quot -> 0 with middle
    indecomposable and sub, quot both non-zero."""

    middle: int
    sub: ModuleSum
    quot: ModuleSum


class SubRecord(namedtuple(
        "SubRecord", "sub_mask quot_mask dim dimvec pair clashes")):
    """One candidate for the torsion submodule of a module x: the zero
    submodule, x itself, or the sub of one SES record of x, with the
    bitmasks of the summands of the sub and of the quotient, its dimension
    and dimension vector, and the pair (sub, quotient) of `ModuleSum`s.
    clashes holds the sub masks of the candidates of x that break the
    torsion-submodule checks when this one is the largest that fits: a
    different sub of the same dimension, or a sub whose dimension vector
    this one's misses."""

    __slots__ = ()


class TorsionLattice(Record):
    """All torsion classes with labelled covering relations.

    classes are the member bitmasks over catalog ids, in order of size
    (`_sorted_lattice` builds every lattice), so each class comes after
    its lower covers; covers are (upper, lower, label) index triples into
    `classes`.
    """

    classes: tuple[int, ...]
    covers: tuple[tuple[int, int, int], ...]
    top: int
    bottom: int

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {c: k for k, c in enumerate(self.classes)}

    @cached_property
    def lower_covers(self) -> dict[int, list[tuple[int, int]]]:
        """upper index -> its (lower, label) pairs in label order."""
        below: dict[int, list[tuple[int, int]]] = {}
        for up, lab, lo in sorted((up, lab, lo) for up, lo, lab in self.covers):
            below.setdefault(up, []).append((lo, lab))
        return below

    def index_of(self, t: int) -> int:
        try:
            return self._positions[t]
        except KeyError:
            raise ValueError(
                f"{list(_bits(t))} is not a class of the lattice") from None

    @cached_property
    def chain_counts(self) -> dict[int, int]:
        """class index -> the number of maximal chains from it to the bottom."""
        counts = {self.bottom: 1}
        # in index order, each class comes after its lower covers
        for idx in range(len(self.classes)):
            if idx == self.bottom:
                continue
            counts[idx] = sum(counts[lo]
                              for lo, _ in self.lower_covers.get(idx, ()))
        return counts

    def maximal_chain_count(self) -> int:
        return self.chain_counts[self.top]


class ModuleCategory:
    """Catalog of indecomposables plus the exact homological calculus."""

    def __init__(self, spec: AlgebraSpec, exact: bool = False):
        self.spec = spec
        self.exact = exact
        # each backend is imported only when a spec needs it
        if spec.is_nakayama:
            from .nakayama import NakayamaBackend
            self.backend = NakayamaBackend(spec)
        else:
            from .typea import TypeABackend
            self.backend = TypeABackend(spec)
        self.n = spec.n
        self.slots = self.backend.slots
        self.catalog: list[Indec] = self.backend.catalog
        self._by_descriptor = {m.descriptor: m.ident for m in self.catalog}
        self._by_display = {m.display: m.ident for m in self.catalog}
        # a brick mask -> the mask of its Filt (`filt_mask`)
        self._filt_cache: dict[int, int] = {}
        self._torsion_rows: dict[int, list[SubRecord]] = {}
        self._lattice: TorsionLattice | None = None
        self._generated: TorsionLattice | None = None
        # the rows of each distinct Hom system solved -> its rank
        self._ranks: dict[tuple, int] = {}
        # `_hom_dim`'s key of a pair -> dim Hom, and a selection of
        # vertex and slot fields -> the mask of those fields in the codes
        self._hom_dims: dict[tuple[int, int, int], int] = {}
        self._field_masks: dict[int, int] = {}
        # hom_table[a][b] = dim Hom(a, b) for every pair of catalog ids
        self.hom_table: tuple[tuple[int, ...], ...] = self.backend.hom_table()
        if exact:
            self._check_hom_table()

    # -- catalog ----------------------------------------------------------

    @property
    def simples(self) -> tuple[int, ...]:
        return self.backend.simples

    @property
    def projectives(self) -> tuple[int, ...]:
        return self.backend.projectives

    def is_simple(self, i: int) -> bool:
        return self.catalog[i].dim == 1

    def is_projective(self, i: int) -> bool:
        return i in self.backend.projectives

    def display(self, i: int) -> str:
        return self.catalog[i].display

    def display_sum(self, m: ModuleSum) -> str:
        if m.is_zero:
            return "0"
        return "+".join(self.display(i) for i in m.ids)

    def descriptor_str(self, i: int) -> str:
        d = self.catalog[i].descriptor
        if d[0] == "U":
            return f"U({d[1]},{d[2]})"
        return f"I[{d[1]},{d[2]}]"

    def dim_sum(self, m: ModuleSum) -> int:
        return sum(self.catalog[i].dim for i in m.ids)

    def dimvec_sum(self, m: ModuleSum) -> tuple[int, ...]:
        v = [0] * self.n
        for i in m.ids:
            for k, x in enumerate(self.catalog[i].dimvec):
                v[k] += x
        return tuple(v)

    # -- hom / ext --------------------------------------------------------

    def _rank(self, rows) -> int:
        return rank_exact(rows) if self.exact else rank_mod_p(rows)

    @cached_property
    def _hom_codes(self) -> tuple[list[int], ...]:
        """Each catalog module encoded once, for the keys of `_hom_dim`:
        its support as a vertex mask, the masks of the slots whose source
        and whose target lie in it, and its code, one integer with a field
        per vertex v, an interned id of dimvec[v], then a field per slot
        k = (s, d), an interned id of (dimvec[s], dimvec[d], matrices[k]).
        Last, the mask of each field, vertices first."""
        vert_ids: dict[int, int] = {}
        slot_ids: dict[tuple, int] = {}
        fields = [[vert_ids.setdefault(x, len(vert_ids)) for x in M.dimvec]
                  + [slot_ids.setdefault((M.dimvec[s], M.dimvec[d],
                                          M.matrices[k]), len(slot_ids))
                     for k, (s, d) in enumerate(self.slots)]
                  for M in self.catalog]
        width = max(len(vert_ids), len(slot_ids)).bit_length()
        full = (1 << width) - 1
        field_masks = [full << (f * width)
                       for f in range(self.n + len(self.slots))]
        supp, src, dst, code = [], [], [], []
        for M, ids in zip(self.catalog, fields):
            dims = M.dimvec
            supp.append(_mask(v for v, x in enumerate(dims) if x))
            src.append(_mask(k for k, (s, _) in enumerate(self.slots)
                             if dims[s]))
            dst.append(_mask(k for k, (_, d) in enumerate(self.slots)
                             if dims[d]))
            code.append(sum(i << (f * width) for f, i in enumerate(ids)))
        return supp, src, dst, code, field_masks

    def _hom_dim(self, a: int, b: int) -> int:
        """dim Hom(a, b) solved on the commuting squares (`_hom_system`),
        read from a memo keyed by the pair's restriction to what its
        system reads.  The rows read only the dimensions on the common
        support C and, at each active slot (one whose rows can be
        non-zero: source in a's support, target in b's, and target in a's
        or source in b's), the dimensions at both ends and both structure
        matrices.  So the key is the selection of C's vertex fields and
        the active slots' fields, with both codes masked to it; a pair
        whose key was seen before builds no rows."""
        supp, src, dst, code, field_masks = self._hom_codes
        common = supp[a] & supp[b]
        if not common:
            return 0
        active = src[a] & dst[b] & (dst[a] | src[b])
        selected = common | active << self.n
        mask = self._field_masks.get(selected)
        if mask is None:
            mask = self._field_masks[selected] = sum(
                m for f, m in enumerate(field_masks) if selected >> f & 1)
        key = (selected, code[a] & mask, code[b] & mask)
        dim = self._hom_dims.get(key)
        if dim is None:
            dim = self._hom_dims[key] = self._hom_system(a, b)
        return dim

    def _hom_system(self, a: int, b: int) -> int:
        """dim Hom(a, b) solved on the commuting squares: one unknown per
        entry of each map M_v -> N_v on the common support, one row per
        entry of the square of each slot (s, d) that can give a non-zero
        row (M_s and N_d non-zero, and M_d or N_s), zero rows dropped.  The
        rank is read from a memo keyed by the rows, so each distinct system
        is eliminated once per category."""
        M, N = self.catalog[a], self.catalog[b]
        ms, ns = M.dimvec, N.dimvec
        offs, total = {}, 0
        for v in range(self.n):
            if ms[v] and ns[v]:
                offs[v] = total
                total += ms[v] * ns[v]
        if not total:
            return 0
        rows = []
        for k, (s, d) in enumerate(self.slots):
            if not (ms[s] and ns[d] and (ms[d] or ns[s])):
                continue
            TM, TN = M.matrices[k], N.matrices[k]
            for i in range(ns[d]):
                for j in range(ms[s]):
                    row = [0] * total
                    for t in range(ms[d]):
                        row[offs[d] + i * ms[d] + t] += TM[t][j]
                    for t in range(ns[s]):
                        row[offs[s] + t * ms[s] + j] -= TN[i][t]
                    if any(row):
                        rows.append(tuple(row))
        key = tuple(rows)
        rank = self._ranks.get(key)
        if rank is None:
            rank = self._ranks[key] = self._rank(rows)
        return total - rank

    def _check_hom_table(self) -> None:
        """Raise on the first catalog pair whose table entry differs from
        dim Hom solved by elimination."""
        size = len(self.catalog)
        for a in range(size):
            for b in range(size):
                solved = self._hom_dim(a, b)
                if solved != self.hom_table[a][b]:
                    raise InvariantViolation(
                        f"dim Hom({self.display(a)}, {self.display(b)}) is "
                        f"{self.hom_table[a][b]} in the Hom table but "
                        f"{solved} by elimination")

    def _as_sum(self, m) -> ModuleSum:
        if isinstance(m, ModuleSum):
            return m
        if isinstance(m, Indec):
            if not (0 <= m.ident < len(self.catalog)
                    and self.catalog[m.ident] is m):
                raise UsageError(
                    f"module {m.display!r} belongs to a different algebra")
            return ModuleSum((m.ident,))
        if isinstance(m, int):
            if not 0 <= m < len(self.catalog):
                raise UsageError(
                    f"id {m} outside the catalog (size {len(self.catalog)})")
            return ModuleSum((m,))
        raise UsageError(f"expected an indecomposable id or ModuleSum, got {m!r}")

    def _as_id(self, m) -> int:
        ids = self._as_sum(m).ids
        if len(ids) != 1:
            raise UsageError(f"expected an indecomposable, got {m!r}")
        return ids[0]

    def hom(self, a, b) -> int:
        """dim Hom(a, b); additive over direct sums in both arguments."""
        sa, sb = self._as_sum(a), self._as_sum(b)
        return sum(self.hom_table[x][y] for x in sa.ids for y in sb.ids)

    def ext1(self, a, b) -> int:
        """dim Ext^1(a, b) for an indecomposable a; additive in b."""
        a = self._as_id(a)
        return sum(self.ext1_table[a][y] for y in self._as_sum(b).ids)

    @cached_property
    def ext1_table(self) -> tuple[tuple[int, ...], ...]:
        """ext1_table[a][b] = dim Ext^1(a, b) for every pair of catalog ids,
        the backend's closed form on the Hom table, built on first use."""
        table = self.backend.ext1_table(self.hom_table)
        for a, row in enumerate(table):
            low = min(row)
            if low < 0:
                raise InvariantViolation(
                    f"negative Ext dimension for ({self.display(a)}, "
                    f"{self.display(row.index(low))}) in the Ext table")
        return table

    @cached_property
    def _presentations(self) -> tuple[tuple[ModuleSum, ModuleSum], ...]:
        """x -> (P, O) of its projective cover sequence 0 -> O -> P -> x -> 0,
        computed once per category on first use."""
        return tuple((ModuleSum(p0), ModuleSum(omega))
                     for p0, omega in map(self.backend.projective_cover,
                                          range(len(self.catalog))))

    def ext1_presentation(self, a, b) -> int:
        """Ext^1 from the projective cover sequence 0 -> O -> P -> a -> 0:
        dim Ext^1(a, N) = hom(O, N) - hom(P, N) + hom(a, N)."""
        a = self._as_id(a)
        sb = self._as_sum(b)
        p0, omega = self._presentations[a]
        val = self.hom(omega, sb) - self.hom(p0, sb) + self.hom(a, sb)
        if val < 0:
            raise InvariantViolation(
                f"presentation gave negative Ext dimension for ({a}, {b})")
        return val

    def is_brick(self, i: int) -> bool:
        return self.hom_table[i][i] == 1

    @property
    def bricks(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.catalog)) if self.is_brick(i))

    @cached_property
    def brick_mask(self) -> int:
        """The bricks as a bitmask over catalog ids; built on first use."""
        return _mask(self.bricks)

    # -- submodule structure ----------------------------------------------

    def sub_quotient_pairs(self, i: int) -> tuple[SesRecord, ...]:
        return self.backend.records(i)

    def indec_quotients(self, i: int) -> frozenset[ModuleSum]:
        quots = {ModuleSum((i,))}
        for rec in self.backend.records(i):
            quots.add(rec.quot)
        return frozenset(quots)

    # -- torsion classes ----------------------------------------------------

    @cached_property
    def sub_records(self) -> tuple[tuple[SubRecord, ...], ...]:
        """x -> the candidates for its torsion submodules: the zero
        submodule, x itself, then the sub of each SES record of x.  Built
        on first use, so the catalog and the bricks build no records."""
        out = []
        for x in range(len(self.catalog)):
            pairs = [(ZERO, ModuleSum((x,))), (ModuleSum((x,)), ZERO)]
            pairs += [(rec.sub, rec.quot) for rec in self.backend.records(x)]
            cands = [SubRecord(_mask(sub.ids), _mask(quot.ids),
                               self.dim_sum(sub), self.dimvec_sum(sub),
                               (sub, quot), ()) for sub, quot in pairs]
            out.append(tuple(c._replace(clashes=tuple(
                o.sub_mask for o in cands
                if (o.dim == c.dim and o.pair[0] != c.pair[0])
                or any(map(gt, o.dimvec, c.dimvec)))) for c in cands))
        return tuple(out)

    @cached_property
    def _quotient_masks(self) -> tuple[int, ...]:
        """x -> the bitmask of x and of the summands of its quotients."""
        return tuple(reduce(or_, (c.quot_mask for c in cands))
                     for cands in self.sub_records)

    @cached_property
    def _ses_masks(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """x -> (sub mask, quotient mask) of each SES record of x, the
        candidates after the zero submodule and x itself."""
        return tuple(tuple((c.sub_mask, c.quot_mask) for c in cands[2:])
                     for cands in self.sub_records)

    def is_torsion_class(self, t: int) -> bool:
        """Is the member bitmask t closed under quotients and under
        extensions with indecomposable middle term?"""
        out = ~t
        for i, (quots, ses) in enumerate(zip(self._quotient_masks,
                                             self._ses_masks)):
            if t >> i & 1:
                if quots & out:
                    return False
            else:
                for sub, quot in ses:
                    if not (sub | quot) & out:
                        return False
        return True

    def torsion_closure(self, seed: int) -> int:
        """The least torsion class holding the modules of the bitmask seed:
        the fixed point of adding the quotients of each member and each
        module with an SES record whose summands are members, the rule
        `is_torsion_class` tests."""
        members, grown = None, seed
        while grown != members:
            members = grown
            for i, (quots, ses) in enumerate(zip(self._quotient_masks,
                                                 self._ses_masks)):
                if grown >> i & 1:
                    grown |= quots
                elif any(not (sub | quot) & ~grown for sub, quot in ses):
                    grown |= 1 << i
        if not self.is_torsion_class(members):
            raise InvariantViolation(
                f"torsion closure of {list(_bits(seed))} is not closed: "
                f"{list(_bits(members))}")
        return members

    def torsion_row(self, t: int) -> list[SubRecord]:
        """The torsion submodules of the class with member bitmask t: entry
        x is the record of t_T(x), the largest candidate of x whose sub lies
        in the class, which must be the only one of its dimension and
        dominate the others' dimension vectors.  Built once per class."""
        row = self._torsion_rows.get(t)
        if row is None:
            out, row = ~t, []
            for x, cands in enumerate(self.sub_records):
                best = cands[0]
                for c in cands:
                    if c.dim > best.dim and not c.sub_mask & out:
                        best = c
                if any(not m & out for m in best.clashes):
                    self._torsion_sub_failure(x, t, best)
                row.append(best)
            self._torsion_rows[t] = row
        return row

    def _torsion_sub_failure(self, x: int, t: int, best: SubRecord) -> None:
        """Raise on the first torsion-submodule check that x fails in the
        class with member bitmask t."""
        fits = [c for c in self.sub_records[x] if not c.sub_mask & ~t]
        top = [c.pair[0] for c in fits if c.dim == best.dim]
        if len(set(top)) != 1:
            raise InvariantViolation(
                f"torsion submodule of {self.display(x)} is not unique: "
                f"{[self.display_sum(s) for s in top]}")
        for c in fits:
            if any(map(gt, c.dimvec, best.dimvec)):
                raise InvariantViolation(
                    f"torsion submodule of {self.display(x)} fails to dominate "
                    f"{self.display_sum(c.pair[0])}")

    @cached_property
    def _ext1_masks(self) -> tuple[int, ...]:
        """x -> the bitmask of the catalog members m with Ext^1(x, m) != 0."""
        return tuple(_mask(m for m, e in enumerate(row) if e)
                     for row in self.ext1_table)

    def relative_projectives(self, t: int) -> int:
        """The bitmask of the members x of the class t with Ext^1(x, t) = 0."""
        ext = self._ext1_masks
        return _mask(x for x in _bits(t) if not ext[x] & t)

    def relative_simples(self, t: int) -> int:
        """The bitmask of the members of the class t that are relatively
        simple: no proper non-zero submodule (the sub of an SES record)
        lies entirely in the class."""
        out, ses = ~t, self._ses_masks
        return _mask(b for b in _bits(t) if all(sub & out for sub, _ in ses[b]))

    def filt_mask(self, bricks: int) -> int:
        """The bitmask of Filt of the bricks in the bitmask: the bricks, then
        each module with an SES record whose quotient summands are among
        the bricks and whose sub summands are already in.  Built once per
        brick mask."""
        members = self._filt_cache.get(bricks)
        if members is None:
            members, grown = None, bricks
            while grown != members:
                members = grown
                for i, ses in enumerate(self._ses_masks):
                    if grown >> i & 1:
                        continue
                    for sub, quot in ses:
                        if not quot & ~bricks and not sub & ~grown:
                            grown |= 1 << i
                            break
            self._filt_cache[bricks] = members
        return members

    # -- the brute-force lattice oracle -------------------------------------

    def torsion_lattice(self) -> TorsionLattice:
        """The torsion lattice by a scan of every subset of the catalog,
        refused above `SUBSET_GATE` subsets, also once it is cached."""
        count = len(self.catalog)
        if (1 << count) > SUBSET_GATE:
            raise GateError(
                f"torsion lattice needs 2^{count} subset checks, above the "
                f"gate of {SUBSET_GATE}; raise the gate to force it")
        if self._lattice is not None:
            return self._lattice
        classes = [s for s in range(1 << count) if self.is_torsion_class(s)]
        covers = []
        for ci in classes:
            # its covers are the proper sub-classes inside no other one
            subs = [cj for cj in classes if cj != ci and not cj & ~ci]
            for cj in subs:
                if all(cj == ck or cj & ~ck for ck in subs):
                    covers.append((ci, cj, self._cover_label(ci, cj)))
        self._lattice = _sorted_lattice(count, classes, covers)
        return self._lattice

    # -- the lattice generated from its covers --------------------------------

    @cached_property
    def perp_masks(self) -> dict[int, int]:
        """brick -> bitmask of the catalog members x with hom(x, brick) = 0,
        its left Hom-perpendicular.  The cover labelled B below a torsion
        class T is T intersected with this mask; built on first use."""
        size = len(self.catalog)
        hom = self.hom_table
        return {b: sum(1 << x for x in range(size) if hom[x][b] == 0)
                for b in self.bricks}

    @cached_property
    def right_perp_masks(self) -> tuple[int, ...]:
        """x -> bitmask of the catalog members m with hom(x, m) = 0, the
        right Hom-perpendicular of x; built on first use."""
        return tuple(_mask(m for m, h in enumerate(row) if not h)
                     for row in self.hom_table)

    def generated_lattice(self) -> TorsionLattice:
        """The torsion lattice, generated from its covers by a search down
        from the whole category.  The lower covers of a class T are the
        inclusion-maximal sets among T intersected with the left
        hom-perpendicular of B, over the bricks B in T, and such a B labels
        its cover (brick labelling: Demonet, Iyama, Reading, Reiten, Thomas,
        "Lattice theory of torsion classes", arXiv:1711.01785).  Built on the
        first call; equal to `torsion_lattice()` wherever both run."""
        if self._generated is not None:
            return self._generated
        size = len(self.catalog)
        perps = list(self.perp_masks.items())
        top = (1 << size) - 1
        seen = {top}
        todo = [top]
        covers = []
        while todo:
            upper = todo.pop()
            candidates: dict[int, list[int]] = {}
            for b, perp in perps:
                if upper >> b & 1:
                    candidates.setdefault(upper & perp, []).append(b)
            for lower, labels in candidates.items():
                if any(lower != other and lower & ~other == 0
                       for other in candidates):
                    continue
                if len(labels) != 1:
                    raise InvariantViolation(
                        f"cover below {list(_bits(upper))} has "
                        f"{len(labels)} brick labels: {labels}")
                covers.append((upper, lower, labels[0]))
                if lower not in seen:
                    seen.add(lower)
                    if len(seen) > LATTICE_GATE:
                        raise GateError(f"the torsion lattice has more than "
                                        f"{LATTICE_GATE} classes, the lattice gate")
                    todo.append(lower)
        self._generated = _sorted_lattice(size, seen, covers)
        return self._generated

    def interval_members(self, upper: int, lower: int) -> int:
        """[T, U] = U intersected with the right Hom-perpendicular of T."""
        perp = self.right_perp_masks
        return reduce(and_, (perp[t] for t in _bits(lower)), upper)

    def _cover_label(self, upper: int, lower: int) -> int:
        """The one member of the interval with no SES record inside it."""
        interval = self.interval_members(upper, lower)
        out, ses = ~interval, self._ses_masks
        labels = [b for b in _bits(interval)
                  if all((sub | quot) & out for sub, quot in ses[b])]
        if len(labels) != 1:
            raise InvariantViolation(
                f"cover {list(_bits(upper))} > {list(_bits(lower))} has "
                f"{len(labels)} label candidates: {labels}")
        return labels[0]

    # -- name resolution -----------------------------------------------------

    def resolve_token(self, token: str) -> int:
        """Resolve '#id', 'U(top,len)', 'I[a,b]' or a display name."""
        token = token.strip()
        if token.startswith("#"):
            try:
                i = int(token[1:])
            except ValueError:
                raise UsageError(f"bad id token {token!r}") from None
            if not 0 <= i < len(self.catalog):
                raise UsageError(f"id {i} outside the catalog (size {len(self.catalog)})")
            return i
        desc = _parse_descriptor(token)
        if desc is not None:
            if desc[0] == "U" and not self.spec.is_nakayama:
                raise UsageError(f"{token!r} is a Nakayama descriptor; this algebra is typeA")
            if desc[0] == "I" and self.spec.is_nakayama:
                raise UsageError(f"{token!r} is a typeA descriptor; this algebra is Nakayama")
            if desc not in self._by_descriptor:
                raise UsageError(f"{token!r} does not name a catalog module")
            return self._by_descriptor[desc]
        if token in self._by_display:
            return self._by_display[token]
        raise UsageError(f"cannot resolve module {token!r}")

    def resolve_module_expr(self, expr: str) -> ModuleSum:
        ids = [self.resolve_token(t) for t in expr.split("+") if t.strip()]
        if not ids:
            raise UsageError(f"empty module expression {expr!r}")
        return ModuleSum(tuple(ids))


def _mask(ids) -> int:
    return reduce(or_, (1 << i for i in ids), 0)


def _bits(mask: int):
    """The positions of the set bits of mask, in increasing order, found
    by one scan of its binary digits, low bit first: O(n) for a row of n
    bits, where clearing the low bit costs O(n/64) words per set bit."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _sorted_lattice(size: int, classes, covers) -> TorsionLattice:
    """The lattice with classes sorted by (size, ids) and (upper, lower,
    label) cover triples, given as member bitmasks, sorted by index."""
    ordered = tuple(sorted(classes, key=lambda c: (c.bit_count(), tuple(_bits(c)))))
    idx = {c: k for k, c in enumerate(ordered)}
    return TorsionLattice(
        classes=ordered,
        covers=tuple(sorted((idx[up], idx[lo], lab) for up, lo, lab in covers)),
        top=idx[(1 << size) - 1],
        bottom=idx[0],
    )


def _parse_descriptor(token: str):
    import re

    m = re.fullmatch(r"U\((\d+),(\d+)\)", token)
    if m:
        return ("U", int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"I\[(\d+),(\d+)\]", token)
    if m:
        return ("I", int(m.group(1)), int(m.group(2)))
    return None
