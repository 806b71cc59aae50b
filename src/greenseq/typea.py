"""Type-A backend: interval modules over an arbitrarily oriented A_n quiver.

The catalog consists of the n(n+1)/2 interval modules.  Following the
top-down composition-series reading (the module "12" has top 1 and socle
2), we work with right modules: the structure map of an arrow x -> y
sends the fibre at y to the fibre at x.  Every fibre of an interval
module is 0 or 1-dimensional, so its structure map at a slot is one of
three matrices, shared by the whole catalog: the 1x1 identity when both
ends of the slot lie in the interval, a 1x0 matrix when only the target
does, and the empty matrix otherwise; an interval's maps are a run of
empty ones, the map at the slot before its start, identities, the map at
the slot after its end and empty ones again, joined from tuples built
once per backend.  A subset of an interval's
support carries a submodule iff it is closed under taking arrow sources,
i.e. y in S and an in-interval arrow x -> y force x in S.  The supports
are built vertex by vertex, keeping a partial support only while the
arrows it already spans are closed, so the work follows the number of
submodules rather than the 2^width subsets of the interval.  The short
exact sequences with an indecomposable middle term are read off the
supports on the first `records` call for that module; commands that
read only the Hom table never build them.

Hom spaces come from the supports alone (`hom_table`): with K = I ∩ J,
dim Hom(M_I, M_J) = 1 when K is non-empty, no structure map runs from
I \\ K into K and none runs from K into J \\ K, and 0 otherwise.  A map
is one scalar per vertex of K, equal across each arrow inside K, and an
arrow that crosses K's boundary in either of those ways forces the
scalar at its end in K to vanish.  As K is an interval, only the arrows
at its two ends are tested.

Ext^1 comes from the Hom table and the Euler form (`ext1_table`): the
path algebra is hereditary, so dim Hom(M, N) - dim Ext^1(M, N) =
<dim M, dim N> = sum over v of M_v N_v - sum over slots (s, d) of M_s N_d.
The projective presentation, which checks it, needs the syzygy of each
module (`projective_cover`), a sum of projectives P_v with multiplicities
m_v = deficit_v - sum over slots (s, v) of deficit_s, where deficit =
dim P_0 - dim M: the Cartan matrix has inverse 1 - A, as dim P_v at w
counts the structure-map paths from v to w.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import mul, or_

from .algebra import AlgebraSpec
from .errors import InvariantViolation, UsageError
from .modcat import Indec, ModuleSum, SesRecord

# the structure map at a slot (s, d) of an interval module, of shape
# (dim at d, dim at s): the 1x1 identity when both ends lie in the
# interval, one empty row when only the target does, and no rows otherwise
_BOTH, _TARGET, _NEITHER = ((1,),), ((),), ()
# the 256-entry byte table that sends the digits "0" and "1" to 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")


class TypeABackend:
    def __init__(self, spec: AlgebraSpec):
        if spec.is_nakayama:
            raise UsageError("TypeABackend needs a typeA spec")
        self.spec = spec
        self.n = spec.n
        # slot (s, d): the structure map V_s -> V_d between vertices s, d.
        slots = []
        for k, sym in enumerate(spec.orientation):
            slots.append((k + 1, k) if sym == ">" else (k, k + 1))
        self.slots = tuple(slots)
        self._maps = frozenset(slots)
        self.catalog = self._build_catalog()
        self._by_interval = {(m.descriptor[1] - 1, m.descriptor[2] - 1): m.ident
                             for m in self.catalog}
        self._records: list[tuple[SesRecord, ...] | None] = [None] * len(self.catalog)
        self.simples = tuple(self._by_interval[(v, v)] for v in range(self.n))
        self.projectives = tuple(
            self._by_interval[self._projective_interval(v)] for v in range(self.n))

    # -- catalog ------------------------------------------------------------

    def interval(self, a0: int, b0: int) -> int:
        return self._by_interval[(a0, b0)]

    def _display(self, a0: int, b0: int) -> str:
        # Radical layering: layer of w = longest structure-map path into w
        # within the support, the longer of the run of arrows pointing
        # right that ends at w and the run pointing left; rows are printed
        # top to bottom.
        maps = self._maps
        layer = [0] * (b0 - a0 + 1)
        for w in range(a0 + 1, b0 + 1):
            if (w - 1, w) in maps:
                layer[w - a0] = layer[w - 1 - a0] + 1
        run = 0
        for w in range(b0 - 1, a0 - 1, -1):
            run = run + 1 if (w + 1, w) in maps else 0
            layer[w - a0] = max(layer[w - a0], run)
        rows = [[] for _ in range(max(layer) + 1)]
        for w, lvl in enumerate(layer, a0 + 1):
            rows[lvl].append(str(w))
        return ("" if self.n <= 9 else "|").join(map("".join, rows))

    def _build_catalog(self) -> list[Indec]:
        n, maps = self.n, self._maps
        zeros, ones = (0,) * n, (1,) * n
        neither, both = (_NEITHER,) * n, (_BOTH,) * n
        # an interval's maps at the slots before its start a0, and after
        # its end b0: empty ones, but _TARGET at the slot next to the end
        # when that slot's map runs into the interval
        before = [()] + [neither[:a0 - 1] + ((_TARGET if (a0 - 1, a0) in maps
                                              else _NEITHER),)
                         for a0 in range(1, n)]
        after = [((_TARGET if (b0 + 1, b0) in maps else _NEITHER),)
                 + neither[b0 + 2:] for b0 in range(n - 1)] + [()]
        catalog = []
        for a0 in range(n):
            for b0 in range(a0, n):
                catalog.append(Indec(
                    len(catalog), ("I", a0 + 1, b0 + 1),
                    zeros[:a0] + ones[a0:b0 + 1] + zeros[b0 + 1:],
                    before[a0] + both[:b0 - a0] + after[b0],
                    self._display(a0, b0)))
        return catalog

    # -- hom -------------------------------------------------------------------

    def hom_table(self) -> tuple[tuple[int, ...], ...]:
        """table[a][b] = dim Hom(a, b) for every pair of catalog ids, from
        the interval ends and the structure maps at the ends of their
        intersection: one row per bitmask over the catalog, an AND of
        masks of intervals by their ends."""
        maps, n = self._maps, self.n
        ends = [(m.descriptor[1] - 1, m.descriptor[2] - 1) for m in self.catalog]
        # the intervals that start at vertex x, and those that end at x
        start_at, end_at = [0] * n, [0] * n
        for j, (a1, b1) in enumerate(ends):
            start_at[a1] |= 1 << j
            end_at[b1] |= 1 << j
        # starts_le[x]: the intervals that start at or before vertex x;
        # ends_ge[x]: those that end at or after x
        starts_le = list(accumulate(start_at, or_))
        ends_ge = list(accumulate(end_at[::-1], or_))[::-1]
        # the intervals with a structure map into their start, and into their end
        into_start = reduce(or_, (start_at[x] for x in range(1, n)
                                  if (x - 1, x) in maps), 0)
        into_end = reduce(or_, (end_at[x] for x in range(n - 1)
                                if (x + 1, x) in maps), 0)
        size = len(ends)
        table = []
        for a0, b0 in ends:
            # K = I ∩ J is non-empty
            row = starts_le[b0] & ends_ge[a0]
            # no map from I \ K into K: none into the start of a J that
            # starts after a0, none into the end of a J that ends before b0
            row &= ~(into_start & ~starts_le[a0]) & ~(into_end & ~ends_ge[b0])
            # none from K into J \ K: a map out of I's start bars every J
            # that starts before a0, one out of its end every J that ends
            # after b0
            if (a0, a0 - 1) in maps:
                row &= ~starts_le[a0 - 1]
            if (b0, b0 + 1) in maps:
                row &= ~ends_ge[b0 + 1]
            # the binary digits, low bit first, as the bytes 0 and 1
            table.append(tuple(
                format(row, f"0{size}b")[::-1].encode().translate(_DIGITS)))
        return tuple(table)

    def ext1_table(self, hom) -> tuple[tuple[int, ...], ...]:
        """table[a][b] = dim Ext^1(a, b) from the Euler form of the
        hereditary path algebra, given the Hom table:
        hom(a, b) - <dim a, dim b>, the arrow term over the slots."""
        def euler(da, db):
            return (sum(map(mul, da, db))
                    - sum(da[s] * db[d] for s, d in self.slots))

        dims = [m.dimvec for m in self.catalog]
        return tuple(tuple(h - euler(da, db) for h, db in zip(row, dims))
                     for row, da in zip(hom, dims))

    # -- submodule structure ---------------------------------------------------

    def submodule_supports(self, i: int) -> list[frozenset[int]]:
        """All submodule supports of an interval module, 1-based vertices,
        including the empty set and the full support, sorted by size and
        then by vertex tuple.  Built vertex by vertex from the left end:
        vertex k is added off or on, and the partial support is kept only
        while every in-interval arrow whose larger endpoint is k keeps
        "s in S forces d in S"."""
        _, a1, b1 = self.catalog[i].descriptor
        a0, b0 = a1 - 1, b1 - 1
        width = b0 - a0 + 1
        # in-interval arrows as local (s, d), grouped by max(s, d)
        closing: list[list[tuple[int, int]]] = [[] for _ in range(width)]
        for s, d in self.slots:
            if a0 <= s <= b0 and a0 <= d <= b0:
                closing[max(s, d) - a0].append((s - a0, d - a0))
        masks = [0]
        for k in range(width):
            masks = [m for mask in masks for m in (mask, mask | 1 << k)
                     if all(not (m >> s & 1) or (m >> d & 1)
                            for s, d in closing[k])]
        supports = [frozenset(a0 + k + 1 for k in range(width) if mask >> k & 1)
                    for mask in masks]
        return sorted(supports, key=lambda f: (len(f), tuple(sorted(f))))

    def _components(self, verts: list[int]) -> list[int]:
        """Interval ids of the connected components of a vertex set."""
        out = []
        run: list[int] = []
        for v in sorted(verts):
            if run and v != run[-1] + 1:
                out.append(self.interval(run[0], run[-1]))
                run = []
            run.append(v)
        if run:
            out.append(self.interval(run[0], run[-1]))
        return out

    def _build_records(self, i: int) -> tuple[SesRecord, ...]:
        _, a1, b1 = self.catalog[i].descriptor
        a0, b0 = a1 - 1, b1 - 1
        full = set(range(a0, b0 + 1))
        recs = []
        for supp in self.submodule_supports(i):
            verts = {v - 1 for v in supp}
            if not verts or verts == full:
                continue
            sub = ModuleSum(tuple(self._components(sorted(verts))))
            quot = ModuleSum(tuple(self._components(sorted(full - verts))))
            recs.append(SesRecord(middle=i, sub=sub, quot=quot))
        return tuple(recs)

    def records(self, i: int) -> tuple[SesRecord, ...]:
        """Module i's short exact sequences, built on the first call."""
        recs = self._records[i]
        if recs is None:
            recs = self._records[i] = self._build_records(i)
        return recs

    # -- homological helpers -----------------------------------------------------

    def _projective_interval(self, v: int) -> tuple[int, int]:
        lo = v
        while lo > 0 and self.spec.orientation[lo - 1] == ">":
            lo -= 1
        hi = v
        while hi < self.n - 1 and self.spec.orientation[hi] == "<":
            hi += 1
        return lo, hi

    def _top_vertices(self, i: int) -> list[int]:
        _, a1, b1 = self.catalog[i].descriptor
        a0, b0 = a1 - 1, b1 - 1
        radical = {d for s, d in self.slots if a0 <= s <= b0 and a0 <= d <= b0}
        return [v for v in range(a0, b0 + 1) if v not in radical]

    def projective_cover(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        tops = self._top_vertices(i)
        p0 = tuple(sorted(self.projectives[t] for t in tops))
        covers = [self.catalog[p].dimvec for p in p0]
        deficit = [sum(d[v] for d in covers) - x
                   for v, x in enumerate(self.catalog[i].dimvec)]
        # the syzygy's multiplicities: (1 - A) deficit, by the inverse
        # Cartan matrix (module docstring)
        mult = list(deficit)
        for s, d in self.slots:
            mult[d] -= deficit[s]
        if any(m < 0 for m in mult):
            raise InvariantViolation(
                f"syzygy decomposition is not a projective multiset: {mult}")
        omega = []
        for v, m in enumerate(mult):
            omega.extend([self.projectives[v]] * m)
        return p0, tuple(sorted(omega))
