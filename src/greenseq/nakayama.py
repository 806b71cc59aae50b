"""Nakayama backend: uniserial catalog from a Kupisch series.

Arrows run i -> i+1 (cyclically for cyclic algebras) and M(i, l) is the
uniserial with radical layers S_i, S_{i+1}, ..., S_{i+l-1}.  Structure
maps follow the arrows; submodules are spans of bottom layers, so the
unique length-m submodule of M(i, l) is M(i+l-m, m).

Hom spaces come from the descriptors alone (`hom_table`):
dim Hom(M(i, l), N(j, m)) is the number of layers p of N(j, m) with
max(0, m - l) <= p < m that sit at vertex i.  M(i, l) is cyclic,
generated at vertex i and killed by the paths of length l, so a map is
the image of the generator: an element of N at vertex i, which a path
of length l sends from layer p to layer p + l, zero exactly when
p + l >= m.

Ext^1 comes from the Hom table and injective envelopes (`ext1_table`):
dim Ext^1(M, N) = hom(M, I/N) - hom(M, I) + hom(M, N), where I is the
longest uniserial whose socle is the socle of N, which is the injective
envelope of N, and I/N is the top len(I) - len(N) layers of I, zero when
I = N.  Hom(M, -) applied to 0 -> N -> I -> I/N -> 0 gives the exact
sequence 0 -> Hom(M, N) -> Hom(M, I) -> Hom(M, I/N) -> Ext^1(M, N) ->
Ext^1(M, I) = 0, whose dimensions sum to zero with alternating signs.
The formula shares only the Hom table with the projective presentation
of M (`projective_cover`), so each checks the other.
"""

from __future__ import annotations

from .algebra import AlgebraSpec
from .errors import UsageError
from .modcat import Indec, ModuleSum, SesRecord


class NakayamaBackend:
    def __init__(self, spec: AlgebraSpec):
        if not spec.is_nakayama:
            raise UsageError("NakayamaBackend needs a Nakayama spec")
        self.spec = spec
        self.n = spec.n
        self.kupisch = spec.kupisch
        if spec.cyclic:
            self.slots = tuple((j, (j + 1) % self.n) for j in range(self.n))
        else:
            self.slots = tuple((j, j + 1) for j in range(self.n - 1))
        self.catalog = self._build_catalog()
        self._by_desc = {(m.descriptor[1] - 1, m.descriptor[2]): m.ident
                         for m in self.catalog}
        self._records = [self._build_records(i) for i in range(len(self.catalog))]
        self.simples = tuple(self._by_desc[(v, 1)] for v in range(self.n))
        self.projectives = tuple(
            self._by_desc[(v, self.kupisch[v])] for v in range(self.n))

    # -- catalog ------------------------------------------------------------

    def _layers(self, top0: int, length: int) -> list[int]:
        if self.spec.cyclic:
            return [(top0 + k) % self.n for k in range(length)]
        return [top0 + k for k in range(length)]

    def _display(self, top0: int, length: int) -> str:
        verts = self._layers(top0, length)
        if self.n <= 9:
            return "".join(str(v + 1) for v in verts)
        return "|".join(str(v + 1) for v in verts)

    def _build_catalog(self) -> list[Indec]:
        catalog = []
        for top0 in range(self.n):
            for length in range(1, self.kupisch[top0] + 1):
                verts = self._layers(top0, length)
                spaces = [0] * self.n
                local = []
                for v in verts:
                    local.append(spaces[v])
                    spaces[v] += 1
                mats = []
                for s, d in self.slots:
                    m = [[0] * spaces[s] for _ in range(spaces[d])]
                    for k in range(length - 1):
                        if verts[k] == s and verts[k + 1] == d:
                            m[local[k + 1]][local[k]] = 1
                    mats.append(tuple(tuple(r) for r in m))
                catalog.append(Indec(
                    ident=len(catalog),
                    descriptor=("U", top0 + 1, length),
                    dimvec=tuple(spaces),
                    matrices=tuple(mats),
                    display=self._display(top0, length),
                ))
        return catalog

    def uniserial(self, top0: int, length: int) -> int:
        """Catalog id of M(top, length); vertices 0-based here."""
        return self._by_desc[(top0 % self.n, length)]

    # -- hom -----------------------------------------------------------------

    def hom_table(self) -> tuple[tuple[int, ...], ...]:
        """table[a][b] = dim Hom(a, b) for every pair of catalog ids, from
        the top of a, its length, and the layers of b."""
        shapes = [(m.descriptor[1] - 1, m.descriptor[2]) for m in self.catalog]
        layers = [self._layers(top, length) for top, length in shapes]
        return tuple(
            tuple(verts[max(0, len(verts) - length):].count(top)
                  for verts in layers)
            for top, length in shapes)

    def ext1_table(self, hom) -> tuple[tuple[int, ...], ...]:
        """table[a][b] = dim Ext^1(a, b) from b's injective envelope I,
        given the Hom table: hom(a, I/b) - hom(a, I) + hom(a, b)."""
        shapes = [(m.descriptor[1] - 1, m.descriptor[2]) for m in self.catalog]
        socles = [self._layers(top, length)[-1] for top, length in shapes]
        # socle vertex -> the longest uniserial with that socle
        envelope = {socles[i]: i for i in sorted(range(len(shapes)),
                                                 key=lambda i: shapes[i][1])}
        cols = []
        for b, (_, length) in enumerate(shapes):
            inj = envelope[socles[b]]
            top, full = shapes[inj]
            # I/b, the top full - length layers of I; none when I = b
            quot = self.uniserial(top, full - length) if full > length else None
            cols.append((b, inj, quot))
        return tuple(
            tuple(row[b] - row[inj] + (row[quot] if quot is not None else 0)
                  for b, inj, quot in cols)
            for row in hom)

    # -- submodule structure --------------------------------------------------

    def _build_records(self, i: int) -> tuple[SesRecord, ...]:
        _, top1, length = self.catalog[i].descriptor
        top0 = top1 - 1
        recs = []
        for m in range(1, length):
            subtop = (top0 + length - m) % self.n if self.spec.cyclic \
                else top0 + length - m
            sub = ModuleSum((self.uniserial(subtop, m),))
            quot = ModuleSum((self.uniserial(top0, length - m),))
            recs.append(SesRecord(middle=i, sub=sub, quot=quot))
        return tuple(recs)

    def records(self, i: int) -> tuple[SesRecord, ...]:
        return self._records[i]

    # -- homological helpers ---------------------------------------------------

    def projective_cover(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(P_0, syzygy) of the i-th indecomposable, as id tuples."""
        _, top1, length = self.catalog[i].descriptor
        top0 = top1 - 1
        c = self.kupisch[top0]
        p0 = (self.uniserial(top0, c),)
        if length == c:
            return p0, ()
        omega_top = (top0 + length) % self.n if self.spec.cyclic \
            else top0 + length
        return p0, (self.uniserial(omega_top, c - length),)

    def socle_quotient(self, i: int) -> int | None:
        """B -> B/soc B; None for simples."""
        _, top1, length = self.catalog[i].descriptor
        if length == 1:
            return None
        return self.uniserial(top1 - 1, length - 1)
