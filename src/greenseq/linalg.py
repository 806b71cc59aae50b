"""Exact rank computation for the morphism constraint systems.

The Hom table that every command reads comes from the backends' closed
forms; this elimination is its oracle.  The category solves every
catalog pair once, in its field, F_p unless exact
(`ModuleCategory.solved_hom_table`): `ModuleCategory(exact=True)` (the
CLI's `--exact`) solves it over the rationals and compares it with the
table, and the type-A verify check `interval-hom-dimensions-at-most-one`
reads it.  The category builds a system once per distinct restriction
of a pair of modules and calls this once per distinct system.

One fraction-free Gaussian elimination serves two fields: the prime field
F_p with p = 1000003 by default, and the rationals for paranoia runs.  A
row is replaced by a * row - f * pivot_row (a the pivot, f the row's
entry under it).  Each step is an invertible row operation, because a is
nonzero in the field, so the rank is the rank over that field.  Over F_p
the input rows and every updated row are reduced mod p, so a pivot is
never a nonzero multiple of p and no inverse is taken; over the
rationals an updated row is divided by the gcd of its entries, so the
entries stay small integers.  The catalog matrices have entries in
{0, 1}; the tests check that both fields give the closed form's dim Hom
for every catalog pair of their sweep, and compare each field's rank
with an elimination that scales every pivot row to a leading 1.
"""

from math import gcd

DEFAULT_PRIME = 1000003


def rank_over(rows: list[list[int]], p: int | None) -> int:
    """Rank of an integer matrix over F_p, or over the rationals when p
    is None."""
    if p is None:
        rows = [row for row in rows if any(row)]
    else:
        rows = [[x % p for x in row] for row in rows if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        lead = prow[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                if p is None:
                    row = [lead * x - f * y for x, y in zip(rows[r], prow)]
                    g = gcd(*row)
                    rows[r] = [x // g for x in row] if g > 1 else row
                else:
                    rows[r] = [(lead * x - f * y) % p
                               for x, y in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rank_mod_p(rows: list[list[int]], p: int = DEFAULT_PRIME) -> int:
    """Rank of an integer matrix over F_p."""
    return rank_over(rows, p)


def rank_exact(rows: list[list[int]]) -> int:
    """Rank over the rationals."""
    return rank_over(rows, None)
