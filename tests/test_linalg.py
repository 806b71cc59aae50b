"""Rational rank by fraction-free elimination against the Fraction
elimination it replaces.

`rank_exact` replaces a row by a * row - f * pivot_row and divides it by
the gcd of its entries.  The oracle below is the elimination with
Fraction pivots that the `--exact` path ran before: each pivot row is
scaled to a leading 1 and subtracted from the rows below it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import ModuleCategory
from greenseq import modcat
from greenseq.linalg import rank_exact, rank_mod_p

from conftest import full_battery


def _rank_by_fractions(rows: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = [x / rows[rank][col] for x in rows[rank]]
        rows[rank] = prow
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _hom_systems(spec, monkeypatch) -> list[list[list[int]]]:
    """Every constraint system the exact path ranks while filling the Hom
    table of spec."""
    systems = []

    def recording(rows):
        systems.append([list(row) for row in rows])
        return rank_exact(rows)

    monkeypatch.setattr(modcat, "rank_exact", recording)
    ModuleCategory(spec, exact=True)
    return systems


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_rank_exact_matches_fractions_on_hom_systems(spec, monkeypatch):
    systems = _hom_systems(spec, monkeypatch)
    assert systems
    for rows in systems:
        assert rank_exact(rows) == _rank_by_fractions(rows), rows


def _matrices():
    return st.integers(0, 8).flatmap(lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        max_size=8))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices())
def test_rank_exact_matches_fractions_on_integer_matrices(rows):
    before = [list(row) for row in rows]
    assert rank_exact(rows) == _rank_by_fractions(rows)
    assert rows == before


@pytest.mark.parametrize("rows, rank", [
    ([], 0),
    ([[0, 0], [0, 0]], 0),
    ([[2, 3], [4, 6]], 1),
    ([[2, 1], [1, 2]], 2),
    ([[3, -3, 0], [0, 2, -2], [-1, 0, 1]], 2),
    ([[0, 1, 1], [2, 0, 1], [2, 1, 2], [1, 1, 1]], 3),
])
def test_rank_exact_known_values(rows, rank):
    assert rank_exact(rows) == rank == _rank_by_fractions(rows)


def test_fields_differ_where_p_divides_a_minor():
    # det = p: full rank over Q, rank 1 over F_p
    p = 1000003
    rows = [[1, 0], [0, p]]
    assert rank_exact(rows) == 2
    assert rank_mod_p(rows) == 1
