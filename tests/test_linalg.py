"""Fraction-free elimination over both fields against the eliminations
it replaces.

`rank_exact` and `rank_mod_p` replace a row by a * row - f * pivot_row,
then divide it by the gcd of its entries or reduce it mod p.  The
oracles below are the eliminations the two paths ran before: each pivot
row is scaled to a leading 1, by a Fraction over the rationals and by a
modular inverse over F_p, and subtracted from the rows below it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from greenseq import ModuleCategory
from greenseq import modcat
from greenseq.linalg import DEFAULT_PRIME, rank_exact, rank_mod_p

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


def _rank_by_inverses(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in row] for row in rows]
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], prow)]
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


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_rank_mod_p_matches_inverses_on_hom_systems(spec, monkeypatch):
    systems = _hom_systems(spec, monkeypatch)
    assert systems
    for rows in systems:
        assert rank_mod_p(rows) == _rank_by_inverses(rows, DEFAULT_PRIME), rows


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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices(), st.sampled_from([2, 3, 5, 7, DEFAULT_PRIME]))
def test_rank_mod_p_matches_inverses_on_integer_matrices(rows, p):
    before = [list(row) for row in rows]
    assert rank_mod_p(rows, p) == _rank_by_inverses(rows, p)
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


@pytest.mark.parametrize("rows, rank", [
    # an entry equal to p is zero in F_p and never becomes a pivot
    ([[DEFAULT_PRIME, 1], [0, 1]], 1),
    ([[DEFAULT_PRIME, 0], [2 * DEFAULT_PRIME, 0]], 0),
    ([[DEFAULT_PRIME + 1, 1], [1, DEFAULT_PRIME + 1]], 1),
    ([[1, 2, 3], [DEFAULT_PRIME, 1, 1], [1, 2, 3 + DEFAULT_PRIME]], 2),
])
def test_rank_mod_p_reduces_entries_equal_to_p(rows, rank):
    assert rank_mod_p(rows) == rank == _rank_by_inverses(rows, DEFAULT_PRIME)
