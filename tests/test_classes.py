"""Equivalence classes from the local certificate against the
per-sequence four-way construction it replaces.

`GreenEngine.equivalence_classes` checks that each key is equal on the
two sides of every lattice square and that the keys of the lexicographic
normal forms, one per swap class, are pairwise distinct; each class is
its normal form.  The members of each class come from the one walk of
every chain (`GreenEngine._walk`), which ORs summand masks down each
path (`class_members`).  The oracle below builds all four partitions
sequence by sequence from the public invariants: swap components
through `square_swap` (which re-checks every swapped sequence with
`explain_invalid`) and an index of the listed sequences, and one key per
sequence from `summand_set`, `exchange_pairs` and
`stable_factor_function`.  It compares them pairwise, as the engine did
before.
"""

import ast
import re


import pytest
from hypothesis import given, settings

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory
from greenseq.errors import InvariantViolation, TheoremViolation, UsageError
from greenseq.green import PATH_CHECKS, EquivClass
from greenseq.orders import ORDER_TAGS, build_order
from greenseq.verify import run_suite

from conftest import (EXAMPLE_QUIVER, category_for, drop_last_chain, edit_walk,
                      engine_for, full_battery, ids_of, repeat_last_chain)
from test_green import _small_algebra
from test_verify import _patch_square_side

EXTRA_SPECS = [AlgebraSpec.type_a("<<<<"), AlgebraSpec.nakayama([3, 3, 3, 2, 1]),
               AlgebraSpec.nakayama([3, 3, 3], cyclic=True)]


def _swap_components(eng, all_mgs):
    index = {g.bricks: k for k, g in enumerate(all_mgs)}
    adj = {k: set() for k in range(len(all_mgs))}
    for k, g in enumerate(all_mgs):
        for i in range(1, len(g.bricks)):
            swapped = eng.square_swap(g, i)
            if swapped is None:
                continue
            j = index.get(swapped.bricks)
            if j is None:
                raise InvariantViolation(
                    "square swap produced an unenumerated sequence")
            adj[k].add(j)
            adj[j].add(k)
    seen = set()
    blocks = set()
    for k in range(len(all_mgs)):
        if k in seen:
            continue
        stack, comp = [k], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        blocks.add(frozenset(comp))
    return blocks


def _partition_witness(pa, pb):
    """A pair of indices grouped together by one partition but not the other."""
    for block in pa:
        for other in pb:
            inter = block & other
            if inter and inter != block:
                x = min(inter)
                y = min(block - inter)
                return (x, y)
    for block in pb:
        for other in pa:
            inter = block & other
            if inter and inter != block:
                return (min(inter), min(block - inter))
    raise InvariantViolation("partitions differ without witness")


def _partition(indices, keyfunc):
    groups = {}
    for k in indices:
        groups.setdefault(keyfunc(k), set()).add(k)
    return {frozenset(v) for v in groups.values()}


def oracle_classes(eng):
    """The four partitions built sequence by sequence, compared pairwise;
    the classes are the summand-set blocks in order of their least
    member.  Returns the classes and the members of each."""
    all_mgs = eng.enumerate_mgs()
    count = len(all_mgs)
    partitions = {
        "square-swap closure": _swap_components(eng, all_mgs),
        "summand sets": _partition(
            range(count), lambda k: tuple(sorted(eng.summand_set(all_mgs[k])))),
        "exchange pairs": _partition(
            range(count), lambda k: frozenset(eng.exchange_pairs(all_mgs[k]))),
        "stable-factor functions": _partition(
            range(count), lambda k: tuple(
                eng.stable_factor_function(all_mgs[k]).items())),
    }
    names = list(partitions)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            pa, pb = partitions[names[a]], partitions[names[b]]
            if pa != pb:
                x, y = _partition_witness(pa, pb)
                raise TheoremViolation(
                    f"equivalence by {names[a]} disagrees with {names[b]}: "
                    f"sequences "
                    f"{[eng.cat.display(i) for i in all_mgs[x].bricks]} and "
                    f"{[eng.cat.display(i) for i in all_mgs[y].bricks]}")
    blocks = [tuple(sorted(block))
              for block in sorted(partitions["summand sets"], key=min)]
    classes = [EquivClass(key=tuple(sorted(eng.summand_set(all_mgs[found[0]]))),
                          representative=all_mgs[found[0]])
               for found in blocks]
    return classes, blocks


def _fresh(spec):
    return GreenEngine(ModuleCategory(spec))


def _assert_same_classes(spec):
    eng = _fresh(spec)
    classes, blocks = oracle_classes(_fresh(spec))
    assert eng.equivalence_classes() == classes
    assert eng.class_members() == blocks
    all_mgs = eng.enumerate_mgs()
    for ci, found in enumerate(blocks):
        for k in found:
            assert eng.class_of(all_mgs[k].bricks) == ci


@pytest.mark.parametrize("spec", full_battery() + EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_classes_match_per_sequence_oracle(spec):
    _assert_same_classes(spec)


# derandomized: the oracle on a five-vertex type-A draw costs up to 5 s
@settings(max_examples=10, deadline=None, derandomize=True)
@given(_small_algebra())
def test_classes_match_per_sequence_oracle_on_drawn_algebras(spec):
    _assert_same_classes(spec)


@pytest.mark.parametrize("spec", full_battery(), ids=lambda s: s.label())
def test_commuting_swaps_are_valid_and_enumerated(spec):
    # the square walk trusts the lattice's covers where square_swap
    # re-checks the swapped sequence with explain_invalid
    eng = _fresh(spec)
    listed = {g.bricks for g in eng.enumerate_mgs()}
    for g in eng.enumerate_mgs():
        seq = g.bricks
        for i in range(len(seq) - 1):
            if eng._commute(seq[i], seq[i + 1]):
                swapped = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]
                assert eng.is_valid_mgs(swapped)
                assert swapped in listed


# -- fault injection ------------------------------------------------------------

def _patch_last_cover(monkeypatch, field):
    """Patch the walk's contribution of the cover from the class {1} down
    to zero in the example: the summand bit that enters there, the
    exchange bit or the stable-factor mask is replaced by a bit no other
    cover has.  The summand count stays n + length, since the replaced
    summand enters at the bottom and nowhere else."""
    real = GreenEngine._cover_steps

    def patched(self, lattice):
        summands, summ, steps = real(self, lattice)
        one = self.cat.resolve_token("1")
        up = lattice.index_of(1 << one)
        (b, lo, s, e, f, *rest), = steps[up]
        fresh = 1 << 200
        if field == "summand":
            entering = s & ~summ[up]
            s = s & ~entering | fresh
        elif field == "exchange":
            e = fresh
        else:
            f |= fresh
        steps[up] = [(b, lo, s, e, f, *rest)]
        return summands, summ, steps

    monkeypatch.setattr(GreenEngine, "_cover_steps", patched)


@pytest.mark.parametrize("field, name", [
    ("summand", "summand sets"),
    ("exchange", "exchange pairs"),
    ("sff", "stable-factor functions"),
])
def test_patched_cover_contribution_breaks_agreement(monkeypatch, field, name):
    _patch_last_cover(monkeypatch, field)
    eng = _fresh(EXAMPLE_QUIVER)
    with pytest.raises(TheoremViolation) as exc:
        eng.equivalence_classes()
    message = str(exc.value)
    match = re.fullmatch(
        rf"equivalence by square-swap closure disagrees with {name}: "
        r"sequences (\[.*\]) and (\[.*\])", message)
    assert match, message
    # the witness: two sequences that differ by swapping the last two
    # bricks, 1 and 3
    first, second = (ast.literal_eval(group) for group in match.groups())
    assert first[:-2] == second[:-2]
    assert {first[-1], second[-1]} == {"1", "3"}


# an exchange pair no cover has: P_0[1] out and the catalog module 0 in,
# as (outgoing, incoming) summand bits of the example, which has 6 modules
_FAKE_EXCHANGE = (6, 0)


def test_disagreement_witness_matches_oracle(monkeypatch):
    # a fake exchange pair on the cover from {1} down to zero splits the
    # same sequences in the walk and in the per-sequence oracle
    real = GreenEngine._cover_exchange

    def patched(self, up, lo):
        if up == 1 << self.cat.resolve_token("1"):
            return _FAKE_EXCHANGE
        return real(self, up, lo)

    monkeypatch.setattr(GreenEngine, "_cover_exchange", patched)
    messages = []
    for classes in (lambda eng: eng.equivalence_classes(), oracle_classes):
        with pytest.raises(TheoremViolation) as exc:
            classes(_fresh(EXAMPLE_QUIVER))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "disagrees with exchange pairs" in messages[0]


def test_equal_keys_of_two_normal_forms_break_agreement(monkeypatch):
    # one exchange pair on every cover: every square agrees, but every
    # class has the same exchange key
    monkeypatch.setattr(GreenEngine, "_cover_exchange",
                        lambda self, up, lo: _FAKE_EXCHANGE)
    eng = _fresh(EXAMPLE_QUIVER)
    with pytest.raises(TheoremViolation) as exc:
        eng.equivalence_classes()
    message = str(exc.value)
    match = re.fullmatch(
        r"equivalence by square-swap closure disagrees with exchange pairs: "
        r"sequences (\[.*\]) and (\[.*\])", message)
    assert match, message
    all_mgs = eng.enumerate_mgs()
    index = {g.bricks: k for k, g in enumerate(all_mgs)}
    x, y = (index[ids_of(eng.cat, ast.literal_eval(group))]
            for group in match.groups())
    assert not any(x in block and y in block
                   for block in _swap_components(eng, all_mgs))


def test_removed_square_side_raises_through_equivalence_classes():
    eng = _fresh(EXAMPLE_QUIVER)
    _patch_square_side(eng, lambda rows, k: rows[:k] + rows[k + 1:])
    with pytest.raises(InvariantViolation, match="square swap broke the sequence"):
        eng.equivalence_classes()


def test_one_sided_commuting_square_raises(monkeypatch):
    # the normal forms assume that a swap can be undone
    real = GreenEngine._commute
    monkeypatch.setattr(GreenEngine, "_commute",
                        lambda self, a, b: a < b and real(self, a, b))
    with pytest.raises(InvariantViolation, match="not commuting lattice covers"):
        _fresh(EXAMPLE_QUIVER).equivalence_classes()


def refuse_sequence_walks(monkeypatch):
    """Make listing a sequence or walking every chain raise: `_walk` is
    the one walk of every chain."""
    def refuse(*args):
        raise AssertionError("sequences walked")

    monkeypatch.setattr(GreenEngine, "_walk", refuse)


def _orders_and_theorems(spec, eng):
    tags = [tag for tag in ORDER_TAGS if tag != "brick" or spec.is_nakayama]
    suites = ["theoremA", "theoremB"] + (["theoremC"] if spec.is_nakayama else [])
    return ([build_order(tag, eng) for tag in tags],
            [[c.to_dict() for c in run_suite(name, eng)] for name in suites])


@pytest.mark.parametrize("spec", full_battery() + EXTRA_SPECS,
                         ids=lambda s: s.label())
def test_classes_read_no_sequence_index(spec, monkeypatch):
    # every order and theorems A-C read the classes, one normal form each,
    # and list no sequence
    expected = _orders_and_theorems(spec, engine_for(spec))
    refuse_sequence_walks(monkeypatch)
    assert _orders_and_theorems(spec, GreenEngine(category_for(spec))) == expected


def test_class_members_walk_the_chains_once(monkeypatch):
    listed = [g.bricks for g in _fresh(EXAMPLE_QUIVER).enumerate_mgs()]
    calls, chains = [], []
    real = GreenEngine._walk

    def counting(self, *args):
        calls.append(self)
        for head, mask, tails in real(self, *args):
            chains.extend(head + t for t, _ in tails)
            yield head, mask, tails

    monkeypatch.setattr(GreenEngine, "_walk", counting)
    eng = _fresh(EXAMPLE_QUIVER)
    eng.equivalence_classes()
    assert calls == []
    eng.class_members()
    assert calls == [eng]
    assert chains == listed


@pytest.mark.parametrize("spec", full_battery() + [AlgebraSpec.type_a("<<<<")],
                         ids=lambda s: s.label())
def test_path_checks_walk_no_chain(spec, monkeypatch):
    # each path check runs once per class, on its normal form
    refuse_sequence_walks(monkeypatch)
    failures = _fresh(spec).path_failures()
    assert failures == {name: [] for name in PATH_CHECKS}


def test_walked_mask_not_a_class_key_raises():
    eng = _fresh(EXAMPLE_QUIVER)
    by_key = eng.classes_by_key()
    del by_key[next(iter(by_key))]
    with pytest.raises(InvariantViolation, match="not the key of a class"):
        eng.class_members()


def test_first_member_not_the_representative_raises():
    eng = _fresh(EXAMPLE_QUIVER)
    eng.equivalence_classes()
    first, second = eng._classes[:2]
    eng._classes[0] = first._replace(representative=second.representative)
    with pytest.raises(InvariantViolation,
                       match="first members of the classes are not the normal forms"):
        eng.class_members()


def test_walk_that_drops_a_chain_raises(monkeypatch):
    edit_walk(monkeypatch, drop_last_chain)
    with pytest.raises(InvariantViolation,
                       match="walk found 9 sequences where the lattice counts 10"):
        _fresh(EXAMPLE_QUIVER).class_members()


def test_walk_with_one_chain_too_many_raises(monkeypatch):
    edit_walk(monkeypatch, repeat_last_chain)
    with pytest.raises(InvariantViolation,
                       match="walk found 11 sequences where the lattice counts 10"):
        _fresh(EXAMPLE_QUIVER).class_members()


def test_class_of_refuses_a_label_that_is_not_a_cover():
    eng = _fresh(EXAMPLE_QUIVER)
    # 132 is a brick but labels no cover below the whole category
    with pytest.raises(UsageError, match="132 labels no cover below"):
        eng.class_of(ids_of(eng.cat, ["132"]))
    # a chain that stops above zero has no class
    with pytest.raises(KeyError):
        eng.class_of(ids_of(eng.cat, ["1"]))


def test_patched_layer_multiplicity_trips_dimension_check(monkeypatch):
    real = GreenEngine._cover_multiplicities

    def patched(self, up, lo, b):
        found = real(self, up, lo, b)
        if up == (1 << len(self.cat.catalog)) - 1 and found:
            (x, mult), *rest = found
            found = ((x, mult + 1), *rest)
        return found

    monkeypatch.setattr(GreenEngine, "_cover_multiplicities", patched)
    with pytest.raises(InvariantViolation, match="layer dimensions of"):
        _fresh(EXAMPLE_QUIVER).equivalence_classes()


def test_silting_set_of_the_wrong_size_raises(monkeypatch):
    monkeypatch.setattr(ModuleCategory, "relative_projectives",
                        lambda self, tors: 0)
    with pytest.raises(InvariantViolation, match="silting summand set"):
        _fresh(EXAMPLE_QUIVER).equivalence_classes()


def test_summand_path_of_the_wrong_size_raises(monkeypatch):
    real = GreenEngine._cover_steps

    def patched(self, lattice):
        summands, summ, steps = real(self, lattice)
        extra = 1 << len(summands)
        steps = {up: [(b, lo, s | extra, *rest) for b, lo, s, *rest in row]
                 for up, row in steps.items()}
        return summands, summ, steps

    monkeypatch.setattr(GreenEngine, "_cover_steps", patched)
    with pytest.raises(InvariantViolation, match="summand set has size"):
        _fresh(EXAMPLE_QUIVER).equivalence_classes()

