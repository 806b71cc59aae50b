import itertools

import pytest

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory


def type_a_battery(max_n=4):
    specs = []
    for n in range(1, max_n + 1):
        for word in itertools.product("<>", repeat=n - 1):
            specs.append(AlgebraSpec.type_a("".join(word)))
    return specs


def linear_nakayama_battery(max_n=4):
    """All connected admissible linear Kupisch series with at most max_n
    vertices: c_n = 1 and 2 <= c_i <= c_{i+1} + 1 for i < n."""
    specs = []
    for n in range(1, max_n + 1):
        seqs = [(1,)]
        while len(seqs[0]) < n:
            seqs = [(c,) + s for s in seqs for c in range(2, s[0] + 2)]
        specs.extend(AlgebraSpec.nakayama(s) for s in seqs)
    return specs


CYCLIC_BATTERY = [
    AlgebraSpec.nakayama([2, 2], cyclic=True),
    AlgebraSpec.nakayama([3, 3], cyclic=True),
    AlgebraSpec.nakayama([2, 2, 2], cyclic=True),
    AlgebraSpec.nakayama([3, 2, 2], cyclic=True),
]


def full_battery():
    return type_a_battery() + linear_nakayama_battery() + CYCLIC_BATTERY


_CATS: dict = {}
_ENGINES: dict = {}


def category_for(spec: AlgebraSpec) -> ModuleCategory:
    if spec not in _CATS:
        _CATS[spec] = ModuleCategory(spec)
    return _CATS[spec]


def engine_for(spec: AlgebraSpec) -> GreenEngine:
    if spec not in _ENGINES:
        _ENGINES[spec] = GreenEngine(category_for(spec))
    return _ENGINES[spec]


def edit_walk(monkeypatch, edit):
    """Make `_walk` yield edit(list of its (head, mask, tails) groups)."""
    real = GreenEngine._walk
    monkeypatch.setattr(GreenEngine, "_walk",
                        lambda self, *args: edit(list(real(self, *args))))


def drop_last_chain(groups):
    *rest, (head, mask, tails) = groups
    return rest + [(head, mask, tails[:-1])]


def repeat_last_chain(groups):
    *rest, (head, mask, tails) = groups
    return rest + [(head, mask, tails + tails[-1:])]


EXAMPLE_QUIVER = AlgebraSpec.type_a("<>")
A2 = AlgebraSpec.type_a("<")


@pytest.fixture
def example_cat():
    return category_for(EXAMPLE_QUIVER)


@pytest.fixture
def example_engine():
    return engine_for(EXAMPLE_QUIVER)


@pytest.fixture
def a2_cat():
    return category_for(A2)


@pytest.fixture
def a2_engine():
    return engine_for(A2)


def members(mask: int) -> frozenset[int]:
    """The catalog ids of a bitmask, as the frozenset the oracles read."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(ids) -> int:
    """The bitmask of a collection of distinct catalog ids."""
    return sum(1 << i for i in frozenset(ids))


def ids_of(cat, names):
    return tuple(cat.resolve_token(name) for name in names)


def names_of(cat, ids):
    return [cat.display(i) for i in ids]
