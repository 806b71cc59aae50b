"""The value records against dataclass twins.

Every record of the package is a `greenseq.algebra.Record`.  Each twin
below is the frozen dataclass that declared the record before, with the
same fields in the same order, and must agree with it on `==`, `hash`,
`repr`, set iteration order and, for `SiltingSummand`, the ordering, on
records read off real categories, engines and orders.
"""

import itertools
import pickle
from dataclasses import dataclass, field, fields

import pytest

from greenseq import AlgebraSpec, GreenEngine, ModuleCategory, SpecError, orders
from greenseq.algebra import Record
from greenseq.errors import InvariantViolation
from greenseq.green import MGS, ExchangePair, SiltingSummand
from greenseq.modcat import ModuleSum
from greenseq.verify import CheckResult


@dataclass(frozen=True)
class AlgebraSpecTwin:
    kind: object
    kupisch: object = None
    cyclic: object = False
    orientation: object = None


@dataclass(frozen=True)
class IndecTwin:
    ident: object
    descriptor: object
    dimvec: object
    matrices: object
    display: object


@dataclass(frozen=True)
class ModuleSumTwin:
    ids: object

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(sorted(self.ids)))


@dataclass(frozen=True)
class SesRecordTwin:
    middle: object
    sub: object
    quot: object


@dataclass(frozen=True)
class TorsionLatticeTwin:
    classes: object
    covers: object
    top: object
    bottom: object


@dataclass(frozen=True)
class MGSTwin:
    bricks: object


@dataclass(frozen=True, order=True)
class SiltingSummandTwin:
    shifted: object
    value: object


@dataclass(frozen=True)
class ExchangePairTwin:
    out: object
    in_: object


@dataclass(frozen=True)
class HNLayerTwin:
    position: object
    brick: object
    factor: object
    multiplicity: object


@dataclass(frozen=True)
class HNResultTwin:
    layers: object


@dataclass(frozen=True)
class EquivClassTwin:
    key: object
    representative: object


@dataclass(frozen=True)
class ClassPosetTwin:
    tag: object
    size: object
    rows: object
    covers: object


@dataclass(frozen=True)
class PolygonTwin:
    sides: object
    sequence_pairs: object
    class_pairs: object


@dataclass
class CheckResultTwin:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


# each twin's repr must read as its record's, so it takes the record's name
_TWINS = {}
for _twin in (AlgebraSpecTwin, IndecTwin, ModuleSumTwin, SesRecordTwin,
              TorsionLatticeTwin, MGSTwin, SiltingSummandTwin,
              ExchangePairTwin, HNLayerTwin, HNResultTwin, EquivClassTwin,
              ClassPosetTwin, PolygonTwin, CheckResultTwin):
    _twin.__name__ = _twin.__qualname__ = _twin.__name__.removesuffix("Twin")
    _TWINS[_twin.__name__] = _twin


def twin(value):
    """value with every record in it replaced by its dataclass twin, built
    from the twin's own field list."""
    if isinstance(value, Record):
        cls = _TWINS[type(value).__name__]
        return cls(**{f.name: twin(getattr(value, f.name)) for f in fields(cls)})
    if isinstance(value, (tuple, list, frozenset)):
        return type(value)(map(twin, value))
    return value


def _samples() -> dict[str, list]:
    """Records of every class, read off two small algebras, the first one
    twice so that each class has equal records that are not the same."""
    found = []
    for spec in (AlgebraSpec.type_a("<>"), AlgebraSpec.nakayama([3, 3], cyclic=True),
                 AlgebraSpec.type_a("<>")):
        cat = ModuleCategory(spec)
        eng = GreenEngine(cat)
        seqs = eng.enumerate_mgs()
        found += [spec, AlgebraSpec.from_dict(spec.to_dict())]
        found += cat.catalog
        for i in range(len(cat.catalog)):
            for rec in cat.sub_quotient_pairs(i):
                found += [rec, rec.sub, rec.quot]
        found += [cat.generated_lattice(), cat.torsion_lattice()]
        for g in seqs:
            found += [g, *eng.summand_set(g), *eng.exchange_pairs(g)]
            for x in range(len(cat.catalog)):
                hn = eng.hn_filtration(x, g)
                found += [hn, *hn.layers]
        found += eng.equivalence_classes()
        found += [orders.build_order(tag, eng) for tag in ("pentagon", "summand", "hn")]
        found += eng.polygons()
    by_class: dict[str, list] = {}
    for record in found:
        by_class.setdefault(type(record).__name__, []).append(record)
    return by_class


SAMPLES = _samples()


def test_every_record_class_is_sampled():
    assert sorted(SAMPLES) == sorted(set(_TWINS) - {"CheckResult"})
    assert all(len(records) >= 2 for records in SAMPLES.values())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_and_hash_match_the_twin(name):
    for record in SAMPLES[name]:
        assert repr(record) == repr(twin(record))
        assert hash(record) == hash(twin(record))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equality_matches_the_twin(name):
    records = SAMPLES[name]
    twins = [twin(r) for r in records]
    for (a, ta), (b, tb) in itertools.product(zip(records, twins), repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
    assert any(a == b and a is not b for a, b in itertools.combinations(records, 2))
    # a record never equals its twin, a tuple of its fields or another record
    record = records[0]
    assert record != twin(record)
    assert record != tuple(getattr(record, f) for f in record._fields)
    assert record != SAMPLES["MGS" if name != "MGS" else "ModuleSum"][0]


def test_records_of_two_classes_with_equal_fields_differ():
    assert MGS((1, 2)) != ModuleSum((1, 2)) and not MGS((1, 2)) == ModuleSum((1, 2))


def test_set_iteration_order_matches_the_twin():
    """Equal hashes and equality give equal iteration orders, so output
    that walks a set of records cannot move."""
    everything = [r for name in sorted(SAMPLES) for r in SAMPLES[name]]
    for records in (*SAMPLES.values(), everything):
        assert [twin(r) for r in frozenset(records)] == list(frozenset(map(twin, records)))
        assert [twin(r) for r in set(records)] == list(set(map(twin, records)))


def test_silting_summands_order_as_the_twin():
    summands = SAMPLES["SiltingSummand"]
    assert [twin(s) for s in sorted(summands)] == sorted(map(twin, summands))
    for a, b in itertools.product(summands, repeat=2):
        ta, tb = twin(a), twin(b)
        assert ((a < b), (a <= b), (a > b), (a >= b)) == (
            (ta < tb), (ta <= tb), (ta > tb), (ta >= tb))
    for other in ((False, 0), SAMPLES["MGS"][0]):
        with pytest.raises(TypeError):
            summands[0] < other


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_assigning_or_deleting_a_field_raises(name):
    record = SAMPLES[name][0]
    before = repr(record)
    for attr in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert repr(record) == before


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_replace_and_pickle_round_trip(name):
    for record in SAMPLES[name][:20]:
        first = record._fields[0]
        assert record._replace() == record
        assert record._replace(**{first: getattr(record, first)}) == record
        assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_replace_reruns_validation():
    spec = AlgebraSpec.type_a("<>")
    with pytest.raises(SpecError, match="unknown algebra kind"):
        spec._replace(kind="bogus")
    with pytest.raises(SpecError, match="may only contain"):
        spec._replace(orientation="<x")
    with pytest.raises(SpecError, match="c_2 = 1"):
        AlgebraSpec.nakayama([2, 1])._replace(kupisch=(2, 2))
    assert ModuleSum((3, 1))._replace(ids=(5, 0, 2)).ids == (0, 2, 5)
    pair = ExchangePair(SiltingSummand(False, 1), SiltingSummand(True, 2))
    assert pair._replace(in_=SiltingSummand(False, 3)).in_.value == 3
    with pytest.raises(InvariantViolation, match="equal components"):
        pair._replace(in_=pair.out)


def test_module_sum_sorts_before_comparing_and_hashing():
    assert ModuleSum((3, 1, 2)) == ModuleSum((1, 2, 3))
    assert hash(ModuleSum((3, 1, 2))) == hash(ModuleSum((1, 2, 3)))
    assert repr(ModuleSum((3, 1))) == repr(ModuleSumTwin((3, 1))) == "ModuleSum(ids=(1, 3))"


_CALLS = [
    (("typeA", None, False, "<>"), {}),
    (("nakayama",), {"kupisch": (2, 1), "cyclic": False, "orientation": None}),
    (("typeA",), {"orientation": "<"}),
    ((), {"kind": "typeA", "orientation": "><"}),
    (("nakayama", (2, 1)), {"cyclic": False}),
    ((), {"orientation": "<"}),
    (("typeA", None, False, "<", "extra"), {}),
    (("typeA",), {"kind": "typeA"}),
    (("typeA",), {"orientations": "<"}),
]


@pytest.mark.parametrize("args, kwargs", _CALLS)
def test_constructor_arguments_as_the_dataclass(args, kwargs):
    try:
        expected = repr(AlgebraSpecTwin(*args, **kwargs))
    except TypeError:
        with pytest.raises(TypeError):
            AlgebraSpec(*args, **kwargs)
    else:
        got = AlgebraSpec(*args, **kwargs)
        assert repr(got) == expected and hash(got) == hash(AlgebraSpecTwin(*args, **kwargs))


def test_cached_property_on_a_torsion_lattice():
    lattice = SAMPLES["TorsionLattice"][-1]
    fresh = lattice._replace()
    assert "chain_counts" not in vars(fresh)
    assert fresh.chain_counts == lattice.chain_counts
    assert vars(fresh)["chain_counts"] is fresh.chain_counts
    # the cached value is not a field
    assert fresh == lattice._replace()
    assert hash(fresh) == hash(lattice._replace())
    assert repr(fresh) == repr(twin(fresh))


def test_check_result_as_its_mutable_dataclass():
    a, b = CheckResult("x", True), CheckResult("x", True)
    assert a.detail == {} and a.detail is not b.detail
    assert a == b and repr(a) == repr(CheckResultTwin("x", True))
    b.detail["seen"] = 1
    assert a != b
    assert CheckResult("x", False, {"n": 1}) == CheckResult("x", False, {"n": 1})
    assert CheckResult("x", False, {"n": 1}) != CheckResultTwin("x", False, {"n": 1})
    assert CheckResult("x", True).to_dict() == {"check": "x", "passed": True, "detail": {}}
    with pytest.raises(TypeError):
        hash(a)
