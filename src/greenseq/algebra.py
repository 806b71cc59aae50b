"""Algebra descriptions: Nakayama algebras via Kupisch series, and
hereditary type-A path algebras via an orientation word.

Orientation word: character k (1-based) describes the arrow between
vertices k and k+1; ">" means k -> k+1 and "<" means k+1 -> k.

Module categories are taken so that composition series read top-down:
the module written "12" has top S_1 and socle S_2.  Concretely this is
the category of right modules over the path algebra, so the structure
map attached to an arrow x -> y sends the fibre at y to the fibre at x.
For a Nakayama algebra with arrows i -> i+1 the same reading is obtained
from left modules: M(i, l) has radical layers S_i, S_{i+1}, ...
"""

from __future__ import annotations

from .errors import SpecError

NAKAYAMA = "nakayama"
TYPE_A = "typeA"


class Record:
    """An immutable value record, declared as a dataclass is: the class
    annotations name the fields, in order (`_fields`), and class
    attributes of the same names give defaults (`_field_defaults`); the
    fields are compared and hashed as one tuple.

    It replaces `dataclass(frozen=True)` for every record of the package,
    because importing `dataclasses` loads `inspect`, `ast`, `dis` and
    `tokenize`, and each decorated class execs its generated methods at
    import: 15-25 ms of the start-up of `verify`, with or without cached
    bytecode, for at most a few thousand instances a call.  `__init__`
    takes the fields by position or keyword, runs `__post_init__`, then
    stores their tuple once, so `==` and `hash` never rebuild it; `hash` is
    that of the tuple, as the dataclass computes it, so sets iterate in the
    same order.  `repr` is the dataclass's, assigning a field raises
    `AttributeError`, `_replace` builds a new record through `__init__`,
    like a namedtuple's, and each instance keeps a `__dict__` for
    `functools.cached_property`.
    """

    _fields = ()
    _field_defaults = {}
    # a subclass may validate or normalise its fields in a __post_init__
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__annotations__:
            cls._fields = tuple(cls.__annotations__)
            cls._field_defaults = {name: vars(cls)[name]
                                   for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        fields = self.__dict__
        fields.update(zip(names, args))
        if self.__post_init__ is not None:
            self.__post_init__()
            args = tuple(map(fields.__getitem__, names))
        fields["_values"] = args

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        names = cls._fields
        given = dict(zip(names, args))
        bad = [name for name in kwargs if name not in names or name in given]
        if len(args) > len(names) or bad:
            raise TypeError(f"{cls.__name__}() takes the fields {names}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values = {**cls._field_defaults, **given, **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing the fields {missing}")
        return tuple(values[name] for name in names)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values)), **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


class AlgebraSpec(Record):
    kind: str
    kupisch: tuple[int, ...] | None = None
    cyclic: bool = False
    orientation: str | None = None

    def __post_init__(self):
        if self.kind == NAKAYAMA:
            _validate_kupisch(self.kupisch, self.cyclic)
        elif self.kind == TYPE_A:
            _validate_orientation(self.orientation)
        else:
            raise SpecError(f"unknown algebra kind {self.kind!r}")

    @staticmethod
    def nakayama(kupisch, cyclic: bool = False) -> "AlgebraSpec":
        return AlgebraSpec(kind=NAKAYAMA, kupisch=tuple(kupisch), cyclic=cyclic)

    @staticmethod
    def type_a(orientation: str) -> "AlgebraSpec":
        return AlgebraSpec(kind=TYPE_A, orientation=orientation)

    @property
    def n(self) -> int:
        """Number of vertices (= simple modules)."""
        if self.kind == NAKAYAMA:
            return len(self.kupisch)
        return len(self.orientation) + 1

    @property
    def is_nakayama(self) -> bool:
        return self.kind == NAKAYAMA

    def label(self) -> str:
        if self.kind == NAKAYAMA:
            shape = "cyclic" if self.cyclic else "linear"
            return f"nakayama-{shape}-{','.join(map(str, self.kupisch))}"
        return f"typeA-{self.orientation or 'A1'}"

    def to_dict(self) -> dict:
        if self.kind == NAKAYAMA:
            return {"type": NAKAYAMA, "cyclic": self.cyclic,
                    "kupisch": list(self.kupisch)}
        return {"type": TYPE_A, "orientation": self.orientation}

    @staticmethod
    def from_dict(data: dict) -> "AlgebraSpec":
        if not isinstance(data, dict):
            raise SpecError("algebra file must contain a JSON object")
        if "type" not in data:
            raise SpecError('algebra file is missing the "type" key')
        kind = data["type"]
        if kind == NAKAYAMA:
            allowed = {"type", "cyclic", "kupisch"}
            unknown = set(data) - allowed
            if unknown:
                raise SpecError(f"unknown keys in algebra file: {sorted(unknown)}")
            if "kupisch" not in data:
                raise SpecError('nakayama spec requires a "kupisch" list')
            kupisch = data["kupisch"]
            if (not isinstance(kupisch, list) or not kupisch
                    or not all(isinstance(c, int) and not isinstance(c, bool) for c in kupisch)):
                raise SpecError('"kupisch" must be a non-empty list of integers')
            cyclic = data.get("cyclic", False)
            if not isinstance(cyclic, bool):
                raise SpecError('"cyclic" must be a boolean')
            return AlgebraSpec.nakayama(kupisch, cyclic)
        if kind == TYPE_A:
            allowed = {"type", "orientation"}
            unknown = set(data) - allowed
            if unknown:
                raise SpecError(f"unknown keys in algebra file: {sorted(unknown)}")
            if "orientation" not in data:
                raise SpecError('typeA spec requires an "orientation" word')
            orientation = data["orientation"]
            if not isinstance(orientation, str):
                raise SpecError('"orientation" must be a string over "<>"')
            return AlgebraSpec.type_a(orientation)
        raise SpecError(f'"type" must be "{NAKAYAMA}" or "{TYPE_A}", got {kind!r}')


def _validate_kupisch(kupisch, cyclic: bool) -> None:
    if kupisch is None or len(kupisch) == 0:
        raise SpecError("Kupisch series must be non-empty")
    n = len(kupisch)
    for i, c in enumerate(kupisch, start=1):
        if not isinstance(c, int) or c < 1:
            raise SpecError(f"Kupisch entry c_{i} = {c!r} must be a positive integer")
    if cyclic:
        for i, c in enumerate(kupisch, start=1):
            if c < 2:
                raise SpecError(
                    f"cyclic Kupisch series needs c_i >= 2, but c_{i} = {c}")
            succ = kupisch[i % n]
            if c > succ + 1:
                raise SpecError(
                    f"cyclic Kupisch series needs c_{i} <= c_{i % n + 1} + 1, "
                    f"but {c} > {succ} + 1")
    else:
        if kupisch[-1] != 1:
            raise SpecError(f"linear Kupisch series needs c_{n} = 1, got {kupisch[-1]}")
        for i in range(n - 1):
            if kupisch[i] > kupisch[i + 1] + 1:
                raise SpecError(
                    f"linear Kupisch series needs c_{i + 1} <= c_{i + 2} + 1, "
                    f"but {kupisch[i]} > {kupisch[i + 1]} + 1")
            if kupisch[i] < 2:
                # c_i = 1 before the end makes the algebra a product of
                # two smaller algebras; run the blocks separately.
                raise SpecError(
                    f"linear Kupisch series with c_{i + 1} = 1 splits the algebra "
                    f"into a product; run the blocks separately")


def _validate_orientation(orientation) -> None:
    if orientation is None:
        raise SpecError("orientation word is required for typeA")
    bad = set(orientation) - {"<", ">"}
    if bad:
        raise SpecError(
            f"orientation word may only contain '<' and '>', got {sorted(bad)}")
