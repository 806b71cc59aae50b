"""The benchmark's workloads: fixed algebras, the CLI calls made on them,
and the check each call's output must pass.

The seed picks, for each type-A word, either the word or its opposite
(every arrow reversed).  Both give the same counts, so the checks and
the figures do not depend on the seed beyond that choice.  Nakayama
algebras have no such choice and are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import (check_catalog, check_classes, check_mgs, check_pentagon,
                    check_verify)


@dataclass(frozen=True)
class Algebra:
    name: str
    spec: dict

    @property
    def n(self) -> int:
        if self.spec["type"] == "typeA":
            return len(self.spec["orientation"]) + 1
        return len(self.spec["kupisch"])

    @property
    def is_type_a(self) -> bool:
        return self.spec["type"] == "typeA"


@dataclass(frozen=True)
class Call:
    """One CLI call: `python -m greenseq <flags> <command> <algebra file>
    <options>`, killed after `timeout` seconds."""

    algebra: str
    command: str
    options: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    timeout: float = 60.0

    def argv(self, path: str) -> list[str]:
        return [*self.flags, self.command, path, *self.options]

    @property
    def label(self) -> str:
        return " ".join([*self.flags, self.command, self.algebra, *self.options])


@dataclass(frozen=True)
class Workload:
    algebras: tuple[Algebra, ...]
    calls: tuple[Call, ...]

    @property
    def setups(self) -> tuple[tuple[str, bool], ...]:
        """(algebra name, exact) pairs whose set-up time is measured."""
        return tuple(dict.fromkeys((c.algebra, "--exact" in c.flags)
                                   for c in self.calls))

    @property
    def repeats_a_call(self) -> bool:
        """Whether one round makes some call twice."""
        labels = [c.label for c in self.calls]
        return len(set(labels)) < len(labels)

    @property
    def oracle(self) -> tuple[str, ...]:
        """Algebras whose green-sequence count the lattice oracle gives."""
        return tuple(dict.fromkeys(c.algebra for c in self.calls
                                   if c.command in ("mgs", "classes")))

    def algebra(self, name: str) -> Algebra:
        return next(a for a in self.algebras if a.name == name)


def opposite(word: str) -> str:
    return word.translate(str.maketrans("<>", "><"))


def type_a(name: str, word: str, rng: random.Random) -> Algebra:
    if rng.random() < 0.5:
        word = opposite(word)
    return Algebra(name, {"type": "typeA", "orientation": word})


def nakayama(name: str, kupisch: list[int], cyclic: bool) -> Algebra:
    return Algebra(name, {"type": "nakayama", "cyclic": cyclic,
                          "kupisch": kupisch})


def build(workload: str, seed: int) -> Workload:
    """The workload's algebras and calls.  A round of classes-pentagon or
    verify-all outlasts a run, so each makes one of its calls twice: a
    run then compares a repeat without a second round, which the time
    for all runs of the benchmark has no room for."""
    rng = random.Random(seed)
    if workload == "mgs-wide":
        return Workload(
            algebras=(type_a("wide", "<><>", rng),),
            calls=(Call("wide", "mgs", timeout=60),))
    if workload == "classes-pentagon":
        return Workload(
            algebras=(type_a("line", "<<<<", rng),),
            calls=(Call("line", "classes", timeout=50),
                   Call("line", "poset", ("--order", "pentagon",
                                          "--format", "json"), timeout=100),
                   Call("line", "classes", timeout=50)))
    if workload == "verify-all":
        return Workload(
            algebras=(nakayama("nakayama", [3, 3, 3, 2, 1], False),
                      nakayama("cyclic", [3, 3, 3], True),
                      type_a("small", "<><", rng)),
            calls=(Call("nakayama", "verify", ("--suite", "all"), timeout=80),
                   Call("cyclic", "verify", ("--suite", "all"), timeout=20),
                   Call("small", "verify", ("--suite", "all"), timeout=20),
                   Call("small", "verify", ("--suite", "all"), timeout=20)))
    if workload == "catalog-long":
        return Workload(
            algebras=(type_a("long", "<" * 16, rng),),
            calls=(Call("long", "catalog", timeout=30),
                   Call("long", "catalog", flags=("--exact",), timeout=40)))
    raise KeyError(workload)


WORKLOADS = ("mgs-wide", "classes-pentagon", "verify-all", "catalog-long")


def check_output(call: Call, alg: Algebra, out: dict, earlier: dict,
                 sequences: dict[str, int]) -> list[str] | None:
    """Problems with one call's parsed report, or None when the report it
    is compared with is missing.  `earlier` maps the labels of calls made
    before it in the same round to their reports; `sequences` holds the
    oracle's sequence counts."""
    n = alg.n
    if out.get("algebra") != alg.spec:
        return [f"report is for {out.get('algebra')}, not {alg.spec}"]
    if call.command == "mgs":
        return check_mgs(out, n, sequences[alg.name], n * (n + 1) // 2)
    if call.command == "classes":
        return check_classes(out, n, sequences[alg.name])
    if call.command == "poset":
        classes_out = earlier.get(Call(alg.name, "classes").label)
        if classes_out is None:  # the classes call of this round failed
            return None
        return check_pentagon(out, classes_out, n)
    if call.command == "verify":
        return check_verify(out, not alg.is_type_a)
    if call.command == "catalog":
        return check_catalog(out, n)
    return [f"no check for {call.command}"]
