"""Output checks for the benchmark.

Each check takes a parsed CLI report and returns a list of problems; an
empty list is a pass.  The expectations come from outside the code path
under test: sequence counts from the benchmark's own chain count over the
torsion lattice's covers, Catalan numbers for type A, and properties any
correct answer must have (a partition, a partial order, Theorem B).
"""

from __future__ import annotations

import re
from math import comb

_DESCRIPTOR = re.compile(r"(?:I\[(\d+),(\d+)\]|U\((\d+),(\d+)\))")


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def chain_count(covers, top: int, bottom: int) -> int:
    """Maximal chains from top to bottom, by a memoised walk over the
    (upper, lower, label) covers."""
    below: dict[int, list[int]] = {}
    for up, lo, _ in covers:
        below.setdefault(up, []).append(lo)
    memo = {bottom: 1}
    stack = [top]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        pending = [lo for lo in below.get(node, ()) if lo not in memo]
        if pending:
            stack.extend(pending)
        else:
            memo[node] = sum(memo[lo] for lo in below.get(node, ()))
            stack.pop()
    return memo[top]


def check_lattice_size(classes: int, n: int) -> list[str]:
    """A type-A torsion lattice on n vertices has Catalan(n+1) classes."""
    if classes != catalan(n + 1):
        return [f"lattice has {classes} classes, Catalan({n + 1}) is "
                f"{catalan(n + 1)}"]
    return []


def is_simple_descriptor(desc: str) -> bool:
    m = _DESCRIPTOR.fullmatch(desc)
    if m is None:
        return False
    if m.group(1) is not None:
        return m.group(1) == m.group(2)
    return m.group(4) == "1"


def check_mgs(out: dict, n: int, sequences: int, bricks: int) -> list[str]:
    seqs = out.get("sequences", [])
    problems = []
    if out.get("count") != len(seqs) or len(seqs) != sequences:
        problems.append(f"count {out.get('count')} with {len(seqs)} listed, "
                        f"expected {sequences}")
    if len({tuple(s["ids"]) for s in seqs}) != len(seqs):
        problems.append("sequences repeat")
    for k, s in enumerate(seqs):
        desc = s["descriptors"]
        if (s["index"] != k or s["length"] != len(s["ids"])
                or len(desc) != len(s["ids"]) or len(s["bricks"]) != len(s["ids"])):
            problems.append(f"sequence {k} is malformed")
            break
        if not desc or not (is_simple_descriptor(desc[0])
                            and is_simple_descriptor(desc[-1])):
            problems.append(f"sequence {k} does not begin and end with a simple")
            break
    if seqs:
        lengths = [len(s["ids"]) for s in seqs]
        if min(lengths) != n or max(lengths) != bricks:
            problems.append(f"lengths run {min(lengths)}..{max(lengths)}, "
                            f"expected {n}..{bricks}")
    return problems


def check_classes(out: dict, n: int, sequences: int) -> list[str]:
    classes = out.get("classes", [])
    problems = []
    if out.get("count") != len(classes):
        problems.append(f"count {out.get('count')} with {len(classes)} listed")
    members = sorted(m for c in classes for m in c["members"])
    if members != list(range(sequences)):
        problems.append(f"members do not partition the {sequences} sequences")
    keys = {tuple(c["summand_key"]) for c in classes}
    if len(keys) != len(classes):
        problems.append(f"{len(classes)} classes with {len(keys)} distinct "
                        f"summand keys")
    for i, c in enumerate(classes):
        key = c["summand_key"]
        if (c["index"] != i or c["summand_count"] != len(key)
                or len(key) != n + len(c["representative"])):
            problems.append(f"class {i} key has {len(key)} entries, expected "
                            f"{n} + {len(c['representative'])}")
            break
    return problems


def _rows(leq) -> list[int]:
    return [sum(1 << j for j, x in enumerate(row) if x) for row in leq]


def _is_extremal_key(key: list[str], n: int) -> bool:
    """The projectives-and-shifts class: its modules are exactly the
    projectives that its shifted summands name."""
    shifted = {t[:-3] for t in key if t.endswith("[1]")}
    modules = {t for t in key if not t.endswith("[1]")}
    return len(modules) == n and modules == shifted


def check_pentagon(out: dict, classes_out: dict, n: int) -> list[str]:
    classes = classes_out.get("classes", [])
    leq = out.get("leq", [])
    size = len(classes)
    problems = []
    if out.get("order") != "pentagon":
        problems.append(f"order tag {out.get('order')!r}")
    if out.get("classes") != [c["summand_key"] for c in classes]:
        problems.append("poset classes differ from the classes report")
        return problems
    if len(leq) != size or any(len(row) != size for row in leq):
        problems.append(f"leq is not {size} x {size}")
        return problems
    rows = _rows(leq)
    cols = [sum(1 << i for i in range(size) if rows[i] >> j & 1)
            for j in range(size)]
    for i in range(size):
        if not rows[i] >> i & 1:
            problems.append(f"leq is not reflexive at {i}")
            return problems
        if rows[i] & cols[i] != 1 << i:
            problems.append(f"leq is not antisymmetric at {i}")
            return problems
        m = rows[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[j] & ~rows[i]:
                problems.append(f"leq is not transitive at {i}, {j}")
                return problems
    everyone = (1 << size) - 1
    tops = [i for i, c in enumerate(classes)
            if _is_extremal_key(c["summand_key"], n)]
    if len(tops) != 1 or cols[tops[0]] != everyone:
        problems.append(f"the projectives-and-shifts class {tops} is not the "
                        f"maximum")
    universe = set().union(*(c["brick_set"] for c in classes)) if classes else set()
    bottoms = [i for i, c in enumerate(classes) if set(c["brick_set"]) == universe]
    if len(bottoms) != 1 or rows[bottoms[0]] != everyone:
        problems.append(f"the all-bricks class {bottoms} is not the minimum")
    hasse = set()
    for i in range(size):
        for j in range(size):
            if i == j or not rows[i] >> j & 1:
                continue
            rep_i, rep_j = classes[i]["representative"], classes[j]["representative"]
            key_i, key_j = classes[i]["summand_key"], classes[j]["summand_key"]
            if len(rep_i) <= len(rep_j) or not set(key_i) >= set(key_j):
                problems.append(f"class {i} below {j} breaks Theorem B")
                return problems
            if (rows[i] & cols[j]) == (1 << i) | (1 << j):
                hasse.add((j, i))
    if {tuple(c) for c in out.get("covers", [])} != hasse:
        problems.append("covers are not the Hasse diagram of leq")
    return problems


def check_verify(out: dict, nakayama: bool) -> list[str]:
    checks = out.get("checks", [])
    names = {c["check"] for c in checks}
    problems = []
    failed = [c["check"] for c in checks if not c["passed"]]
    if failed or out.get("passed") is not True:
        problems.append(f"checks failed: {failed}")
    required = {"equivalence-criteria-agree"}
    if nakayama:
        required.add("four-order-relations-equal")
    if not required <= names:
        problems.append(f"missing checks: {sorted(required - names)}")
    return problems


def check_catalog(out: dict, n: int) -> list[str]:
    mods = out.get("modules", [])
    problems = []
    if len(mods) != n * (n + 1) // 2:
        problems.append(f"{len(mods)} modules, expected {n * (n + 1) // 2}")
    if [m["id"] for m in mods] != list(range(len(mods))):
        problems.append("ids are not 0..N-1")
    if not all(m["brick"] for m in mods):
        problems.append("a type-A indecomposable is reported as a non-brick")
    simples = [m for m in mods if m["simple"]]
    if len(simples) != n or any(sum(m["dimvec"]) != 1 for m in simples):
        problems.append(f"{len(simples)} simples, expected {n}")
    if sum(m["projective"] for m in mods) != n:
        problems.append(f"{sum(m['projective'] for m in mods)} projectives, "
                        f"expected {n}")
    return problems
