"""Command-line interface.

All reports are canonical JSON (sorted keys, two-space indent) so that
identical inputs produce byte-identical output; Hasse diagrams can also
be emitted as DOT.  The JSON is exactly `json.dumps(obj, indent=2,
sort_keys=True)` plus a newline, written by `canonical_json` without the
standard library's pure-Python indenting encoder (see there); `mgs`
writes its sequence records itself during the walk, from the text of
each walk prefix and of each tabled tail, each encoded once (`cmd_mgs`).
Exit codes: 0 success, 1 a verification check failed or an invariant
broke, 2 usage, parse, file or gate errors, or a reader that closed
stdout early; each gate is a fixed constant that bounds the object that
costs (see the README).

Each command imports and builds only the layers it runs: `catalog` and
`bricks` read the `ModuleCategory` alone; `mgs`, `classes` and `hn` add
the `GreenEngine` (`green`); `poset` adds `orders`, and `verify` adds
`orders` and `verify`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii

from .algebra import AlgebraSpec
from .errors import GateError, InvariantViolation, SpecError, TheoremViolation, UsageError
from .modcat import ModuleCategory

# the choices of `poset --order` and `verify --suite`, defined here so that
# parsing a command line imports neither the orders nor the suites
ORDER_TAGS = ("pentagon", "summand", "hn", "brick")
SUITES = ("theoremA", "theoremB", "theoremC", "lemmas", "all")


# how a scalar of exactly this type is written, as `json.dumps` writes it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def canonical_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte.

    With an indent, `json.dumps` runs its pure-Python encoder.  This walks
    dicts with str keys, lists and tuples itself, writes str, int, bool and
    None through the same C helpers, and joins a list whose items share one
    of those types in one call.  Every other value (floats, dicts with
    other keys, subclasses, unknown types) goes to `json.dumps` with its
    newlines re-indented, which is exact because ASCII-escaped JSON holds
    no raw newline inside a string.  Errors are those of `json.dumps`:
    unsortable keys and unsupported types raise TypeError, a container
    that holds itself ValueError."""
    out: list[str] = []
    _emit(obj, "\n", out, set())
    out.append("\n")
    return "".join(out)


def _emit(obj, pad: str, out: list[str], path: set[int]) -> None:
    """Append obj, whose lines after the first start with pad."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(obj))
        return
    is_dict = kind is dict and all(type(k) is str for k in obj)
    if not (is_dict or kind is list or kind is tuple):
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad))
        return
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    if id(obj) in path:
        raise ValueError("Circular reference detected")
    path.add(id(obj))
    inner = pad + "  "
    if is_dict:
        sep = "{" + inner
        for key in sorted(obj):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _emit(obj[key], inner, out, path)
            sep = "," + inner
        out.append(pad + "}")
    else:
        kinds = set(map(type, obj))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:
            out.append("[" + inner + ("," + inner).join(map(scalar, obj)) + pad + "]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _emit(item, inner, out, path)
                sep = "," + inner
            out.append(pad + "]")
    path.discard(id(obj))


def _write(text: str) -> None:
    """Write text to stdout in full, the one path of every command's
    output.  An unbuffered stdout (PYTHONUNBUFFERED, `python -u`) hands
    each write to the system once, and its text layer takes a short write
    to a pipe whose reader closed as complete; the binary layer is written
    until every byte is taken or the write fails."""
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream with no binary layer, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data):]


def load_algebra(path: str) -> AlgebraSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except RecursionError:
        raise SpecError(f"{path}: parse error: nested too deeply") from None
    return AlgebraSpec.from_dict(data)


def _category(args) -> ModuleCategory:
    return ModuleCategory(load_algebra(args.algebra), exact=args.exact)


def _engine(args):
    """The GreenEngine on the algebra's category, imported only by the
    commands that read sequences or classes."""
    from .green import GreenEngine
    return GreenEngine(_category(args))


def _summand_token(cat: ModuleCategory, summand) -> str:
    if summand.shifted:
        return cat.display(cat.projectives[summand.value]) + "[1]"
    return cat.display(summand.value)


def cmd_catalog(args) -> int:
    cat = _category(args)
    modules = [{
        "id": m.ident,
        "descriptor": cat.descriptor_str(m.ident),
        "display": m.display,
        "dimvec": list(m.dimvec),
        "brick": cat.is_brick(m.ident),
        "projective": cat.is_projective(m.ident),
        "simple": cat.is_simple(m.ident),
    } for m in cat.catalog]
    _write(canonical_json({"algebra": cat.spec.to_dict(), "modules": modules}))
    return 0


def cmd_bricks(args) -> int:
    cat = _category(args)
    bricks = [{"id": b, "descriptor": cat.descriptor_str(b),
               "display": cat.display(b)} for b in cat.bricks]
    _write(canonical_json({"algebra": cat.spec.to_dict(), "bricks": bricks,
                           "count": len(bricks)}))
    return 0


# `mgs` writes this many sequence records per write to stdout
_RECORDS_PER_WRITE = 4096


def cmd_mgs(args) -> int:
    """The report `canonical_json` would write for every sequence, written
    while the lattice walk runs.  Each record has the same shape, so it is
    one f-string of the texts of its three token lists, index and length.
    The walk groups the chains by shared prefix (`sequence_groups`): each
    text joins the tokens of the group's head, encoded once per group, to
    those of the tail, encoded once per run for each tabled class."""
    engine = _engine(args)
    cat = engine.cat
    groups = engine.sequence_groups()  # the gates fire before any output
    count = cat.generated_lattice().maximal_chain_count()
    head = canonical_json({"algebra": cat.spec.to_dict(), "count": count,
                           "sequences": []})
    tokens = ({b: encode_basestring_ascii(cat.display(b)) for b in cat.bricks},
              {b: encode_basestring_ascii(cat.descriptor_str(b))
               for b in cat.bricks},
              {b: repr(b) for b in cat.bricks})
    item = ",\n        "

    def texts(labels, end=""):
        return [item.join(map(tok.__getitem__, labels)) + end for tok in tokens]

    def records():
        # the texts of the tails of each tabled class, by the id of their
        # list, which the walk holds until it ends
        k, tail_texts = 0, {}
        for prefix, _, tails in groups:
            bricks, descriptors, ids = texts(prefix, item if prefix else "")
            known = tail_texts.get(id(tails))
            if known is None:
                known = tail_texts[id(tails)] = [(*texts(t), len(t)) for t, _ in tails]
            n = len(prefix)
            for b, d, i, length in known:
                yield (f'{{\n      "bricks": [\n        {bricks}{b}\n      ],'
                       f'\n      "descriptors": [\n        {descriptors}{d}'
                       f'\n      ],\n      "ids": [\n        {ids}{i}\n      ],'
                       f'\n      "index": {k},\n      "length": {n + length}\n    }}')
                k += 1

    _write(head[:-len("[]\n}\n")])
    sep, written, chunks = "[\n    ", 0, records()
    while chunk := list(islice(chunks, _RECORDS_PER_WRITE)):
        _write(sep + ",\n    ".join(chunk))
        sep, written = ",\n    ", written + len(chunk)
    _write("\n  ]\n}\n" if written else "[]\n}\n")
    if written != count:
        raise InvariantViolation(
            f"the lattice walk listed {written} sequences where the lattice "
            f"counts {count}")
    return 0


def cmd_classes(args) -> int:
    engine = _engine(args)
    cat = engine.cat
    members = engine.class_members()  # the sequence gate fires first
    classes = engine.equivalence_classes()
    out = [{"index": i,
            "members": list(members[i]),
            "representative": [cat.display(b) for b in c.representative.bricks],
            "brick_set": sorted(cat.display(b) for b in c.representative.bricks),
            "summand_key": [_summand_token(cat, s) for s in c.key],
            "summand_count": len(c.key)}
           for i, c in enumerate(classes)]
    _write(canonical_json({"algebra": cat.spec.to_dict(), "count": len(out),
                           "classes": out}))
    return 0


def cmd_poset(args) -> int:
    from .orders import build_order, hasse_dot
    engine = _engine(args)
    cat = engine.cat
    poset = build_order(args.order, engine)
    if args.format == "dot":
        text = hasse_dot(poset, engine)
    else:
        classes = engine.equivalence_classes()
        text = canonical_json({
            "algebra": cat.spec.to_dict(),
            "order": poset.tag,
            "classes": [[_summand_token(cat, s) for s in c.key] for c in classes],
            "leq": [[bool(row >> j & 1) for j in range(poset.size)]
                    for row in poset.rows],
            "covers": [[up, lo] for up, lo in poset.covers],
        })
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
    else:
        _write(text)
    return 0


def _resolve_mgs(cat: ModuleCategory, engine, token: str):
    from .green import MGS
    token = token.strip()
    # an index is ASCII digits only (str.isdigit also accepts '²', which
    # int() rejects); every other token is a brick list
    if token.isascii() and token.isdecimal():
        return engine.sequence_at(int(token))
    ids = tuple(cat.resolve_token(t) for t in token.split(",") if t.strip())
    reason = engine.explain_invalid(ids)
    if reason is not None:
        raise UsageError(f"brick list is not a maximal green sequence: {reason}")
    return MGS(ids)


def cmd_hn(args) -> int:
    engine = _engine(args)
    cat = engine.cat
    g = _resolve_mgs(cat, engine, args.mgs)
    module = cat.resolve_module_expr(args.module)
    result = engine.hn_filtration(module, g)
    # the bricks of a sequence are distinct, so each layer has its own
    stable = {layer.brick: layer.multiplicity for layer in result.layers}
    _write(canonical_json({
        "algebra": cat.spec.to_dict(),
        "mgs": [cat.display(b) for b in g.bricks],
        "module": cat.display_sum(module),
        "layers": [{
            "position": layer.position,
            "brick": cat.display(layer.brick),
            "factor": cat.display_sum(layer.factor),
            "multiplicity": layer.multiplicity,
        } for layer in result.layers],
        "stable_factors": [[cat.display(b), m] for b, m in sorted(stable.items())],
    }))
    return 0


def cmd_verify(args) -> int:
    from . import verify
    engine = _engine(args)
    cat = engine.cat
    checks = verify.run_suite(args.suite, engine)
    passed = all(c.passed for c in checks)
    _write(canonical_json({
        "algebra": cat.spec.to_dict(),
        "suite": args.suite,
        "checks": [c.to_dict() for c in checks],
        "passed": passed,
    }))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenseq",
        description="Maximal green sequences of Nakayama and type-A path "
                    "algebras: catalogs, torsion lattices, equivalence "
                    "classes, partial orders, and verification suites.")
    parser.add_argument("--exact", action="store_true",
                        help="also solve every Hom dimension by exact "
                             "rational elimination and fail (exit 1) where "
                             "it disagrees with the closed-form Hom table")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("algebra", help="path to the algebra file (JSON)")
        p.set_defaults(func=func)
        return p

    add("catalog", cmd_catalog, "list the indecomposable modules")
    add("bricks", cmd_bricks, "list the bricks")
    add("mgs", cmd_mgs, "enumerate the maximal green sequences")
    add("classes", cmd_classes, "equivalence classes with summand keys")

    p = add("poset", cmd_poset, "emit a partial order on equivalence classes")
    p.add_argument("--order", required=True, choices=ORDER_TAGS)
    p.add_argument("--format", default="dot", choices=("dot", "json"))
    p.add_argument("--output", "-o", default=None, help="write to a file")

    p = add("hn", cmd_hn, "Harder-Narasimhan filtration of a module")
    p.add_argument("--mgs", required=True,
                   help="enumeration index or comma-separated brick list")
    p.add_argument("--module", required=True,
                   help="module expression, e.g. 'U(1,2)+U(2,1)', 'I[1,3]' or '#4'")

    p = add("verify", cmd_verify, "run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed reader is met here, not at exit
        return code
    except BrokenPipeError as exc:
        # the reader of stdout closed it (`greenseq mgs A.json | head`):
        # what is still buffered goes to the null device at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    except (SpecError, UsageError, GateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TheoremViolation, InvariantViolation) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
