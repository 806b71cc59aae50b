"""Compare the command-line output of two greenseq source trees.

Runs the same CLI calls, each in a fresh process, once with each tree's
`src/` on PYTHONPATH, and reports every call whose stdout bytes or exit
code differ, or for the expected-error calls whose stderr or exit code
differ.  Standard library only.

    python3 tools/cli_diff.py OLD/src NEW/src

The battery: every type-A orientation word and every admissible linear
Kupisch series on at most four vertices, the cyclic series 2,2 / 3,3 /
2,2,2 / 3,2,2, typeA <<<<, Nakayama 3,3,3,2,1, cyclic 3,3,3 and cyclic
5,5,5,5,5, each with `catalog`, `bricks`, `mgs`, `classes`, `poset` for
every order that applies, as DOT and with `--format json`, and `verify
--suite all`;
`mgs`, `classes`, `poset
--format json` for the pentagon, summand and hn orders and `verify
--suite all` on all 16 five-vertex type-A orientations; and
`catalog` and `bricks`, each with and without `--exact`, on the long
type-A quivers <x16, <>x8 and <<><<>><<><<>><< (17 vertices each);
`catalog` and `bricks` with `--exact` on Nakayama 3,3,3,2,1 and the six
cyclic series, whose runs without it are among the commands above, and
on cyclic 5,5 and 7,7,7,7, whose modules wrap the cycle, so that both Hom
closed forms meet exact elimination;
`verify --suite all` with `--exact` on typeA <<<< and <><>, Nakayama
3,3,3,2,1 and cyclic 3,3,3, and `verify --suite lemmas` with `--exact`
on the six-vertex typeA <<<<< and <><>< (21 modules), where the exact
build and the type-A verify check read one solved Hom table;
`mgs` (340,549 sequences, 302 MB, compared by SHA-256 and length so
that this tool's memory stays bounded), `classes`, `poset` for the
pentagon, summand and hn orders, as DOT and with `--format json`, and
`verify --suite all` on the six-vertex typeA <<<<< (972 classes); and
on the six-vertex typeA <><>< (16,424,057 sequences, more than `mgs`
lists), `poset --format json` for the pentagon, summand and hn orders,
`verify --suite all`, and `hn` along its first and last sequence given
as an index, with the sum of its 21 catalog modules; `poset` for the hn and pentagon orders as DOT (covers
only) on the other 31 six-vertex type-A orientations, where the orders
have the most classes (972-1,085), and `verify --suite all` on the 30 of
them other than <><><; `verify --suite all` on the 14 five-vertex
linear Kupisch series, where theorem C and the brick order run, and
`verify --suite lemmas` on the cyclic series 3,3,3,3 / 4,4,4,4 /
2,2,2,2,2 / 4,3,3,3, where the Ext table meets its presentation oracle.
Then, on each of the algebras with every command, `hn` along the first
and the last sequence of the `mgs` output (the first tree's, or the
second's when only that one lists them), given as a brick list, once
with `--module` the sum of every catalog module (#0+#1+...) and once for
each single module, and given as its `mgs` index with that sum.  Last,
on Nakayama 3,3,3,2,1, cyclic 3,3,3 and cyclic 3,3, `hn --mgs` with
brick lists that the validity check refuses (`error_commands`): a
repeated brick, a Hom-violating order, a list that is not maximal and,
on cyclic 3,3, a non-brick.  1283 calls in all.  These last calls are
compared by exit code and stderr, and match when both trees exit 2 with
the same message: they are counted as refused.  Any other call that
both trees reject with a usage error (exit 2) is reported as rejected:
the battery should make none.  A call that the first tree rejects with
exit 2 and the second answers with exit 0 is reported as admitted: a
gate that was lifted on purpose.
Exit code 0 when every call matches, is refused as expected or is
admitted, 1 when some call differs otherwise, times out or is rejected.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CALL_TIMEOUT_S = 3600
# the calls whose stdout is compared by digest, as (kind, command)
DIGESTED = {("six", ("mgs",))}
# CLI processes at once: the two trees' runs of one call go side by side
JOBS = 2
# the algebras of the `error_commands` calls; only cyclic 3,3 has a
# non-brick among them
ERROR_ALGEBRAS = ("nakayama linear 3,3,3,2,1", "nakayama cyclic 3,3,3",
                  "nakayama cyclic 3,3")


def type_a(word: str) -> dict:
    return {"type": "typeA", "orientation": word}


def nakayama(kupisch, cyclic: bool = False) -> dict:
    return {"type": "nakayama", "cyclic": cyclic, "kupisch": list(kupisch)}


def linear_kupisch(max_n: int):
    """Admissible linear series: c_n = 1 and 2 <= c_i <= c_{i+1} + 1."""
    out = []
    for n in range(1, max_n + 1):
        seqs = [(1,)]
        while len(seqs[0]) < n:
            seqs = [(c,) + s for s in seqs for c in range(2, s[0] + 2)]
        out += seqs
    return out


def battery() -> list[tuple[dict, str]]:
    """(algebra, which commands: "all", "exact", "exact-verify",
    "exact-lemmas", "five", "verify", "lemmas", "six", "six-dot", "zigzag"
    or "long")."""
    specs = [type_a("".join(w)) for n in range(1, 5)
             for w in itertools.product("<>", repeat=n - 1)]
    specs += [nakayama(s) for s in linear_kupisch(4)]
    specs += [nakayama(s, cyclic=True)
              for s in ([2, 2], [3, 3], [2, 2, 2], [3, 2, 2])]
    specs += [type_a("<<<<"), nakayama([3, 3, 3, 2, 1]),
              nakayama([3, 3, 3], cyclic=True), nakayama([5] * 5, cyclic=True)]
    # --exact checks the Nakayama closed-form Hom table against elimination
    exact = [spec for spec in specs if spec["type"] == "nakayama"
             and (spec["cyclic"] or spec["kupisch"] == [3, 3, 3, 2, 1])]
    exact += [nakayama([5, 5], cyclic=True), nakayama([7] * 4, cyclic=True)]
    five = [type_a("".join(w)) for w in itertools.product("<>", repeat=4)]
    # <<<<< has every order as DOT among its "six" commands
    six_dot = [type_a("".join(w)) for w in itertools.product("<>", repeat=5)
               if "".join(w) != "<<<<<"]
    long = [type_a("<" * 16), type_a("<>" * 8), type_a("<<><<>><<><<>><<")]
    exact_verify = [type_a("<<<<"), type_a("<><>"), nakayama([3, 3, 3, 2, 1]),
                    nakayama([3, 3, 3], cyclic=True)]
    exact_lemmas = [type_a("<<<<<"), type_a("<><><")]
    kupisch5 = [nakayama(s) for s in linear_kupisch(5) if len(s) == 5]
    lemmas = [nakayama(s, cyclic=True) for s in
              ([3, 3, 3, 3], [4, 4, 4, 4], [2, 2, 2, 2, 2], [4, 3, 3, 3])]
    return ([(spec, "all") for spec in specs]
            + [(spec, "exact") for spec in exact]
            + [(spec, "exact-verify") for spec in exact_verify]
            + [(spec, "exact-lemmas") for spec in exact_lemmas]
            + [(spec, "five") for spec in five]
            + [(spec, "verify") for spec in kupisch5]
            + [(spec, "lemmas") for spec in lemmas]
            + [(spec, "long") for spec in long]
            + [(spec, "six-dot") for spec in six_dot]
            + [(type_a("<<<<<"), "six"), (type_a("<><><"), "zigzag")])


def label(spec: dict) -> str:
    if spec["type"] == "typeA":
        return f"typeA {spec['orientation'] or 'A1'}"
    kind = "cyclic" if spec["cyclic"] else "linear"
    return f"nakayama {kind} {','.join(map(str, spec['kupisch']))}"


def commands(spec: dict, kind: str) -> list[list[str]]:
    """Each call as its global flags, then the command and its options."""
    if kind == "long":
        return [[*flags, cmd] for cmd in ("catalog", "bricks")
                for flags in ([], ["--exact"])]
    if kind == "exact":
        return [["--exact", cmd] for cmd in ("catalog", "bricks")]
    if kind == "exact-verify":
        return [["--exact", "verify", "--suite", "all"]]
    if kind == "exact-lemmas":
        return [["--exact", "verify", "--suite", "lemmas"]]
    if kind == "verify":
        return [["verify", "--suite", "all"]]
    if kind == "lemmas":
        return [["verify", "--suite", "lemmas"]]
    if kind == "six-dot":
        # <><>< runs `verify` among its "zigzag" commands
        verify = ([["verify", "--suite", "all"]]
                  if spec["orientation"] != "<><><" else [])
        return [["poset", "--order", o] for o in ("hn", "pentagon")] + verify
    orders = ["pentagon", "summand", "hn"]
    if spec["type"] == "nakayama":
        orders.append("brick")
    posets = [["poset", "--order", o, "--format", "json"] for o in orders]
    if kind == "zigzag":
        # its 16,424,057 sequences, by index, with the sum of its 21 modules
        total = "+".join(f"#{i}" for i in range(21))
        return posets + [["verify", "--suite", "all"]] + [
            ["hn", "--mgs", index, "--module", total]
            for index in ("0", "16424056")]
    if kind == "five":
        return [["mgs"], ["classes"]] + posets + [["verify", "--suite", "all"]]
    dots = [["poset", "--order", o] for o in orders]
    if kind == "six":
        return ([["mgs"], ["classes"]] + posets + dots
                + [["verify", "--suite", "all"]])
    return ([["catalog"], ["bricks"], ["mgs"], ["classes"]] + posets + dots
            + [["verify", "--suite", "all"]])


def hn_commands(catalog_out: bytes, mgs_out: bytes) -> list[list[str]]:
    """`hn` calls along the first and the last listed sequence, read from
    the `catalog` and `mgs` outputs of one algebra: as brick lists with
    every module sum, and as indices with the sum of all modules."""
    size = len(json.loads(catalog_out)["modules"])
    seqs = json.loads(mgs_out)["sequences"]
    modules = ["+".join(f"#{i}" for i in range(size))]
    modules += [f"#{i}" for i in range(size)]
    return ([["hn", "--mgs", ",".join(f"#{i}" for i in seq["ids"]),
              "--module", m]
             for seq in (seqs[0], seqs[-1]) for m in modules]
            + [["hn", "--mgs", str(seq["index"]), "--module", modules[0]]
               for seq in (seqs[0], seqs[-1])])


def error_commands(catalog_out: bytes, mgs_out: bytes) -> list[list[str]]:
    """`hn --mgs` calls whose brick list the validity check refuses, read
    from the `catalog` and `mgs` outputs of one algebra: the first sequence
    with its first brick repeated, the longest sequence reversed (a
    non-zero Hom from an earlier brick to a later one), the first sequence
    without its second brick (not maximal), and the first non-brick of the
    catalog, where it has one."""
    seqs = [seq["ids"] for seq in json.loads(mgs_out)["sequences"]]
    first, longest = seqs[0], max(seqs, key=len)
    lists = [first + first[:1], longest[::-1], first[:1] + first[2:]]
    lists += [[m["id"]] for m in json.loads(catalog_out)["modules"]
              if not m["brick"]][:1]
    return [["hn", "--mgs", ",".join(f"#{i}" for i in ids), "--module", "#0"]
            for ids in lists]


def run(src: Path, command: list[str], path: Path, cwd: Path,
        mode: str = "stdout"):
    """(exit code, output) of one fresh CLI process; exit code None on
    timeout.  The output is its stdout, or its stderr with mode "stderr";
    with mode "digest", the stdout is read in pieces and stands as its
    SHA-256 and length."""
    env = dict(os.environ, PYTHONPATH=str(src))
    flags = list(itertools.takewhile(lambda arg: arg.startswith("--"), command))
    name, *options = command[len(flags):]
    argv = [sys.executable, "-m", "greenseq", *flags, name, str(path), *options]
    if mode != "digest":
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, b""
        return proc.returncode, proc.stdout if mode == "stdout" else proc.stderr
    sha, length, expired = hashlib.sha256(), 0, threading.Event()
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        timer = threading.Timer(CALL_TIMEOUT_S,
                                lambda: (expired.set(), proc.kill()))
        timer.start()
        while piece := proc.stdout.read(1 << 20):
            sha.update(piece)
            length += len(piece)
        code = proc.wait()
        timer.cancel()
    if expired.is_set():
        return None, b""
    return code, f"sha256 {sha.hexdigest()}, {length} bytes\n".encode()


def first_difference(old: bytes, new: bytes) -> str:
    a, b = old.splitlines(), new.splitlines()
    for k, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return (f"line {k}: {x[:160].decode(errors='replace')!r} -> "
                    f"{y[:160].decode(errors='replace')!r}")
    return f"{len(a)} lines -> {len(b)} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the first tree's src/ directory")
    parser.add_argument("new", type=Path, help="the second tree's src/ directory")
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "greenseq" / "__init__.py").is_file():
            parser.error(f"{src} holds no greenseq package")
    srcs = (args.old.resolve(), args.new.resolve())

    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(max_workers=JOBS) as pool:
        tmp = Path(tmp)

        def run_both(batch):
            futures = [[pool.submit(run, src, cmd, path, tmp, mode)
                        for src in srcs] for _, cmd, path, mode in batch]
            return [[f.result() for f in pair] for pair in futures]

        calls, paths = [], []
        for k, (spec, kind) in enumerate(battery()):
            path = tmp / f"algebra{k}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            calls += [(label(spec), cmd, path,
                       "digest" if (kind, tuple(cmd)) in DIGESTED else "stdout")
                      for cmd in commands(spec, kind)]
            if kind == "all":
                paths.append((label(spec), path))
        results = run_both(calls)
        # the catalog and mgs outputs name the hn calls: the first tree's,
        # or the second's where the first rejects the command
        first_out = {(name, cmd[0]): next((out for code, out in res if code == 0),
                                          res[0][1])
                     for (name, cmd, *_), res in zip(calls, results)}
        hn_calls = [(name, cmd, path, "stdout") for name, path in paths
                    for cmd in hn_commands(first_out[name, "catalog"],
                                           first_out[name, "mgs"])]
        hn_calls += [(name, cmd, path, "stderr") for name, path in paths
                     if name in ERROR_ALGEBRAS
                     for cmd in error_commands(first_out[name, "catalog"],
                                               first_out[name, "mgs"])]
        calls += hn_calls
        results += run_both(hn_calls)

    differing = rejected = admitted = refused = 0
    for (name, cmd, _, mode), ((old_code, old_out), (new_code, new_out)) in zip(
            calls, results):
        same = (None not in (old_code, new_code) and old_code == new_code
                and old_out == new_out)
        if same:
            if mode == "stderr" and old_code == 2:
                refused += 1
            elif mode == "stderr":
                differing += 1
                print(f"UNREFUSED {name}: {' '.join(cmd)}: exit {old_code} "
                      f"in both trees, where exit 2 is expected")
            elif old_code == 2:
                rejected += 1
                print(f"REJECTED {name}: {' '.join(cmd)}: exit 2 in both trees")
            continue
        if (old_code, old_out, new_code) == (2, b"", 0):
            admitted += 1
            print(f"ADMITTED {name}: {' '.join(cmd)}: exit 2 -> 0")
            continue
        differing += 1
        print(f"DIFF {name}: {' '.join(cmd)}: exit {old_code} -> {new_code}; "
              f"{first_difference(old_out, new_out)}")
    print(f"{len(calls)} calls, {differing} differ, {rejected} rejected, "
          f"{admitted} admitted, {refused} refused as expected")
    return 1 if differing or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
