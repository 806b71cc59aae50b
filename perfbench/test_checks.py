"""Tests of the benchmark's checks, on A2 (the orientation word `<`).

A2 has two green sequences (1,2 and 2,12,1) in two classes.  The checks
must accept the real outputs and reject deliberately corrupted ones.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from checks import (catalan, chain_count, check_catalog, check_classes,  # noqa: E402
                    check_lattice_size, check_mgs, check_pentagon,
                    check_verify)
from run import Judge  # noqa: E402
from workloads import WORKLOADS, Algebra, Call, Workload, build  # noqa: E402

A2 = {"type": "typeA", "orientation": "<"}


def cli_report(argv: list[str], spec: dict = A2) -> tuple[dict, bytes]:
    from greenseq import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([argv[0], path, *argv[1:]])
    assert code == 0, argv
    return json.loads(buf.getvalue()), buf.getvalue().encode()


class A2Outputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mgs, _ = cli_report(["mgs"])
        cls.classes, _ = cli_report(["classes"])
        cls.pentagon, _ = cli_report(["poset", "--order", "pentagon",
                                      "--format", "json"])
        cls.verify, _ = cli_report(["verify", "--suite", "all"])
        cls.catalog, cls.catalog_bytes = cli_report(["catalog"])

    def test_lattice_oracle(self):
        from greenseq import AlgebraSpec, ModuleCategory

        lattice = ModuleCategory(AlgebraSpec.from_dict(A2)).torsion_lattice()
        self.assertEqual(check_lattice_size(len(lattice.classes), 2), [])
        self.assertEqual(chain_count(lattice.covers, lattice.top, lattice.bottom), 2)
        self.assertNotEqual(check_lattice_size(len(lattice.classes) + 1, 2), [])

    def test_real_outputs_pass(self):
        self.assertEqual([s["bricks"] for s in self.mgs["sequences"]],
                         [["1", "2"], ["2", "12", "1"]])
        self.assertEqual(check_mgs(self.mgs, 2, 2, 3), [])
        self.assertEqual(check_classes(self.classes, 2, 2), [])
        self.assertEqual(self.classes["count"], 2)
        self.assertEqual(check_pentagon(self.pentagon, self.classes, 2), [])
        self.assertEqual(check_verify(self.verify, nakayama=False), [])
        self.assertEqual(check_catalog(self.catalog, 2), [])

    def corrupt(self, report, edit):
        bad = copy.deepcopy(report)
        edit(bad)
        return bad

    def test_corrupted_mgs_rejected(self):
        edits = [
            lambda d: d["sequences"].pop(),
            lambda d: d.update(count=3),
            lambda d: d["sequences"].append(dict(d["sequences"][0], index=2)),
            lambda d: d["sequences"][1]["ids"].pop(),
            lambda d: d["sequences"][1]["descriptors"].__setitem__(0, "I[1,2]"),
            lambda d: d["sequences"][0].update(length=3),
        ]
        for edit in edits:
            self.assertNotEqual(check_mgs(self.corrupt(self.mgs, edit), 2, 2, 3), [])
        # a count that disagrees with the lattice oracle
        self.assertNotEqual(check_mgs(self.mgs, 2, 3, 3), [])

    def test_corrupted_classes_rejected(self):
        edits = [
            lambda d: d["classes"][1]["members"].append(0),
            lambda d: d["classes"][1].update(members=[]),
            lambda d: d["classes"][1].update(summand_key=d["classes"][0]["summand_key"]),
            lambda d: d["classes"][0]["summand_key"].pop(),
            lambda d: d.update(count=1),
        ]
        for edit in edits:
            self.assertNotEqual(check_classes(self.corrupt(self.classes, edit), 2, 2), [])

    def test_corrupted_pentagon_rejected(self):
        edits = [
            lambda d: d["leq"][0].__setitem__(1, True),     # antisymmetry
            lambda d: d["leq"][0].__setitem__(0, False),    # reflexivity
            lambda d: d["leq"][1].__setitem__(0, False),    # no maximum
            lambda d: d.update(covers=[]),
            lambda d: d.update(covers=[[1, 0]]),
            lambda d: d["classes"].reverse(),
            lambda d: d.update(order="summand"),
        ]
        for edit in edits:
            bad = self.corrupt(self.pentagon, edit)
            self.assertNotEqual(check_pentagon(bad, self.classes, 2), [])

    def test_theorem_b_violation_rejected(self):
        # swap which class is below: the shorter one may not sit lower
        bad = self.corrupt(self.pentagon, lambda d: d.update(
            leq=[[True, True], [False, True]], covers=[[1, 0]]))
        self.assertNotEqual(check_pentagon(bad, self.classes, 2), [])

    def test_corrupted_verify_rejected(self):
        edits = [
            lambda d: d["checks"][0].update(passed=False),
            lambda d: d.update(passed=False),
            lambda d: d.update(checks=[c for c in d["checks"]
                                       if c["check"] != "equivalence-criteria-agree"]),
        ]
        for edit in edits:
            self.assertNotEqual(check_verify(self.corrupt(self.verify, edit), False), [])
        # a Nakayama report must also carry the four-order check
        self.assertNotEqual(check_verify(self.verify, nakayama=True), [])

    def test_corrupted_catalog_rejected(self):
        edits = [
            lambda d: d["modules"][0].update(brick=False),
            lambda d: d["modules"][1].update(simple=True),
            lambda d: d["modules"][0].update(projective=True),
            lambda d: d["modules"].pop(),
        ]
        for edit in edits:
            self.assertNotEqual(check_catalog(self.corrupt(self.catalog, edit), 2), [])

    def test_judge_compares_repeats_and_exact(self):
        alg = Algebra("a2", A2)
        wl = Workload(algebras=(alg,),
                      calls=(Call("a2", "catalog"),
                             Call("a2", "catalog", flags=("--exact",))))
        judge = Judge(wl, {})
        plain, exact = wl.calls
        judge.call(plain, 0, self.catalog_bytes, {}, raw := {})
        judge.call(exact, 0, self.catalog_bytes, {}, raw)
        self.assertEqual((judge.failed, judge.correct), (0, True))
        changed = self.catalog_bytes.replace(b'"brick": true', b'"brick":  true', 1)
        judge.call(exact, 0, changed, {}, raw)       # --exact differs
        judge.call(plain, 0, changed, {}, {})        # repeat differs
        judge.call(plain, 1, b"", {}, {})            # exit code
        judge.call(plain, None, b"", {}, {})         # timeout
        self.assertEqual((judge.attempted, judge.failed, judge.correct),
                         (6, 4, False))

    def test_judge_poset_after_failed_classes(self):
        # a crashed classes call leaves the poset call nothing to compare
        # with: it fails, but no output was wrong
        wl = Workload(algebras=(Algebra("a2", A2),),
                      calls=(Call("a2", "classes"),
                             Call("a2", "poset", ("--order", "pentagon",
                                                  "--format", "json"))))
        judge = Judge(wl, {"a2": 2})
        classes, poset = wl.calls
        judge.call(classes, 1, b"", earlier := {}, raw := {})
        judge.call(poset, 0, json.dumps(self.pentagon).encode(), earlier, raw)
        self.assertEqual((judge.attempted, judge.failed, judge.correct),
                         (2, 2, True))
        classes_bytes = json.dumps(self.classes).encode()
        judge.call(classes, 0, classes_bytes, earlier := {}, raw := {})
        judge.call(poset, 0, json.dumps(self.pentagon).encode(), earlier, raw)
        self.assertEqual((judge.attempted, judge.failed, judge.correct),
                         (4, 2, True))

    def test_workload_derives_setups_and_oracle(self):
        self.assertEqual(build("catalog-long", 0).setups,
                         (("long", False), ("long", True)))
        self.assertEqual(build("catalog-long", 0).oracle, ())
        self.assertEqual(build("classes-pentagon", 0).setups, (("line", False),))
        self.assertEqual(build("classes-pentagon", 0).oracle, ("line",))
        self.assertEqual(build("verify-all", 0).setups,
                         (("nakayama", False), ("cyclic", False), ("small", False)))
        self.assertEqual([w for w in WORKLOADS if build(w, 0).repeats_a_call],
                         ["classes-pentagon", "verify-all"])


class Parts(unittest.TestCase):
    def test_catalan(self):
        self.assertEqual([catalan(k) for k in range(1, 7)], [1, 2, 5, 14, 42, 132])

    def test_chain_count_pentagon(self):
        # top 0 > 1 > 2 > bottom 4 and top 0 > 3 > bottom 4
        covers = [(0, 1, 0), (1, 2, 0), (2, 4, 0), (0, 3, 0), (3, 4, 0)]
        self.assertEqual(chain_count(covers, 0, 4), 2)

    def test_seed_picks_word_or_opposite(self):
        for name in WORKLOADS:
            self.assertEqual(build(name, 7), build(name, 7))
        words = {build("classes-pentagon", s).algebras[0].spec["orientation"]
                 for s in range(20)}
        self.assertEqual(words, {"<<<<", ">>>>"})
        verify = build("verify-all", 0)
        self.assertEqual([a.spec["type"] for a in verify.algebras],
                         ["nakayama", "nakayama", "typeA"])


TRACE_A2 = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from greenseq import cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
for argv in (["classes", sys.argv[3]], ["verify", sys.argv[3], "--suite", "all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps({"metrics": tracer.layer_metrics(), "spans": tracer.spans}))
"""


class Tracing(unittest.TestCase):
    def traced_a2(self) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a2.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(A2, fh)
            done = subprocess.run(
                [sys.executable, "-c", TRACE_A2, str(HERE), str(SRC), path],
                capture_output=True, check=True, timeout=60)
        return json.loads(done.stdout)

    def test_counts_repeat_and_spans_nest(self):
        first, second = self.traced_a2(), self.traced_a2()
        counts = {k: v for k, (v, unit) in first["metrics"].items() if unit != "s"}
        again = {k: v for k, (v, unit) in second["metrics"].items() if unit != "s"}
        self.assertEqual(counts, again)
        self.assertEqual(counts["green.sequences"], 4)   # 2 per command
        self.assertEqual(counts["typea.catalog_size"], 6)
        self.assertGreater(counts["modcat.hom_calls"], 0)
        self.assertGreater(first["metrics"]["cli.main_s"][0], 0)
        spans = first["spans"]
        ids = {s["id"] for s in spans}
        for s in spans:
            self.assertTrue(s["parent"] is None or s["parent"] in ids)
            self.assertLessEqual(s["start"], s["end"])
        self.assertEqual([s["name"] for s in spans if s["parent"] is None],
                         ["cli.main", "cli.main"])


if __name__ == "__main__":
    unittest.main()
