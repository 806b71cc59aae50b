"""Traced run: per-layer metrics measured from outside the program.

The tracer wraps public functions of each greenseq module (never editing
`src/`) and runs the workload's CLI calls in one process through
`cli.main`.  Functions called a handful of times per command open a span
(name, start, end, parent); hot functions such as `ModuleCategory.hom`
are counted and timed without a span of their own, and each span carries
the change in those totals over its interval.  Times are inclusive of
callees and taken at the outermost call of each function.
"""

from __future__ import annotations

import importlib
import weakref
from collections import Counter
from time import perf_counter

# Kinds: "span" opens a span on every call; "first" opens one on the first
# call per instance (the call that fills the instance's cache) and counts
# the rest; "count" only counts and times.
WRAPPED = (
    # (module, owner, attribute, total name, kind)
    ("typea", "TypeABackend", "__init__", "typea.build", "span"),
    ("nakayama", "NakayamaBackend", "__init__", "nakayama.build", "span"),
    ("modcat", None, "rank_mod_p", "linalg.rank", "count"),
    ("modcat", None, "rank_exact", "linalg.rank", "count"),
    ("modcat", "ModuleCategory", "__init__", "modcat.init", "span"),
    ("modcat", "ModuleCategory", "bricks", "modcat.bricks", "first"),
    ("modcat", "ModuleCategory", "hom", "modcat.hom", "count"),
    ("modcat", "ModuleCategory", "ext1", "modcat.ext1", "count"),
    ("modcat", "ModuleCategory", "torsion_closure", "modcat.closure", "count"),
    ("modcat", "ModuleCategory", "torsion_lattice", "modcat.lattice", "first"),
    ("green", "GreenEngine", "__init__", "green.engine_init", "span"),
    ("green", "GreenEngine", "enumerate_mgs", "green.enumerate", "first"),
    ("green", "GreenEngine", "torsion_chain", "green.chains", "count"),
    ("green", "GreenEngine", "summand_set", "green.summands", "count"),
    ("green", "GreenEngine", "exchange_pairs", "green.exchange", "count"),
    ("green", "GreenEngine", "stable_factor_function", "green.sff", "count"),
    ("green", "GreenEngine", "equivalence_classes", "green.classes", "first"),
    ("green", "GreenEngine", "explain_invalid", "green.validity", "count"),
    ("green", "GreenEngine", "square_swap", "green.square_swap", "count"),
    ("orders", None, "build_order", "orders.", "span"),
    ("orders", None, "iepd_cover_pairs", "orders.iepd_cover_pairs", "span"),
    ("orders", None, "polygon_deformation_pairs", "orders.polygon_pairs", "span"),
    ("orders", None, "exchange_persistence", "orders.exchange_persistence", "span"),
    ("orders", None, "check_extrema", "orders.check_extrema", "span"),
    ("verify", None, "run_suite", "verify.run_suite", "span"),
    ("verify", None, "build_posets", "verify.build_posets", "span"),
    ("verify", None, "suite_theorem_a", "verify.theoremA", "span"),
    ("verify", None, "suite_theorem_b", "verify.theoremB", "span"),
    ("verify", None, "suite_theorem_c", "verify.theoremC", "span"),
    ("verify", None, "suite_lemmas", "verify.lemmas", "span"),
    ("cli", None, "main", "cli.main", "span"),
)


def _sizes(name: str, args, result) -> dict[str, int]:
    """Counts read off a call's arguments or result."""
    if name in ("typea.build", "nakayama.build"):
        backend = args[0]
        layer = name.split(".")[0]
        return {f"{layer}.catalog_size": len(backend.catalog),
                f"{layer}.ses_records": sum(len(backend.records(i))
                                            for i in range(len(backend.catalog)))}
    if name == "linalg.rank":
        return {"linalg.rank_rows": len(args[0])}
    if name == "modcat.bricks":
        return {"modcat.bricks": len(result)}
    if name == "modcat.lattice":
        return {"modcat.lattice_classes": len(result.classes),
                "modcat.lattice_covers": len(result.covers)}
    if name == "green.enumerate":
        return {"green.sequences": len(result)}
    if name == "green.classes":
        return {"green.classes": len(result)}
    if name == "orders.pentagon":
        return {"orders.pentagon_covers": len(result.covers)}
    if name == "orders.polygon_pairs":
        return {"orders.polygon_pairs": len(result)}
    if name == "verify.build_posets":
        return {"verify.poset_builds": len(result)}
    if name == "verify.run_suite":
        return {"verify.checks": len(result),
                "verify.skipped_checks": sum("skipped" in c.detail for c in result)}
    return {}


class Tracer:
    """Spans and per-function totals of one traced run, held in memory."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        # name -> [calls, seconds at the outermost call]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()

    def _snapshot(self) -> dict[str, tuple]:
        return {k: (v[0], v[1]) for k, v in self.totals.items()}

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans),
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name, "start": perf_counter() - self.t0, "end": None,
                "_before": self._snapshot()}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter() - self.t0
        before = span.pop("_before")
        span["counts"] = {}
        for k, (calls, seconds) in self.totals.items():
            calls0, seconds0 = before.get(k, (0, 0.0))
            if calls != calls0:
                span["counts"][k] = [calls - calls0, seconds - seconds0]
        self.stack.pop()

    def _count(self, fn, name: str):
        """Wrapper for hot functions: calls and time, no span."""
        total = self.totals.setdefault(name, [0, 0.0])
        counts = self.counts
        sized = name == "linalg.rank"
        active = [0]

        def wrapped(*args, **kwargs):
            total[0] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total[1] += perf_counter() - start
                active[0] = 0
            if sized:
                counts.update(_sizes(name, args, result))
            return result

        return wrapped

    def _span(self, fn, name: str, kind: str):
        """Wrapper that opens a span: on every call, or for kind "first"
        on the first call per instance."""
        tracer = self
        seen: weakref.WeakSet = weakref.WeakSet()
        active: Counter = Counter()

        def wrapped(*args, **kwargs):
            # build_order(tag, engine) is timed per order
            full = name + args[0] if name == "orders." else name
            total = tracer.totals.setdefault(full, [0, 0.0])
            total[0] += 1
            if active[full]:
                return fn(*args, **kwargs)
            fresh = kind == "span" or args[0] not in seen
            span = tracer.open(full) if fresh else None
            active[full] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total[1] += perf_counter() - start
                active[full] -= 1
                if span is not None:
                    tracer.close(span)
            if fresh:
                tracer.counts.update(_sizes(full, args, result))
                if kind == "first":
                    seen.add(args[0])
            return result

        return wrapped

    def install(self) -> None:
        """Replace each listed greenseq function by its traced wrapper."""
        for module, owner, attr, name, kind in WRAPPED:
            target = importlib.import_module(f"greenseq.{module}")
            if owner is not None:
                target = getattr(target, owner)
            current = target.__dict__[attr]
            fn = current.fget if isinstance(current, property) else current
            wrapped = (self._count(fn, name) if kind == "count"
                       else self._span(fn, name, kind))
            setattr(target, attr,
                    property(wrapped) if isinstance(current, property) else wrapped)

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0])[0]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        s, c, n = self.seconds, self.calls, self.counts
        return {
            "typea.build_s": (s("typea.build"), "s"),
            "typea.catalog_size": (n["typea.catalog_size"], "count"),
            "typea.ses_records": (n["typea.ses_records"], "count"),
            "nakayama.build_s": (s("nakayama.build"), "s"),
            "nakayama.catalog_size": (n["nakayama.catalog_size"], "count"),
            "nakayama.ses_records": (n["nakayama.ses_records"], "count"),
            "linalg.rank_calls": (c("linalg.rank"), "count"),
            "linalg.rank_rows": (n["linalg.rank_rows"], "count"),
            "linalg.rank_s": (s("linalg.rank"), "s"),
            "modcat.init_s": (s("modcat.init"), "s"),
            "modcat.bricks_s": (s("modcat.bricks"), "s"),
            "modcat.bricks": (n["modcat.bricks"], "count"),
            "modcat.hom_calls": (c("modcat.hom"), "count"),
            "modcat.hom_s": (s("modcat.hom"), "s"),
            "modcat.ext1_calls": (c("modcat.ext1"), "count"),
            "modcat.ext1_s": (s("modcat.ext1"), "s"),
            "modcat.closure_calls": (c("modcat.closure"), "count"),
            "modcat.lattice_s": (s("modcat.lattice"), "s"),
            "modcat.lattice_classes": (n["modcat.lattice_classes"], "count"),
            "modcat.lattice_covers": (n["modcat.lattice_covers"], "count"),
            "green.engine_init_s": (s("green.engine_init"), "s"),
            "green.enumerate_s": (s("green.enumerate"), "s"),
            "green.sequences": (n["green.sequences"], "count"),
            "green.chains_s": (s("green.chains"), "s"),
            "green.summands_s": (s("green.summands"), "s"),
            "green.exchange_s": (s("green.exchange"), "s"),
            "green.sff_s": (s("green.sff"), "s"),
            "green.classes_s": (s("green.classes"), "s"),
            "green.classes": (n["green.classes"], "count"),
            "green.validity_checks": (c("green.validity"), "count"),
            "green.square_swaps": (c("green.square_swap"), "count"),
            "orders.pentagon_s": (s("orders.pentagon"), "s"),
            "orders.summand_s": (s("orders.summand"), "s"),
            "orders.hn_s": (s("orders.hn"), "s"),
            "orders.brick_s": (s("orders.brick"), "s"),
            "orders.pentagon_covers": (n["orders.pentagon_covers"], "count"),
            "orders.polygon_pairs_s": (s("orders.polygon_pairs"), "s"),
            "orders.polygon_pairs": (n["orders.polygon_pairs"], "count"),
            "verify.theoremA_s": (s("verify.theoremA"), "s"),
            "verify.theoremB_s": (s("verify.theoremB"), "s"),
            "verify.theoremC_s": (s("verify.theoremC"), "s"),
            "verify.lemmas_s": (s("verify.lemmas"), "s"),
            "verify.checks": (n["verify.checks"], "count"),
            "verify.skipped_checks": (n["verify.skipped_checks"], "count"),
            "verify.poset_builds": (n["verify.poset_builds"], "count"),
            "cli.main_s": (s("cli.main"), "s"),
            "cli.stdout_bytes": (n["cli.stdout_bytes"], "bytes"),
        }
