"""Span tracing around qident's public calls, installed from outside.

`install()` replaces each function in `TRACED` by a wrapper that records a
span: name, start, end, parent span and whether an exception left it.
Modules bind each other's functions with ``from .x import f``, so a
function is replaced in every ``qident`` module namespace that holds it;
``Series`` methods are replaced on the class.  Spans stay in memory and
are folded into per-layer metrics by `Tracer.summary` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from statistics import median

# (span name, module, attribute); "Class.method" patches a method.
TRACED = (
    ("qring.mul", "qident.qring", "Series.__mul__"),
    ("qring.add", "qident.qring", "Series.__add__"),
    ("qring.invert", "qident.qring", "Series.invert"),
    ("qfactorial.poch", "qident.qfactorial", "poch_finite"),
    ("qfactorial.poch", "qident.qfactorial", "poch_recip_finite"),
    ("qfactorial.poch", "qident.qfactorial", "poch_infinite"),
    ("qfactorial.product", "qident.qfactorial", "expand_product_spec"),
    ("summation.support", "qident.summation", "enumerate_support"),
    ("summation.term", "qident.summation", "term_series"),
    ("summation.accumulate", "qident.summation", "eval_sum_over"),
    ("summation.eval", "qident.summation", "eval_sum"),
    ("summation.eval", "qident.summation", "eval_sum_scaled"),
    ("ctengine.zfactors", "qident.ctengine", "expand_zfactors"),
    ("ctengine.zmul", "qident.ctengine", "zmul"),
    ("ctengine.jtp", "qident.ctengine", "jtp_zseries"),
    ("ctengine.zverify", "qident.ctengine", "verify_zcoeff_identity"),
    ("ctengine.prove", "qident.ctengine", "prove_main_theorem"),
    ("speclang.parse", "qident.speclang", "parse_file"),
    ("speclang.lower", "qident.speclang", "validate_identity"),
    ("catalog.build", "qident.catalog", "get_identity"),
    ("catalog.verify", "qident.catalog", "verify_identity"),
    ("report.compare", "qident.report", "compare_series"),
)

LAYERS = ("qring", "qfactorial", "summation", "ctengine", "speclang",
          "catalog", "report")

# Inclusive seconds and call counts reported per span name.
TIMED = {
    "qring.mul": ("qring.mul_s", "qring.mul_calls"),
    "qring.invert": ("qring.invert_s", "qring.invert_calls"),
    "qring.add": ("qring.add_s", "qring.add_calls"),
    "qfactorial.poch": ("qfactorial.poch_s", "qfactorial.poch_calls"),
    "qfactorial.product": ("qfactorial.product_s", None),
    "summation.support": ("summation.support_s", None),
    "summation.term": ("summation.term_s", "summation.term_calls"),
    "ctengine.zfactors": ("ctengine.zfactors_s", None),
    "ctengine.zmul": ("ctengine.zmul_s", "ctengine.zmul_calls"),
    "speclang.parse": ("speclang.parse_s", None),
    "speclang.lower": ("speclang.lower_s", None),
    "catalog.build": ("catalog.build_s", None),
    "report.compare": ("report.compare_s", None),
}

# Every metric a traced child reports, in a fixed order.
METRICS = (
    [m for pair in TIMED.values() for m in pair if m]
    + ["qring.mul_terms", "qring.max_terms", "qfactorial.cache_hit_ratio",
       "summation.support_points", "summation.support_shells",
       "summation.support_kept_ratio", "summation.accumulate_s"]
    + [f"{layer}.self_s" for layer in LAYERS]
    + [f"{layer}.errors" for layer in LAYERS]
    + ["trace.spans", "trace.verify_s", "trace.unspanned_s"]
)


def _box_points(domains, shells: int) -> int:
    """Lattice points of max-norm below `shells` in the declared domains."""
    total = 1
    for d in domains:
        total *= shells if d == "N" else 2 * shells - 1
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, error, outermost]
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.terms_total = 0
        self.terms_max = 0
        self.support = [0, 0, 0]        # points kept, shells scanned, box points
        self.caches = []                # lru_cache functions of qfactorial

    def wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter
        qring = name.startswith("qring.")
        support = name == "summation.support"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            outermost = not depth.get(name)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, outermost]
            spans.append(span)
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] -= 1
            if qring:
                n = len(result.terms)
                if name == "qring.mul":
                    self.terms_total += n
                self.terms_max = max(self.terms_max, n)
            elif support:
                self.support[0] += len(result.points)
                self.support[1] += result.shells_scanned
                self.support[2] += _box_points(args[0].domains,
                                               result.shells_scanned)
            return result

        return traced

    def summary(self, verify_s: float) -> dict:
        """Per-layer metrics of one traced run whose CLI call took verify_s."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {m: 0 for m in METRICS}
        out["trace.verify_s"] = verify_s
        for idx, (name, start, end, parent, error, outermost) in enumerate(spans):
            layer = name.split(".")[0]
            dur = end - start
            out[f"{layer}.self_s"] += dur - child[idx]
            if name == "summation.accumulate":
                out["summation.accumulate_s"] += dur - child[idx]
            seconds, calls = TIMED.get(name, (None, None))
            if seconds and outermost:
                out[seconds] += dur
            if calls:
                out[calls] += 1
            if error and (parent < 0 or not spans[parent][0].startswith(layer + ".")):
                out[f"{layer}.errors"] += 1
            if parent < 0:
                verify_s -= dur
        hits = misses = 0
        for fn in self.caches:
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        kept, shells, box = self.support
        out.update({
            "qring.mul_terms": self.terms_total,
            "qring.max_terms": self.terms_max,
            "qfactorial.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "summation.support_points": kept,
            "summation.support_shells": shells,
            "summation.support_kept_ratio": kept / box if box else 0.0,
            "trace.spans": len(spans),
            "trace.unspanned_s": verify_s,
        })
        return out


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, meth = attr.split(".")
        owner = getattr(owner, cls)
        attr = meth
    return owner, attr


def install() -> Tracer:
    """Wrap every function in TRACED; qident must already be imported."""
    tracer = Tracer()
    tracer.caches = [fn for fn in vars(sys.modules["qident.qfactorial"]).values()
                     if callable(getattr(fn, "cache_info", None))]
    modules = [m for n, m in sys.modules.items()
               if n == "qident" or n.startswith("qident.")]
    for name, module, attr in TRACED:
        owner, attr = _resolve(module, attr)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return tracer


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric median over several traced children."""
    return {m: median(s[m] for s in samples) for m in METRICS}
