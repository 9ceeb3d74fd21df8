"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps the public functions of the six monocert modules
(and a few methods named below) at every place they are looked up: the
module globals and module-level dict tables of each module, plus the
class attribute for methods.  Nothing in the package itself changes.
Each wrapped call records one span (name, start, end, parent); the
hottest `Enclosure` and `RationalPolynomial` methods are counted but
not spanned, so their time lands in the self time of their caller.

`layer_metrics` derives the per-layer numbers from a dumped trace.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from types import FunctionType

from workloads import stage_of

# ln_gamma recurses up to an argument of at least 8 when its lower
# endpoint is below this (specfun._SHIFT_THRESHOLD).
LN_GAMMA_SHIFT_BELOW = 8.0

# Span names of the per-evaluator call counts the benchmark reports.
TARGET_EVALUATORS = (
    "ball_root_slope_chain",
    "chain_interval_poly",
    "chain_rate_bound_rational",
    "chain_rate_bound_with_log",
    "fg_ratio",
    "fg_ratio_core",
    "fg_ratio_core_rate",
    "fg_ratio_core_rate_lower_bound",
    "gamma_log_ratio",
    "log_ball_volume_root",
    "log_omega_sequence_term",
    "log_unit_ball_volume",
    "log_volume_sequence_value",
    "volume_sequence_value",
)

def _lower_endpoint(x) -> float:
    return x.lo if hasattr(x, "lo") else float(x)


def _note_ln_gamma(counters, args, result):
    branch = "shifted" if _lower_endpoint(args[0]) < LN_GAMMA_SHIFT_BELOW else "unshifted"
    counters[f"specfun.ln_gamma_{branch}.calls"] += 1


def _note_certify(counters, args, result):
    counters[f"exactpoly.stage.{stage_of(result)}"] += 1


def _note_grid(counters, args, result):
    counters["certify.grid_verified_pairs"] += result.verified_pairs


_NOTES = {
    "specfun.ln_gamma": _note_ln_gamma,
    "exactpoly.certify_positive_on_ray": _note_certify,
    "certify.grid_monotone_certificate": _note_grid,
}


class Tracer:
    """Spans held in flat arrays until `dump` writes them out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, note=None):
        """Wrap fn so each call records a span.  name is a string, or a
        callable of the call's arguments returning one."""
        fixed = None if callable(name) else self._id(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counters = self.counters

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if fixed is not None else self._id(name(args)))
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                note(counters, args, result)
            return result

        return traced

    def count(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every public function of the six layers wherever a
        module looks it up, and the traced methods on their classes."""
        import monocert
        from monocert import certify, cli, enclosure, exactpoly, specfun, targets
        from monocert.enclosure import Enclosure
        from monocert.exactpoly import RationalPolynomial

        modules = {
            "enclosure": enclosure, "exactpoly": exactpoly, "specfun": specfun,
            "targets": targets, "certify": certify, "cli": cli,
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if attr == "polygamma":
                        name = lambda args: f"specfun.polygamma{args[0]}"  # noqa: E731
                    wrappers[fn] = self.span(name, fn, _NOTES.get(f"{layer}.{attr}"))
        for mod in (monocert, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if isinstance(item, FunctionType) and item in wrappers:
                            value[key] = wrappers[item]

        from_rational = Enclosure.__dict__["from_rational"].__func__
        Enclosure.from_rational = classmethod(self.span("enclosure.from_rational", from_rational))
        Enclosure.__init__ = self.count("enclosure.objects", Enclosure.__init__)
        for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            setattr(Enclosure, op, self.count("enclosure.arith.calls", getattr(Enclosure, op)))
        Enclosure.log = self.count("enclosure.log.calls", Enclosure.log)
        Enclosure.exp = self.count("enclosure.exp.calls", Enclosure.exp)
        for method in ("taylor_shift", "sturm_root_count"):
            setattr(RationalPolynomial, method,
                    self.span(f"exactpoly.{method}", getattr(RationalPolynomial, method)))
        RationalPolynomial.eval_at = self.count("exactpoly.eval_at.calls", RationalPolynomial.eval_at)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "counters": dict(sorted(self.counters.items())),
                "spans": {
                    "name": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                },
            }, fh)


def span_totals(trace: dict) -> dict:
    """name -> [calls, inclusive ns, self ns], where a span's self time is
    its duration minus the durations of its direct children."""
    names, spans = trace["names"], trace["spans"]
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child = [0] * len(dur)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i]
    totals = {name: [0, 0, 0] for name in names}
    for i, nid in enumerate(spans["name"]):
        row = totals[names[nid]]
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - child[i]
    return totals


def children_of(trace: dict, name: str) -> int:
    """Number of spans whose parent span is called name."""
    if name not in trace["names"]:
        return 0
    nid = trace["names"].index(name)
    ids = trace["spans"]["name"]
    return sum(1 for p in trace["spans"]["parent"] if p >= 0 and ids[p] == nid)


def layer_metrics(trace: dict) -> dict:
    """The per-layer metric values (without units) of one traced run."""
    totals = span_totals(trace)
    counters = trace["counters"]

    def calls(name):
        return totals.get(name, (0,))[0]

    def seconds(name):
        return totals[name][1] / 1e9 if name in totals else 0.0

    def mean_us(name):
        return totals[name][1] / totals[name][0] / 1e3 if calls(name) else 0.0

    def self_s(layer):
        return sum(row[2] for name, row in totals.items() if name.startswith(layer + ".")) / 1e9

    m = {
        "enclosure.from_rational.calls": calls("enclosure.from_rational"),
        "enclosure.from_rational_s": seconds("enclosure.from_rational"),
        "enclosure.objects": counters.get("enclosure.objects", 0),
        "enclosure.arith.calls": counters.get("enclosure.arith.calls", 0),
        "enclosure.log.calls": counters.get("enclosure.log.calls", 0),
        "enclosure.exp.calls": counters.get("enclosure.exp.calls", 0),
        "specfun.ln_gamma.calls": calls("specfun.ln_gamma"),
        "specfun.ln_gamma_us": mean_us("specfun.ln_gamma"),
        "specfun.ln_gamma_shifted.calls": counters.get("specfun.ln_gamma_shifted.calls", 0),
        "specfun.ln_gamma_unshifted.calls": counters.get("specfun.ln_gamma_unshifted.calls", 0),
    }
    lg = m["specfun.ln_gamma.calls"]
    m["specfun.ln_gamma_shifted_share"] = m["specfun.ln_gamma_shifted.calls"] / lg if lg else 0.0
    for k in range(3):
        m[f"specfun.polygamma{k}.calls"] = calls(f"specfun.polygamma{k}")
        m[f"specfun.polygamma{k}_us"] = mean_us(f"specfun.polygamma{k}")
    m["specfun.self_s"] = self_s("specfun")
    for name in TARGET_EVALUATORS:
        m[f"targets.{name}.calls"] = calls(f"targets.{name}")
    m["targets.self_s"] = self_s("targets")
    for suite in ("lemma2", "theorem1", "theorem2", "remark1"):
        m[f"certify.verify_{suite}_s"] = seconds(f"certify.verify_{suite}")
    grid = "certify.grid_monotone_certificate"
    grid_evals = children_of(trace, grid)
    m["certify.grid_s"] = seconds(grid)
    m["certify.grid_evals"] = grid_evals
    m["certify.grid_useful_ratio"] = (
        counters.get("certify.grid_verified_pairs", 0) / (grid_evals - calls(grid))
        if grid_evals > calls(grid) else 0.0
    )
    m["certify.serialize_s"] = seconds("certify.report_to_json_text")
    m["certify.self_s"] = self_s("certify")
    m["exactpoly.certify.calls"] = calls("exactpoly.certify_positive_on_ray")
    m["exactpoly.certify_s"] = seconds("exactpoly.certify_positive_on_ray")
    for stage in ("shifted", "descartes", "sturm", "not_certified"):
        m[f"exactpoly.stage.{stage}"] = counters.get(f"exactpoly.stage.{stage}", 0)
    m["exactpoly.taylor_shift_s"] = seconds("exactpoly.taylor_shift")
    m["exactpoly.sturm_root_count_s"] = seconds("exactpoly.sturm_root_count")
    m["exactpoly.eval_at.calls"] = counters.get("exactpoly.eval_at.calls", 0)
    m["cli.self_s"] = self_s("cli")
    m["trace.spans"] = len(trace["spans"]["name"])
    return m
