"""Spans and call counters for the traced run (``--trace 1``).

The tracer wraps riskbid's public functions from outside: it replaces
each one, in every riskbid module namespace (and module-level dispatch
dict) that holds it, with a wrapper that records a span or bumps a
counter, and puts the originals back when the traced run ends.  Nothing
in the library changes, and the untraced run pays nothing.

A span is ``(id, op, name, start, end, parent, work)``: ``op`` is the
benchmark operation it belongs to, ``parent`` the span that was open
when it started, ``work`` a size taken from the result (grid points,
Monte Carlo rounds).  Hot leaf functions (hazard, utility evaluations,
spline lookups, sampling) only add to counters and total times, since a
span per call would cost more than the call.
"""

import contextlib
import itertools
import statistics
import sys
import time
from collections import Counter

import riskbid
import riskbid.cli  # noqa: F401  (wrappers patch its namespace)
from riskbid.fpa import EquilibriumSolution
from riskbid.outcomes import WinPayoff
from riskbid.utility import Utility
from riskbid.values import ValueModel

_clock = time.perf_counter


class NullTracer:
    """Stands in for the tracer in untraced runs: records nothing."""

    op = None

    @contextlib.contextmanager
    def span(self, name, work=0.0):
        yield

    def note_max(self, name, value):
        pass

    def add(self, name, value):
        pass


class Tracer(NullTracer):
    """Spans, counters and maxima of one traced run, plus the wrappers that feed them."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seconds = Counter()
        self.sums = Counter()
        self.maxima = {}
        self._ids = itertools.count()
        self._stack = []
        self._open = Counter()
        self._undo = []

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, work=0.0):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._open[name] += 1
        rec = [sid, self.op, name, _clock(), None, parent, work]
        try:
            yield rec
        finally:
            rec[4] = _clock()
            self._stack.pop()
            self._open[name] -= 1
            self.spans.append(tuple(rec))

    def note_max(self, name, value):
        value = float(value)
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def add(self, name, value):
        self.sums[name] += value

    def inside(self, name):
        return self._open[name] > 0

    # -- installing wrappers ------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "riskbid" or mod_name.startswith("riskbid.")):
                continue
            namespace = vars(mod)
            for key, val in list(namespace.items()):
                if val is original:
                    namespace[key] = wrapped
                    self._undo.append((namespace, key, original))
                elif isinstance(val, dict):
                    # dispatch tables such as the CLI's format -> solver map
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            val[dkey] = wrapped
                            self._undo.append((val, dkey, original))

    def wrap_span(self, module, attr, name, on_result=None):
        original = getattr(sys.modules[module], attr)
        tracer = self

        def wrapped(*args, **kwargs):
            with tracer.span(name) as rec:
                result = original(*args, **kwargs)
                if on_result is not None:
                    rec[6] = on_result(tracer, result)
                return result

        self._replace_everywhere(original, wrapped)

    def wrap_method(self, cls, attr, name, timed):
        original = cls.__dict__[attr]
        tracer = self
        if timed:
            def wrapped(*args, **kwargs):
                t0 = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.seconds[name] += _clock() - t0
                    tracer.counts[name] += 1
        else:
            def wrapped(*args, **kwargs):
                tracer.counts[name] += 1
                return original(*args, **kwargs)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._undo.clear()


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _fpa_solve_hook(tracer, sol):
    tracer.note_max("fpa.derivative_check_max", sol.derivative_check)
    return float(len(sol.grid))


def _spa_solve_hook(tracer, sol):
    tracer.note_max("spa.indiff_resid_max", max(sol.residuals))
    return float(len(sol.grid))


def _audit_hook(tracer, report):
    tracer.note_max("verification.audit_max_gain", report.max_gain)
    return 0.0


def _mc_hook(tracer, stats):
    return float(stats.rounds)


def _witness_hook(tracer, found):
    tracer.add("safety.witness_searched", 1)
    tracer.add("safety.witness_found", found is not None)
    return 0.0


def _pivotal_counter(tracer, original):
    def wrapped(*args, **kwargs):
        tracer.counts["spa.pivotal"] += 1
        if tracer.inside("spa.solve"):
            tracer.counts["spa.pivotal_in_solve"] += 1
        return original(*args, **kwargs)

    return wrapped


@contextlib.contextmanager
def installed():
    """Yield a Tracer whose wrappers are live until the block exits."""
    tr = Tracer()
    spans = [
        ("riskbid.fpa", "solve_fpa", "fpa.solve", _fpa_solve_hook),
        ("riskbid.fpa", "compare_risk_aversion_fpa", "fpa.compare", None),
        ("riskbid.spa", "solve_spa", "spa.solve", _spa_solve_hook),
        ("riskbid.spa", "compare_risk_aversion_spa", "spa.compare", None),
        ("riskbid.verification", "best_response_audit", "verification.audit", _audit_hook),
        ("riskbid.verification", "monte_carlo_auction", "verification.mc", _mc_hook),
        ("riskbid.safety", "is_safer", "safety.is_safer", None),
        ("riskbid.safety", "find_violation_witness", "safety.witness", _witness_hook),
        ("riskbid.safety", "fpa_higher_bid_safer", "safety.report", None),
        ("riskbid.safety", "spa_lower_bid_safer", "safety.report", None),
        ("riskbid.config", "build_scenario", "config.build", None),
        ("riskbid.cli", "main", "cli.main", None),
        ("riskbid.cli", "cmd_solve", "cli.solve", None),
        ("riskbid.cli", "cmd_audit", "cli.audit", None),
        ("riskbid.cli", "cmd_simulate", "cli.simulate", None),
    ]
    try:
        for module, attr, name, hook in spans:
            tr.wrap_span(module, attr, name, hook)
        tr.wrap_method(ValueModel, "hazard", "values.hazard", timed=True)
        tr.wrap_method(ValueModel, "sample", "values.sample", timed=True)
        tr.wrap_method(EquilibriumSolution, "bid_at", "fpa.bid_at", timed=True)
        for cls in _subclasses(Utility):
            for attr in ("value", "deriv"):
                if attr in cls.__dict__:
                    tr.wrap_method(cls, attr, f"utility.{attr}", timed=False)
        for cls in _subclasses(WinPayoff):
            if "sample" in cls.__dict__:
                tr.wrap_method(cls, "sample", "outcomes.sample", timed=True)
        original = riskbid.spa.pivotal_expectation
        tr._replace_everywhere(original, _pivotal_counter(tr, original))
        yield tr
    finally:
        tr.restore()


# ---------------------------------------------------------------------------
# per-layer table


#: name -> (unit, better); the order is the order of the printed table
LAYER_METRICS = {
    "fpa.solve_ms": ("ms", "lower"),
    "fpa.points_per_s": ("pt/s", "higher"),
    "fpa.compare_self_ms": ("ms", "lower"),
    "fpa.oracle_rel_err": ("1", "lower"),
    "fpa.derivative_check_max": ("1", "lower"),
    "fpa.bid_at_ms": ("ms", "lower"),
    "values.hazard_calls": ("count", "lower"),
    "values.hazard_ms": ("ms", "lower"),
    "values.sample_ms": ("ms", "lower"),
    "spa.solve_ms": ("ms", "lower"),
    "spa.points_per_s": ("pt/s", "higher"),
    "spa.compare_self_ms": ("ms", "lower"),
    "spa.pivotal_calls": ("count", "lower"),
    "spa.pivotal_calls_per_type": ("count", "lower"),
    "spa.indiff_resid_max": ("1", "lower"),
    "utility.value_calls": ("count", "lower"),
    "utility.deriv_calls": ("count", "lower"),
    "outcomes.sample_ms": ("ms", "lower"),
    "verification.audit_ms": ("ms", "lower"),
    "verification.audit_max_gain": ("util", "lower"),
    "verification.mc_ms": ("ms", "lower"),
    "verification.mc_rounds_per_s": ("rounds/s", "higher"),
    "verification.mc_max_z": ("SE", "lower"),
    "safety.is_safer_us": ("us", "lower"),
    "safety.is_safer_calls": ("count", "lower"),
    "safety.probe_ms": ("ms", "lower"),
    "safety.probe_evals_per_s": ("evals/s", "higher"),
    "safety.witness_ms": ("ms", "lower"),
    "safety.witness_found_ratio": ("found/searched", "higher"),
    "safety.report_us": ("us", "lower"),
    "config.build_ms": ("ms", "lower"),
    "cli.solve_ms": ("ms", "lower"),
    "cli.audit_ms": ("ms", "lower"),
    "cli.simulate_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_table(tr, n_ops, overhead_pct):
    """Per-layer metrics from one traced run of ``n_ops`` operations.

    Span metrics (``*.solve_ms``, ``*.audit_ms``, ``safety.*_us`` ...)
    are medians per call; leaf times and call counts are per operation.
    A layer the workload does not reach reads 0.
    """
    by_name, by_parent = {}, {}
    for span in tr.spans:
        by_name.setdefault(span[2], []).append(span)
        by_parent.setdefault(span[5], []).append(span)

    def dur(span):
        return span[4] - span[3]

    def self_time(span):
        return dur(span) - sum(dur(c) for c in by_parent.get(span[0], []))

    def med_ms(name, scale=1e3):
        return _median([dur(s) for s in by_name.get(name, [])]) * scale

    def self_ms(name):
        return _median([self_time(s) for s in by_name.get(name, [])]) * 1e3

    def rate(name):
        spans = by_name.get(name, [])
        return _ratio(sum(s[6] for s in spans), sum(dur(s) for s in spans))

    def per_op(value):
        return _ratio(value, n_ops)

    # CLI glue and artifact IO: self time of main and of the command it ran
    cli_self = [
        self_time(s) + sum(self_time(c) for c in by_parent.get(s[0], []) if c[2].startswith("cli."))
        for s in by_name.get("cli.main", [])
    ]

    values = {
        "fpa.solve_ms": med_ms("fpa.solve"),
        "fpa.points_per_s": rate("fpa.solve"),
        "fpa.compare_self_ms": self_ms("fpa.compare"),
        "fpa.oracle_rel_err": tr.maxima.get("fpa.oracle_rel_err", 0.0),
        "fpa.derivative_check_max": tr.maxima.get("fpa.derivative_check_max", 0.0),
        "fpa.bid_at_ms": per_op(tr.seconds["fpa.bid_at"]) * 1e3,
        "values.hazard_calls": per_op(tr.counts["values.hazard"]),
        "values.hazard_ms": per_op(tr.seconds["values.hazard"]) * 1e3,
        "values.sample_ms": per_op(tr.seconds["values.sample"]) * 1e3,
        "spa.solve_ms": med_ms("spa.solve"),
        "spa.points_per_s": rate("spa.solve"),
        "spa.compare_self_ms": self_ms("spa.compare"),
        "spa.pivotal_calls": per_op(tr.counts["spa.pivotal"]),
        "spa.pivotal_calls_per_type": _ratio(
            tr.counts["spa.pivotal_in_solve"], sum(s[6] for s in by_name.get("spa.solve", []))
        ),
        "spa.indiff_resid_max": tr.maxima.get("spa.indiff_resid_max", 0.0),
        "utility.value_calls": per_op(tr.counts["utility.value"]),
        "utility.deriv_calls": per_op(tr.counts["utility.deriv"]),
        "outcomes.sample_ms": per_op(tr.seconds["outcomes.sample"]) * 1e3,
        "verification.audit_ms": med_ms("verification.audit"),
        "verification.audit_max_gain": tr.maxima.get("verification.audit_max_gain", 0.0),
        "verification.mc_ms": med_ms("verification.mc"),
        "verification.mc_rounds_per_s": rate("verification.mc"),
        "verification.mc_max_z": tr.maxima.get("verification.mc_max_z", 0.0),
        "safety.is_safer_us": med_ms("safety.is_safer", 1e6),
        "safety.is_safer_calls": per_op(len(by_name.get("safety.is_safer", []))),
        "safety.probe_ms": med_ms("bench.probe"),
        "safety.probe_evals_per_s": rate("bench.probe"),
        "safety.witness_ms": med_ms("safety.witness"),
        "safety.witness_found_ratio": _ratio(
            tr.sums["safety.witness_found"], tr.sums["safety.witness_searched"]
        ),
        "safety.report_us": med_ms("safety.report", 1e6),
        "config.build_ms": med_ms("config.build"),
        "cli.solve_ms": med_ms("cli.solve"),
        "cli.audit_ms": med_ms("cli.audit"),
        "cli.simulate_ms": med_ms("cli.simulate"),
        "cli.self_ms": _median(cli_self) * 1e3,
        "cli.artifact_bytes": per_op(tr.sums["cli.artifact_bytes"]),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: (float(values[name]), unit) for name, (unit, _) in LAYER_METRICS.items()}
