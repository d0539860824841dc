"""Spans around calls into etcontrol's public functions, kept in memory.

A span records its name, start, end, parent span and the operation it
belongs to; spans of one operation share that operation's id. Hooks attach
counts (iterations, steps, samples, rows) at the same boundaries, so that
rates are measured where the work happens. Nothing here edits the program:
``install`` rebinds public names in the namespaces that call them and
``uninstall`` restores them.
"""

import re
import statistics
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, id, parent, op, name, start):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.attrs = None

    def as_dict(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs or {},
        }


class Tracer:
    """Collects spans of one process; operations are the top-level spans."""

    def __init__(self):
        self.spans = []
        self.op_keys = {}
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name, key=None, **attrs):
        """Open a span; a span with a key starts a new operation.

        The key names the operation's input, so counts can be taken once per
        distinct input however many times a timed run repeats it.
        """
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.id if parent else None, None, name, 0.0)
        if key is not None:
            s.op = s.id
            self.op_keys[s.id] = key
        elif parent is not None:
            s.op = parent.op
        if attrs:
            s.attrs = dict(attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = _clock()
        try:
            yield s
        finally:
            s.end = _clock()
            self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """fn wrapped in a span; hook(args, kwargs, result, exc) returns attrs."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if hook is not None:
                        s.attrs = dict(s.attrs or {}, **hook(args, kwargs, None, exc))
                    raise
                if hook is not None:
                    s.attrs = dict(s.attrs or {}, **hook(args, kwargs, result, None))
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr, hook=None):
        """Rebind owner.attr to its traced version until uninstall().

        The span is named after the module that defines the function, as in
        "synthesis.synthesize", whichever namespace the call goes through.
        """
        fn = getattr(owner, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self.replace(owner, attr, self.wrap(fn, name, hook))

    def replace(self, owner, attr, replacement):
        """Rebind owner.attr to replacement until uninstall()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self):
        return {
            "spans": [s.as_dict() for s in self.spans],
            "op_keys": {str(k): v for k, v in self.op_keys.items()},
        }


# Hooks: counts taken from a call's arguments and result.


def iterations_hook(args, kwargs, result, exc):
    if exc is not None:
        iterations = getattr(exc, "iterations", None)
        return {"failed": type(exc).__name__, "iterations": iterations}
    return {"iterations": int(result.iterations)}


def compare_hook(args, kwargs, result, exc):
    if exc is not None:
        return {"failed": type(exc).__name__}
    return {
        "steps": result.periodic.n_steps + result.event.n_steps,
        "event_tx": int(result.event.transmissions),
        "periodic_tx": int(result.periodic.transmissions),
    }


def simulate_hook(args, kwargs, result, exc):
    if exc is not None:
        return {"failed": type(exc).__name__}
    return {"steps": result.n_steps}


_AUDIT_NOTE = re.compile(r"(\d+) steps audited, (\d+) skipped")


def dissipation_hook(args, kwargs, result, exc):
    trace = args[0] if args else kwargs["trace"]
    attrs = {"steps": trace.n_steps}
    if exc is not None:
        return dict(attrs, failed=type(exc).__name__)
    match = _AUDIT_NOTE.search(result.note)
    if match:
        attrs.update(audited=int(match.group(1)), skipped=int(match.group(2)))
    return attrs


def campaign_hook(args, kwargs, result, exc):
    return {"samples": int(kwargs.get("samples", args[0] if args else 1000))}


def csv_hook(args, kwargs, result, exc):
    trace = args[0] if args else kwargs["trace"]
    return {"rows": int(trace.states.shape[0])}


# Per-layer metrics derived from the spans.


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def _scaled(spans, factor):
    """Copies of the spans with times stretched to the reference host speed.

    Each span keeps its start; its duration is multiplied by the factor for
    its own interval, so self times scale with the span that owns them.
    """
    out = []
    for s in spans:
        length = (s["end"] - s["start"]) * factor(s["start"], s["end"])
        out.append(dict(s, end=s["start"] + length))
    return out


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """The q-th percentile (inclusive method); 0.0 for no values."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


GAIN_SPANS = (
    "synthesis.feedback_gain",
    "synthesis.virtual_gain",
    "synthesis.error_weight",
    "synthesis.decay_matrix",
    "synthesis.trigger_coefficient",
)
CHECK_SPANS = (
    "verification.check_inversion_identity",
    "verification.check_cross_term_bound",
    "verification.check_loop_energy_bound",
)


def layer_metrics(dump, factor):
    """The per-layer metrics of one traced run (import times come separately).

    Times aggregate every span of the run, warm-up included, scaled by
    factor(start, end) to the reference host speed. Counts are taken once
    per distinct operation key, so they repeat exactly when the inputs
    repeat, however many passes the timed run made.
    """
    spans = _scaled(dump["spans"], factor)
    keys = {int(k): v for k, v in dump["op_keys"].items()}
    first_op = {}
    for op, key in sorted(keys.items()):
        first_op.setdefault(key, op)
    counted = set(first_op.values())
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    def counted_attr(names, attr):
        return sum(
            s["attrs"].get(attr) or 0
            for name in names
            for s in by_name.get(name, [])
            if s["op"] in counted
        )

    def per_parent_sum(names):
        sums = {}
        for name in names:
            for s in by_name.get(name, []):
                sums[s["parent"]] = sums.get(s["parent"], 0.0) + s["end"] - s["start"]
        return list(sums.values())

    def rate_us(names, attr):
        total = sum(s["end"] - s["start"] for n in names for s in by_name.get(n, []))
        units = sum(s["attrs"].get(attr) or 0 for n in names for s in by_name.get(n, []))
        return 1e6 * total / units if units else 0.0

    synth = by_name.get("synthesis.synthesize", [])
    riccati_ms = sorted(1e3 * selfs[s["id"]] for s in synth)
    solves = synth + by_name.get("synthesis.synthesize_matched", [])
    counted_solves = [s for s in solves if s["op"] in counted]
    iterations = sorted(s["attrs"].get("iterations") or 0 for s in counted_solves)

    sim_names = ("simulation.simulate", "simulation.compare_policies")
    sim_self = sum(selfs[s["id"]] for n in sim_names for s in by_name.get(n, []))
    sim_steps = sum(s["attrs"].get("steps") or 0 for n in sim_names for s in by_name.get(n, []))
    audited = counted_attr(["verification.check_dissipation"], "audited")
    skipped = counted_attr(["verification.check_dissipation"], "skipped")
    periodic_tx = counted_attr(["simulation.compare_policies"], "periodic_tx")
    report_evals = sum(s["attrs"].get("evals") or 0 for s in by_name.get("synthesis.feasibility_report", []))
    report_s = sum(durations("synthesis.feasibility_report"))

    return {
        "config.load_ms": 1e3 * median(durations("config.load_config")),
        "synthesis.riccati_ms_p50": quantile(riccati_ms, 50),
        "synthesis.riccati_ms_p90": quantile(riccati_ms, 90),
        "synthesis.riccati_iterations_median": median(iterations),
        "synthesis.riccati_iterations_max": max(iterations, default=0),
        "synthesis.riccati_failures": sum(1 for s in counted_solves if s["attrs"].get("failed")),
        "synthesis.gains_ms": 1e3 * median(per_parent_sum(GAIN_SPANS)),
        "synthesis.report_ms": 1e3 * median(durations("synthesis.feasibility_report")),
        "synthesis.report_box_evals": counted_attr(["synthesis.feasibility_report"], "evals"),
        "synthesis.report_us_per_box_eval": 1e6 * report_s / report_evals if report_evals else 0.0,
        "simulation.realize_ms": 1e3 * median(durations("simulation.realize")),
        "simulation.step_us": 1e6 * sim_self / sim_steps if sim_steps else 0.0,
        "simulation.event_tx_ratio": (
            counted_attr(["simulation.compare_policies"], "event_tx") / periodic_tx
            if periodic_tx
            else 0.0
        ),
        "verification.dissipation_us_per_step": rate_us(["verification.check_dissipation"], "steps"),
        "verification.dissipation_skipped_ratio": (
            skipped / (audited + skipped) if audited + skipped else 0.0
        ),
        "verification.checks_ms": 1e3 * median(per_parent_sum(CHECK_SPANS)),
        "verification.identity_campaign_us_per_sample": rate_us(
            ["verification.identity_campaign"], "samples"
        ),
        "verification.cross_term_campaign_us_per_sample": rate_us(
            ["verification.cross_term_campaign"], "samples"
        ),
        "verification.campaign_samples": counted_attr(
            ["verification.identity_campaign", "verification.cross_term_campaign"], "samples"
        ),
        "cli.artifact_write_ms": 1e3 * median([selfs[s["id"]] for s in by_name.get("cli.main", [])]),
        "cli.write_trace_csv_us_per_row": rate_us(["cli.write_trace_csv"], "rows"),
    }
