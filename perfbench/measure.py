"""Pass bookkeeping and span tracing for the benchmark.

A *pass* runs one workload body once.  It times the body sections and
each operation, collects correctness checks and accuracy values, and,
when tracing, records spans around calls into the library's layers.

Spans are recorded from outside the library: each public function is
replaced, for the duration of a traced pass, by a wrapper on the name
the *calling* module holds (``profile.py`` does ``from .kernel import
convolve``, so the kernel scan is wrapped as ``semifront.profile.convolve``;
wrapping only ``semifront.kernel.convolve`` would record nothing).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import resource
import time
from collections import Counter, defaultdict

# span name -> "module:attribute" binding sites that hold the function.
# Sites inside the defining module catch the module's own internal calls
# and the benchmark's calls, which always go through module attributes.
BINDINGS = {
    "kernel.convolve": ["semifront.profile:convolve"],
    "kernel.convolve_at_offset": ["semifront.profile:convolve_at_offset"],
    "kernel.exp_integral_right": ["semifront.profile:exp_integral_right"],
    "kernel.make_kernel": ["semifront.profile:make_kernel"],
    "kernel.pl_exp_integral": ["semifront.verify:pl_exp_integral"],
    "profile.solve_profile": [
        "semifront.profile:solve_profile",
        "semifront.verify:solve_profile",
        "semifront.cli:solve_profile",
    ],
    "chareq.real_roots": ["semifront.chareq:real_roots", "semifront.profile:real_roots"],
    "chareq.chi_dz": ["semifront.profile:chi_dz"],
    "chareq.critical_speed": ["semifront.chareq:critical_speed", "semifront.cli:critical_speed"],
    "chareq.analyze_speed": ["semifront.chareq:analyze_speed", "semifront.cli:analyze_speed"],
    "chareq.dominance_check": ["semifront.chareq:dominance_check"],
    "chareq.count_zeros_rect": [
        "semifront.chareq:count_zeros_rect",
        "semifront.cli:count_zeros_rect",
    ],
    "asymptotics.fit_decay": ["semifront.asymptotics:fit_decay", "semifront.cli:fit_decay"],
    "asymptotics.detect_oscillation": [
        "semifront.asymptotics:detect_oscillation",
        "semifront.cli:detect_oscillation",
    ],
    "verify.verify_model": ["semifront.verify:verify_model", "semifront.cli:verify_model"],
    "verify.diagnostics_Q": ["semifront.verify:diagnostics_Q", "semifront.cli:diagnostics_Q"],
    "verify.align_profiles": ["semifront.verify:align_profiles"],
    "verify.uniqueness_harness": ["semifront.verify:uniqueness_harness"],
    "evolution.front_speed": ["semifront.evolution:front_speed", "semifront.cli:front_speed"],
    "evolution.moving_frame_gap": [
        "semifront.evolution:moving_frame_gap",
        "semifront.cli:moving_frame_gap",
    ],
}

# the grid argument's position, for the node counts of the kernel scans
_GRID_ARG = {"kernel.convolve": 1, "kernel.convolve_at_offset": 1, "kernel.exp_integral_right": 0}


class Tracer:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent, op_id]``.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``op_id`` the operation the span ran under.  ``counts`` holds exact
    counts taken at the same boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        grid_arg = _GRID_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if grid_arg is not None:
                self.counts["kernel.nodes"] += len(args[grid_arg])
            elif name == "profile.solve_profile":
                self.counts["profile.iterations"] += out.iterations
                self.counts["profile.nodes"] += out.t.size
            return out

        return traced

    def graft(self, child: dict) -> None:
        """Adopt the spans and counts a child process recorded, under the open span.

        perf_counter_ns reads the system-wide monotonic clock, so the
        child's timestamps share the parent's time base.
        """
        base, parent = len(self.spans), self._stack[-1]
        for name, start, end, p, _ in child["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else base + p, self.op_id])
        self.counts.update(child["counts"])

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding site for the duration of the block."""
        saved = []
        try:
            for name, sites in BINDINGS.items():
                for mod_name, attr in (site.split(":") for site in sites):
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(name, fn))
            evo = importlib.import_module("semifront.evolution").EvolutionState
            step = evo.step
            saved.append((evo, "step", step))
            counts = self.counts

            def counted_step(state):
                step(state)
                counts["evolution.cell_steps"] += state.x.size

            evo.step = counted_step
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    def traced_model(self, m):
        """The model with its pointwise reaction wrapped as ``model.f_pointwise``."""
        return dataclasses.replace(m, f_pointwise=self.wrap("model.f_pointwise", m.f_pointwise))


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def _cpu_time() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    value: object
    limit: object
    op: int


class Pass:
    """One execution of a workload body.

    ``variant`` picks which of the workload's input variants the pass
    runs (see ``workloads.uniqueness_run``); passes of one variant run
    the same inputs.  ``body_wall``/``body_cpu`` add up the timed
    sections; ``op_walls``/``op_cpus`` hold one latency and one CPU time
    per operation, in the order the body runs them; ``accuracy`` keeps
    the largest value seen per accuracy metric; ``exact`` holds counts
    that must repeat exactly between passes of one variant.
    """

    def __init__(self, tracer: Tracer | None, first_op: int, variant: int = 0):
        self.tracer = tracer
        self.variant = variant
        self.body_wall = 0.0
        self.body_cpu = 0.0
        self.op_walls: list[float] = []
        self.op_cpus: list[float] = []
        self.checks: list[Check] = []
        self.accuracy: dict[str, float] = {}
        self.exact: Counter = Counter()
        self.next_op = first_op
        self.last_op = first_op

    def run(self, fn, *args, op: bool = True, **kwargs):
        """Time ``fn`` as a body section and, with ``op``, as one operation.

        CPU time counts this process and the subprocesses it waited for.
        An exception becomes a failed check and the result is None, so a
        failing operation is counted instead of ending the run.
        """
        w0, c0 = time.perf_counter(), _cpu_time()
        try:
            if op:
                with self.op():
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is reported
            self.check(f"{getattr(fn, '__name__', 'operation')} raised", False, repr(exc))
            return None
        finally:
            self.body_wall += time.perf_counter() - w0
            self.body_cpu += _cpu_time() - c0

    @contextlib.contextmanager
    def op(self):
        """One operation: a latency sample, and a span when tracing."""
        self.last_op = self.next_op
        self.next_op += 1
        tr = self.tracer
        if tr is not None:
            tr.op_id = self.last_op
            span = tr.open("bench.op")
        w0, c0 = time.perf_counter(), _cpu_time()
        try:
            yield
        finally:
            self.op_walls.append(time.perf_counter() - w0)
            self.op_cpus.append(_cpu_time() - c0)
            if tr is not None:
                tr.close(span)
                tr.op_id = None

    def model(self, m):
        return m if self.tracer is None else self.tracer.traced_model(m)

    def check(self, name: str, ok: bool, value=None, limit=None) -> bool:
        self.checks.append(Check(name, bool(ok), value, limit, self.last_op))
        return bool(ok)

    def record(self, name: str, value: float) -> None:
        self.accuracy[name] = max(value, self.accuracy.get(name, value))

    def solution(self, sol) -> None:
        """Convergence check, accuracy and exact counts of one profile solve."""
        self.check("profile converged", sol.converged, sol.residual, "<= 2*tol")
        self.record("residual_max", sol.residual)
        self.record("drift_max", sol.drift)
        self.exact["profile.iterations"] += sol.iterations
        self.exact["profile.nodes"] += sol.t.size


@dataclasses.dataclass
class Summary:
    """Span totals of one traced pass: per span name, and self time per layer."""

    calls: Counter
    seconds: Counter
    layer_self: Counter
    wall: float
    coverage_err: float


def summarize(tr: Tracer) -> Summary:
    """Fold the spans of one pass; the pass span must be the first span.

    Self times of all spans add up to the pass span's duration exactly
    when every span nests inside its parent without overlapping a
    sibling; ``coverage_err`` is the relative mismatch.
    """
    selfs = self_times(tr.spans)
    calls, seconds, layer_self = Counter(), Counter(), Counter()
    for (name, start, end, _, _), own in zip(tr.spans, selfs):
        calls[name] += 1
        seconds[name] += (end - start) / 1e9
        layer_self[name.split(".")[0]] += own / 1e9
    wall = (tr.spans[0][2] - tr.spans[0][1]) / 1e9
    return Summary(calls, seconds, layer_self, wall, abs(sum(selfs) / 1e9 - wall) / wall)
