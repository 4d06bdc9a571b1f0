"""Benchmark of the semifront package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/BENCHMARK.md): uniqueness, cli.
The run first times the set-up (a fresh interpreter importing semifront
and building the inputs) a few times, then repeats passes of the
workload on the seeded inputs for about S seconds.  Every output is
checked against the acceptance gate's tolerances.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate; the
per-layer metrics come from the traced passes and ``trace.overhead_frac``
compares the two kinds.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record (metadata, accuracy, checks, percentiles),
also written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import os

# Set before numpy loads, and inherited by every subprocess.  numpy and
# scipy each bundle an OpenBLAS whose default pool would add a spinning
# worker per library; with one thread the process uses one CPU and leaves
# the other of a 2-CPU machine to the system.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel.convolve.calls": "count",
    "kernel.convolve.s": "s",
    "kernel.convolve_at_offset.calls": "count",
    "kernel.convolve_at_offset.s": "s",
    "kernel.exp_integral_right.s": "s",
    "kernel.offset_per_map": "ratio",
    "kernel.ns_per_node": "ns",
    "profile.solves": "count",
    "profile.iterations": "count",
    "profile.s": "s",
    "profile.self_s": "s",
    "profile.nodes": "count",
    "profile.residual_max": "abs",
    "profile.drift_max": "abs",
    "chareq.real_roots.calls": "count",
    "chareq.real_roots.s": "s",
    "chareq.critical_speed.s": "s",
    "chareq.dominance_check.s": "s",
    "chareq.count_zeros_rect.s": "s",
    "model.f_pointwise.calls": "count",
    "model.f_pointwise.s": "s",
    "asymptotics.fit_decay.s": "s",
    "verify.verify_model.s": "s",
    "verify.diagnostics_Q.s": "s",
    "verify.align_profiles.s": "s",
    "verify.excluded_seeds": "count",
    "evolution.front_speed.s": "s",
    "evolution.cell_steps": "count",
    "evolution.ns_per_cell_step": "ns",
    "evolution.moving_frame_gap.s": "s",
    "evolution.clamped": "count",
    "cli.import_s": "s",
    "cli.run_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def _blas_threads() -> int | None:
    """Thread count that numpy's bundled OpenBLAS reports, if it can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return None


def _digest(top: str) -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / top).rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((int(ln.split()[1]) for ln in Path("/proc/self/status").read_text().splitlines()
                    if ln.startswith("Threads:")), None)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": _digest("src"),
        "bench_sha256": _digest("perfbench"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "process_threads": threads,
    }


def measure_setup(workload: str, seed: int, env: dict) -> tuple[list, list]:
    """Fresh interpreters timed from spawn until the inputs are built."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "probe", workload, str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        walls.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or not line:
            sys.exit(f"perfbench: set-up probe for {workload} failed (exit {proc.returncode})")
        imports.append(json.loads(line)["import_s"])
    return walls, imports


def run_passes(workload: str, inputs, seconds: float, trace: bool) -> list:
    """Repeat passes for about ``seconds``; with tracing, order U T T U ...

    Passes cycle through the workload's input variants.  With tracing
    each variant runs once untraced and once traced, back to back, so
    that the overhead compares like with like.  A run keeps going until
    it has more than ten operations, but never past twice ``seconds``.
    """
    from measure import Pass, Tracer
    from workloads import WORKLOADS

    body = WORKLOADS[workload][1]
    variants = inputs.get("variants", 1)
    passes, next_op, t_start = [], 0, time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        ops = sum(len(p[0].op_walls) for p in passes)
        if len(passes) >= (3 if trace else 2) and (ops > 10 or elapsed > 2 * seconds):
            if elapsed + statistics.median(p[2] for p in passes) > seconds:
                break
        tr = Tracer() if trace and "UTTU"[len(passes) % 4] == "T" else None
        ps = Pass(tr, next_op, (len(passes) // 2 if trace else len(passes)) % variants)
        gc.collect()
        t0 = time.perf_counter()
        if tr is None:
            body(inputs, ps)
        else:
            with tr.installed(), tr.span("bench.pass"):
                body(inputs, ps)
        passes.append((ps, tr, time.perf_counter() - t0))
        next_op = ps.next_op
    return passes


def by_slot(series: list) -> list:
    """Each operation's median over the passes, by its place in the pass.

    Every pass runs its operations in the same order, so the k-th
    operation of each pass is the same call.  A median per place drops
    the passes a busy spell of the machine slowed down, place by place.
    """
    slots = defaultdict(list)
    for xs in series:
        for k, x in enumerate(xs):
            slots[k].append(x)
    return [statistics.median(slots[k]) for k in sorted(slots)]


def pass_estimate(plain: list, ops: str, body: str) -> tuple:
    """A pass's time: per-operation medians plus the median time between them."""
    per_op = by_slot([getattr(ps, ops) for ps in plain])
    between = statistics.median(getattr(ps, body) - sum(getattr(ps, ops)) for ps in plain)
    return sum(per_op) + between, per_op


def op_tail(samples: list) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    xs, n = sorted(samples), len(samples)
    if n <= 10:  # no such percentile: report the maximum, and say so
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "n": n}
    return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "n": n}


def layer_metrics(s, tr, ps, import_s: float) -> dict:
    c, t, k = s.calls, s.seconds, tr.counts
    scan_s = t["kernel.convolve"] + t["kernel.convolve_at_offset"] + t["kernel.exp_integral_right"]
    solves = c["profile.solve_profile"]
    return {
        "kernel.convolve.calls": c["kernel.convolve"],
        "kernel.convolve.s": t["kernel.convolve"],
        "kernel.convolve_at_offset.calls": c["kernel.convolve_at_offset"],
        "kernel.convolve_at_offset.s": t["kernel.convolve_at_offset"],
        "kernel.exp_integral_right.s": t["kernel.exp_integral_right"],
        "kernel.offset_per_map": c["kernel.convolve_at_offset"] / c["kernel.convolve"] if c["kernel.convolve"] else 0.0,
        "kernel.ns_per_node": 1e9 * scan_s / k["kernel.nodes"] if k["kernel.nodes"] else 0.0,
        "profile.solves": solves,
        "profile.iterations": k["profile.iterations"],
        "profile.s": t["profile.solve_profile"],
        "profile.self_s": s.layer_self["profile"],
        "profile.nodes": k["profile.nodes"] / solves if solves else 0.0,
        "profile.residual_max": ps.accuracy.get("residual_max", 0.0),
        "profile.drift_max": ps.accuracy.get("drift_max", 0.0),
        "chareq.real_roots.calls": c["chareq.real_roots"],
        "chareq.real_roots.s": t["chareq.real_roots"],
        "chareq.critical_speed.s": t["chareq.critical_speed"],
        "chareq.dominance_check.s": t["chareq.dominance_check"],
        "chareq.count_zeros_rect.s": t["chareq.count_zeros_rect"],
        "model.f_pointwise.calls": c["model.f_pointwise"],
        "model.f_pointwise.s": t["model.f_pointwise"],
        "asymptotics.fit_decay.s": t["asymptotics.fit_decay"],
        "verify.verify_model.s": t["verify.verify_model"],
        "verify.diagnostics_Q.s": t["verify.diagnostics_Q"],
        "verify.align_profiles.s": t["verify.align_profiles"],
        "verify.excluded_seeds": ps.exact["verify.excluded_seeds"],
        "evolution.front_speed.s": t["evolution.front_speed"],
        "evolution.cell_steps": k["evolution.cell_steps"],
        "evolution.ns_per_cell_step": (
            1e9 * t["evolution.front_speed"] / k["evolution.cell_steps"] if k["evolution.cell_steps"] else 0.0
        ),
        "evolution.moving_frame_gap.s": t["evolution.moving_frame_gap"],
        "evolution.clamped": ps.exact["evolution.clamped"],
        "cli.import_s": import_s,
        "cli.run_s": t["cli.main"],
        "cli.bytes_written": ps.exact["cli.bytes_written"],
    }


def _exact_counts(s, tr) -> dict:
    return {**{f"calls:{n}": v for n, v in sorted(s.calls.items())}, **dict(sorted(tr.counts.items()))}


def _fingerprint_guard(meta: dict, fp: dict, first_op: int, checks: list) -> None:
    """Compare this run's exact values with an earlier run of the same seed.

    Keyed by the digests of the program and the benchmark and by the
    platform, so a change to any of them starts a fresh record instead of
    reporting a mismatch.
    """
    from measure import Check

    key = hashlib.sha256(json.dumps([meta[k] for k in (
        "src_sha256", "bench_sha256", "cpu_model", "numpy", "scipy", "blas_threads")]).encode()).hexdigest()[:16]
    path = OUT / "fingerprints" / f"{meta['workload']}-s{meta['seed']}-{key}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    for part, value in fp.items():
        if part in old and old[part] != value:
            diff = {k: (old[part].get(k), v) for k, v in value.items() if old[part].get(k) != v}
            checks.append(Check(f"determinism across runs: {part}", False, diff, "identical", first_op))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**old, **fp}, sort_keys=True))
    tmp.replace(path)


def write_spans(meta: dict, passes: list) -> Path:
    path = OUT / "spans" / f"{meta['workload']}-s{meta['seed']}.tsv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\top\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for i, (_, tr, _) in enumerate(passes):
            if tr is not None:
                for j, (name, start, end, parent, op) in enumerate(tr.spans):
                    fh.write(f"{i}\t{op}\t{j}\t{parent}\t{name}\t{start}\t{end}\n")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["uniqueness", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src/semifront/__init__.py").is_file():
        sys.exit("perfbench: src/semifront/__init__.py is missing; run from a semifront checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import semifront
    from measure import Check, summarize
    from workloads import WORKLOADS, child_env

    if not Path(semifront.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported semifront from {semifront.__file__}, not from this checkout")

    meta = metadata(args.workload, args.seed, args.trace)
    setup_walls, import_walls = measure_setup(args.workload, args.seed, child_env())
    inputs = WORKLOADS[args.workload][0](args.seed)
    passes = run_passes(args.workload, inputs, args.seconds, bool(args.trace))

    checks = [c for ps, _, _ in passes for c in ps.checks]
    plain = [ps for ps, tr, _ in passes if tr is None]
    traced = [(ps, tr, summarize(tr)) for ps, tr, _ in passes if tr is not None]

    # determinism: passes of one variant ran the same inputs, so their
    # exact values repeat
    fp = {}
    for ps, _, _ in passes:
        got = {"accuracy": ps.accuracy, "exact": dict(sorted(ps.exact.items()))}
        want = fp.setdefault(f"variant{ps.variant}", got)
        if got != want:
            checks.append(Check(f"determinism between passes of variant {ps.variant}", False,
                                got, want, ps.last_op))
    if traced:
        for ps, tr, s in traced:
            got = _exact_counts(s, tr)
            want = fp.setdefault(f"variant{ps.variant}.layer_counts", got)
            if got != want:
                checks.append(Check(f"determinism between traced passes of variant {ps.variant}",
                                    False, got, want, ps.last_op))
        for ps, tr, s in traced:
            checks.append(Check("trace coverage", s.coverage_err <= 1e-9, s.coverage_err, 1e-9, ps.last_op))
    _fingerprint_guard(meta, fp, passes[0][0].last_op, checks)

    attempted = sum(len(ps.op_walls) for ps, _, _ in passes)
    failed_ops = {c.op for c in checks if not c.ok}
    ops = [w for ps in plain for w in ps.op_walls]
    wall, op_wall = pass_estimate(plain, "op_walls", "body_wall")
    cpu, _ = pass_estimate(plain, "op_cpus", "body_cpu")
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    detail = {
        "setup_s": {"value": statistics.median(setup_walls), "samples": setup_walls},
        "wall_s": {"value": wall, "pass_samples": [ps.body_wall for ps in plain]},
        "cpu_s": {"value": cpu, "pass_samples": [ps.body_cpu for ps in plain]},
        "op_p50_s": {"value": statistics.median(op_wall), "per_op": op_wall, "n": len(ops)},
        "op_tail_s": {"value": max(op_wall), "pooled": op_tail(ops)},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0},
    }
    record = {
        "meta": meta,
        "passes": [{"traced": tr is not None, "variant": ps.variant, "body_wall": ps.body_wall,
                    "ops": len(ps.op_walls)}
                   for ps, tr, _ in passes],
        "end_to_end": {k: {**v, "unit": END_TO_END[k]} for k, v in detail.items()},
        "accuracy": {k: max(ps.accuracy[k] for ps, _, _ in passes if k in ps.accuracy)
                     for k in passes[0][0].accuracy},
        "exact": fp,
        "failed_frac": len(failed_ops) / attempted,
        "checks": {"total": len(checks), "failed": [vars(c) for c in checks if not c.ok]},
    }
    if traced:
        per_pass = [layer_metrics(s, tr, ps, statistics.median(import_walls)) for ps, tr, s in traced]
        # counts repeat exactly (checked above); times are medians over the traced passes
        layers = {k: per_pass[0][k] if PER_LAYER[k] in ("count", "bytes") else
                  statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        # traced / untraced wall of the pairs run back to back (U T, T U, ...),
        # which are passes of one variant
        walls = defaultdict(dict)
        for i, (ps, tr, _) in enumerate(passes):
            walls[i // 2][tr is not None] = ps.body_wall
        layers["trace.overhead_frac"] = statistics.median(
            w[True] / w[False] for w in walls.values() if len(w) == 2) - 1.0
        s0 = traced[0][2]
        record["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
        record["layer_self_s"] = {**{k: s0.layer_self[k] for k in sorted(s0.layer_self)}, "pass_wall": s0.wall}
        record["spans_file"] = str(write_spans(meta, passes).relative_to(ROOT))

    for c in checks:
        if not c.ok:
            line = f"FAIL {c.name}: measured {c.value!r} (limit {c.limit!r}), operation {c.op}"
            print(line)
            print(line, file=sys.stderr)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    rec_text = json.dumps(record, sort_keys=True, default=str)
    (OUT / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(rec_text + "\n")
    print(rec_text)

    names = PER_LAYER if args.trace else END_TO_END
    values = record["per_layer"] if args.trace else record["end_to_end"]
    result = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": values[k]["value"], "unit": unit} for k, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
