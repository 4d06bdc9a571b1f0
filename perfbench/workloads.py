"""The benchmark workloads: inputs from a seed, and one pass each.

Every workload is a closed loop with one caller: each operation starts
after the previous one has finished.  ``inputs(seed)`` builds everything
a pass needs (this is the set-up that ``setup_s`` times), and
``run(inputs, ps)`` executes one pass on a :class:`measure.Pass`,
checking every output against the acceptance gate's tolerances.

The library is always called through module attributes
(``profile.solve_profile``), never through names bound at import, so the
tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from semifront import chareq, model, profile, verify

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# acceptance-gate tolerances (tests/test_acceptance.py)
UNIQ_DIST_MAX = 1e-3  # criterion 09
SPEED_REL_MAX = 0.02  # criterion 12
FRAME_GAP_MAX = 5e-2  # criterion 12


def child_env() -> dict:
    """Environment for subprocesses: this checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------ uniqueness
# Criterion 09's experiment at its tighter tolerance: warm starts on long
# grids, dominated by Anderson mixing and the pinned map's offset scans.

UNIQ_OPTS = {"tol": 1e-9, "accel_iter": 3000, "t_plus": 120.0}

# The cost of the solve from the noise-built guess depends on the harness
# seed: on nicholson it takes 0.35-0.7 s for most seeds but 1-2.3 s for
# about one in six.  One harness seed per run would make a run's time
# depend on which kind its seed drew, so each run cycles through this many
# harness seeds, the workload seed and the ones after it, and its medians
# cover several draws.
UNIQ_VARIANTS = 8


def uniqueness_inputs(seed: int) -> dict:
    nich = model.builtin_nicholson(1.0, 2.0)
    c_nich = chareq.critical_speed(nich)[0] + 0.5
    return {
        "variants": UNIQ_VARIANTS,
        "harness_seeds": [seed + j for j in range(UNIQ_VARIANTS)],
        "opts": profile.SolverOptions(**UNIQ_OPTS),
        "cases": [("kpp", model.builtin_kpp(2.0), 2.5), ("nicholson", nich, c_nich)],
    }


def uniqueness_run(inp: dict, ps) -> None:
    harness_solve = verify.solve_profile  # the harness's own binding

    def solve_op(*args, **kwargs):
        with ps.op():
            sol = harness_solve(*args, **kwargs)
        ps.solution(sol)
        return sol

    verify.solve_profile = solve_op
    try:
        for label, m, c in inp["cases"]:
            excluded: list[int] = []
            pairs = ps.run(
                verify.uniqueness_harness, ps.model(m), c, 5,
                opts=inp["opts"], seed=inp["harness_seeds"][ps.variant],
                on_exclude=excluded.append, op=False,
            )
            if pairs is None:
                continue
            ps.exact["verify.excluded_seeds"] += len(excluded)
            dist = max((d for _, d in pairs), default=math.inf)
            ps.check(f"uniqueness {label}: aligned pairs", len(pairs) == 10, len(pairs), 10)
            ps.check(f"uniqueness {label}: uniq_dist_max", dist <= UNIQ_DIST_MAX, dist, UNIQ_DIST_MAX)
            ps.record("uniq_dist_max", dist)
    finally:
        verify.solve_profile = harness_solve


# ------------------------------------------------------------------- cli
# The README's five subcommands, each in a fresh interpreter: import time,
# argument handling and file output are what this workload adds.

CLI_OUT = OUT / "cli"


def cli_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def u(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.3f}"

    h, c = u(0.5, 2.0), u(2.25, 3.0)
    return {"env": child_env(), "commands": [
        ["speed", "--model", "kpp", "--h", h, "--c", c],
        ["zeros", "--model", "kpp", "--h", h, "--c", c],
        ["profile", "--model", "kpp", "--h", u(1.0, 2.0), "--c", u(2.25, 3.0), "--svg"],
        ["verify", "--model", "may", "--h", u(0.0, 2.0), "--p", u(1.5, 3.0), "--z", "2", "--k", "1"],
        ["evolve", "--model", "kpp", "--h", u(0.75, 1.25), "--c", u(2.4, 2.8), "--compare"],
    ]}


def _cli_op(argv: list, ps, env: dict):
    outdir = CLI_OUT / argv[0]
    shutil.rmtree(outdir, ignore_errors=True)
    rel = str(outdir.relative_to(ROOT))
    if ps.tracer is None:
        cmd = [sys.executable, "-m", "semifront.cli", *argv, "--outdir", rel]
    else:
        spans = OUT / "cli-spans.json"
        spans.unlink(missing_ok=True)  # a child that dies must not leave a stale file behind
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "cli", str(spans),
               *argv, "--outdir", rel]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if ps.tracer is not None:
        ps.tracer.graft(json.loads(spans.read_text()))
    return proc, outdir


def _cli_check(ps, cmd: str, rep: dict) -> None:
    if cmd == "speed":
        ps.check("cli speed: dominance_ok", rep["dominance_ok"] is True, rep["dominance_ok"], True)
    elif cmd == "zeros":
        ps.check("cli zeros: count", rep["count"] == 2, rep["count"], 2)
    elif cmd == "profile":
        ps.check("cli profile: converged", rep["converged"] is True, rep["residual"], "<= 2*tol")
        ps.record("residual_max", rep["residual"])
        ps.record("drift_max", rep["drift"])
        ps.exact["profile.iterations"] += rep["iterations"]
    elif cmd == "verify":
        ps.check("cli verify: all_passed", rep["all_passed"] is True, rep["all_passed"], True)
    elif cmd == "evolve":
        rel, gap = abs(rep["rel_error"]), rep["profile_gap"]["sup"]
        ps.check("cli evolve: speed_rel_err", rel <= SPEED_REL_MAX, rel, SPEED_REL_MAX)
        ps.check("cli evolve: frame_gap", gap <= FRAME_GAP_MAX, gap, FRAME_GAP_MAX)
        ps.record("speed_rel_err", rel)
        ps.record("frame_gap", gap)
        ps.exact["evolution.clamped"] += rep["clamped"]


def cli_run(inp: dict, ps) -> None:
    for argv in inp["commands"]:
        out = ps.run(_cli_op, argv, ps, inp["env"])
        if out is None:
            continue
        proc, outdir = out
        cmd = argv[0]
        # README: every subcommand here exits 0 on success
        if not ps.check(f"cli {cmd}: exit code", proc.returncode == 0, proc.returncode, 0):
            print(proc.stderr, file=sys.stderr)
            continue
        try:
            rep = json.loads(proc.stdout)
            same = json.loads((outdir / f"{cmd}.json").read_text()) == rep
            ps.check(f"cli {cmd}: stdout matches {cmd}.json", same, same, True)
            _cli_check(ps, cmd, rep)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ps.check(f"cli {cmd}: JSON report parses", False, repr(exc))
            continue
        ps.exact["cli.bytes_written"] += sum(f.stat().st_size for f in outdir.iterdir())


WORKLOADS = {
    "uniqueness": (uniqueness_inputs, uniqueness_run),
    "cli": (cli_inputs, cli_run),
}
