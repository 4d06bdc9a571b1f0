"""Digests of what semifront computes, for checking that a change keeps it.

Run from any directory, on the checkout this file sits in:

    python3 tools/same_numbers.py

It prints SHA-256 digests, each over a fixed set of runs:

``harness``
    Criterion 09's uniqueness experiment in full: kpp h=2 at c = 2.5 and
    nicholson p=2 h=1 at c* + 0.5, tol 1e-8 and 1e-9, harness seeds 0-7,
    five starts each (160 solves).  Every solve's phi, dphi, residual
    history, residual, drift and clamp counts are hashed, then every
    pair's shift and distance; last, one critical solve (kpp h=1, c = 2).
``cli``
    About fifty CLI commands, each in a fresh interpreter: the benchmark's
    ``cli`` commands of seeds 0-7, the README's six, and one command for
    each of exit codes 2, 3, 4 and 5.  Each command's argv, stdout,
    stderr, exit code and every file it writes are hashed; it writes into
    ``out`` under a fresh working directory, so the output directory
    reads the same in every run.  One more digest per subcommand (speed,
    zeros, profile, verify, evolve) hashes its commands alone, so a change
    that moves one command shows which one.
``reports``
    The same runs as ``cli``, with the echoed ``"config"`` object dropped
    from every JSON document (stdout when it parses as JSON, and each
    ``*.json`` file) before hashing; every other file, stderr and the exit
    code are hashed as in ``cli``.  A change that edits only the echoed
    configuration keeps this digest while ``cli`` moves.

Last it prints the line count of the library, ``src/semifront/*.py``
(the total of ``wc -l``), so a change that keeps the numbers in fewer
lines shows both in one run.

A change that keeps the numbers prints the same digests as its parent,
run on the same machine.  BLAS is held to one thread (set before numpy
loads, and inherited by the CLI processes), since a threaded reduction
may round differently from run to run.  It takes under a minute.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402 - the thread count must be set before numpy loads
import json  # noqa: E402
import shlex  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import cli_inputs  # noqa: E402
from semifront import verify  # noqa: E402
from semifront.chareq import critical_speed  # noqa: E402
from semifront.model import builtin_kpp, builtin_nicholson  # noqa: E402
from semifront.profile import SolverOptions, solve_profile  # noqa: E402

HARNESS_SEEDS = range(8)
CLI_SEEDS = range(8)
# one command for each failure exit: 2 (no model; a subcritical speed),
# 3 (a run too short to fit a speed), 4 (a solve that does not converge)
# and 5 (a failed hypothesis)
EXIT_CASES = [
    ["speed"],
    ["zeros", "--model", "kpp", "--c", "1"],
    ["evolve", "--model", "kpp", "--h", "1", "--c", "2.5", "--t-run", "0.01"],
    ["profile", "--model", "kpp", "--h", "4", "--c", "2.5"],
    ["verify", "--model", "square"],
]


def _feed(digest, *items) -> None:
    """Hash numbers, arrays and strings, each with its length, so no two
    sequences of items hash alike by a shifted boundary."""
    for item in items:
        if isinstance(item, str):
            item = item.encode()
        elif not isinstance(item, bytes):
            item = np.ascontiguousarray(item, dtype=float).tobytes()
        digest.update(len(item).to_bytes(8, "little"))
        digest.update(item)


def harness_digest() -> tuple[str, int, int]:
    """(digest, solves, pairs) of criterion 09's runs and the critical solve."""
    digest, solves, pairs = hashlib.sha256(), 0, 0
    harness_solve = verify.solve_profile

    def hashed_solve(*args, **kwargs):
        nonlocal solves
        sol = harness_solve(*args, **kwargs)
        _feed(digest, sol.phi, sol.dphi, sol.residual_history,
              [sol.residual, sol.drift, sol.clamp_low, sol.clamp_high])
        solves += 1
        return sol

    nich = builtin_nicholson(1.0, 2.0)
    cases = [(builtin_kpp(2.0), 2.5), (nich, critical_speed(nich)[0] + 0.5)]
    verify.solve_profile = hashed_solve
    try:
        for m, c in cases:
            for tol in (1e-8, 1e-9):
                opts = SolverOptions(tol=tol, accel_iter=3000, t_plus=120.0)
                for seed in HARNESS_SEEDS:
                    found = verify.uniqueness_harness(m, c, 5, opts=opts, seed=seed)
                    _feed(digest, found)
                    pairs += len(found)
    finally:
        verify.solve_profile = harness_solve
    sol = solve_profile(builtin_kpp(1.0), 2.0)
    _feed(digest, sol.phi, sol.dphi, sol.residual_history, [sol.residual, sol.drift])
    return digest.hexdigest(), solves + 1, pairs


def readme_commands() -> list[list[str]]:
    """The commands of the fenced block under the README's "## Command line"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def _without_config(data: bytes) -> bytes:
    """A JSON object's bytes re-serialized without its "config" entry;
    bytes that do not parse as JSON come back as they are."""
    try:
        doc = json.loads(data)
    except ValueError:  # UnicodeDecodeError included
        return data
    if isinstance(doc, dict):
        doc.pop("config", None)
    return json.dumps(doc, sort_keys=True).encode()


def cli_digests() -> dict[str, tuple[str, int]]:
    """(digest, commands) of all CLI runs, each in a fresh interpreter,
    under "cli", of each subcommand's runs under its name, and of all
    runs with the echoed configuration dropped under "reports"."""
    commands = [argv for seed in CLI_SEEDS for argv in cli_inputs(seed)["commands"]]
    commands += readme_commands() + EXIT_CASES
    src_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # argparse wraps the usage line at the terminal width, which COLUMNS sets
    env = dict(os.environ, PYTHONPATH=src_path, COLUMNS="80")
    env.pop("SEMIFRONT_OUTDIR", None)
    names = ("cli", "speed", "zeros", "profile", "verify", "evolve", "reports")
    digests = {name: hashlib.sha256() for name in names}
    counts = dict.fromkeys(digests, 0)
    for argv in commands:
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, "-m", "semifront.cli", *argv, "--outdir", "out"],
                                  cwd=cwd, env=env, capture_output=True, timeout=300)
            items = [" ".join(argv), proc.stdout, proc.stderr, str(proc.returncode)]
            reports = [items[0], _without_config(proc.stdout), *items[2:]]
            for path in sorted(Path(cwd).rglob("*")):
                if path.is_file():
                    data = path.read_bytes()
                    items += [str(path.relative_to(cwd)), data]
                    reports += [items[-2], _without_config(data) if path.suffix == ".json" else data]
        for name in ("cli", argv[0]):
            _feed(digests[name], *items)
            counts[name] += 1
        _feed(digests["reports"], *reports)
        counts["reports"] += 1
    return {name: (digest.hexdigest(), counts[name]) for name, digest in digests.items()}


def main() -> None:
    harness, solves, pairs = harness_digest()
    print(f"harness {harness}  ({solves} solves, {pairs} pairs)", flush=True)
    for name, (digest, commands) in cli_digests().items():
        print(f"{name:<7} {digest}  ({commands} commands)")
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "semifront").glob("*.py"))
    print(f"src     {lines} lines")


if __name__ == "__main__":
    main()
