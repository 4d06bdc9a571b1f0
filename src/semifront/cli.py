"""Command-line front end tying the library together.

Subcommands
-----------
``speed``
    Critical speed and real decay rates of the characteristic function.
``zeros``
    Argument-principle zero count over a rectangle in the complex plane.
``profile``
    Wavefront profile solve; writes CSV and JSON reports, optionally SVG.
``verify``
    Hypothesis checks with optional profile diagnostics and uniqueness
    harness.
``evolve``
    Direct time integration of the reaction-diffusion equation with
    front tracking; writes level-set track and final-field CSVs.

Configuration resolves in three layers: built-in defaults, then
command-line flags, then an optional ``--config`` JSON file whose
entries override the flags.  Every JSON report embeds the fully
resolved configuration, so a run is reproducible from its own output,
and all emitters are deterministic: JSON uses sorted keys, CSV cells
carry 17 significant digits, SVG coordinates are fixed-precision.  The
``SEMIFRONT_OUTDIR`` environment variable supplies the default output
directory (overridden by ``--outdir``).

Exit codes: 0 success; 2 invalid configuration (bad flags or files,
unknown models, speeds below critical); 3 numerical failure; 4 profile
non-convergence (reports are still written); 5 hypothesis failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import _lazy_getattr
from .model import MODEL_NAMES, Model, config_number, model_from_config

if TYPE_CHECKING:
    import numpy as np

    from .asymptotics import DecayFit
    from .profile import ProfileSolution

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_NO_CONVERGENCE = 4
EXIT_HYPOTHESIS = 5

# The library names the subcommands call, by defining module.  Each is an
# attribute of this module, bound on first access, so a subcommand imports
# only the modules it runs: importing this module loads ``model`` alone,
# and ``verify`` without a speed never loads ``chareq``.  The subcommands
# call them through ``_this``, so whatever the attribute holds when they
# run (a tracer's wrapper, a test's stub) is what runs.
__getattr__ = _lazy_getattr(globals(), {
    "asymptotics": ("detect_oscillation", "fit_decay"),
    "chareq": ("DOMINANCE_EPS", "analyze_speed", "count_zeros_rect", "critical_speed"),
    "evolution": ("front_speed", "moving_frame_gap"),
    "profile": ("solve_profile",),
    "verify": ("diagnostics_Q", "verify_model"),
})
_this = sys.modules[__name__]


@contextmanager
def _config_errors():
    """Report a KeyError or TypeError raised while reading the configuration
    as invalid configuration, a ValueError like every other; raised anywhere
    else they are bugs and propagate (exit 1 with a traceback)."""
    try:
        yield
    except (KeyError, TypeError, SyntaxError) as exc:  # SyntaxError: a custom expr
        raise ValueError(str(exc)) from exc


# ----------------------------------------------------------- emitters


def _plain(obj):
    """Recursively convert to strict-JSON-safe built-ins.

    numpy scalars become Python numbers (their ``item()``, so numpy need
    not be loaded), tuples become lists and non-finite floats become
    None, so reports stay valid JSON everywhere.
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "item"):  # a numpy scalar
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # newline="\n" keeps outputs byte-identical across platforms
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    row = ",".join(["%.17g"] * len(columns))  # '%.17g' % x is format(x, ".17g")
    lines = [",".join(header)]
    lines.extend(row % cells for cells in zip(*(c.tolist() for c in columns)))
    _write_text(path, "\n".join(lines) + "\n")


def _emit_json(cfg: dict, payload: dict, stem: str) -> None:
    """Write ``<outdir>/<stem>.json`` and echo the same bytes to stdout."""
    out = dict(payload)
    out["config"] = cfg
    text = json.dumps(_plain(out), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_text(Path(cfg["outdir"]) / (stem + ".json"), text)
    sys.stdout.write(text)


# ------------------------------------------------------ configuration


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _c_value(cfg) -> Optional[float]:
    """Numeric speed from the resolved config; None requests critical."""
    c = cfg["c"]
    return None if c == "critical" else c


@_config_errors()
def _resolve(args) -> dict:
    """Defaults + flags, overridden by the --config file when given: the
    model, the speed (a number, "critical", or the subcommand's default
    without --c/--critical) and every flag of the subcommand's own, each
    converted with its flag's type (null only where the flag's default is;
    the speed may also be null or "critical"), a switch only from a JSON
    boolean.  A value from a flag takes the same conversion."""
    if args.critical and args.c is not None:
        raise ValueError("pass either --c or --critical, not both")
    shape = {key: getattr(args, key) for key in ("h", "p", "z", "k")}
    model = {"name": args.model, **{key: val for key, val in shape.items() if val is not None}}
    cfg: dict = {"command": args.cmd, "model": model, "outdir": args.outdir}
    c = "critical" if args.critical else args.c
    cfg["c"] = args._c_default if c is None else c
    cfg.update((flag.dest, getattr(args, flag.dest)) for flag in args._own)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config file must contain a JSON object")
        # a report echoes its config: a key no flag reads would pose as used
        unknown = sorted(set(overrides) - set(cfg) - {"config_file"})
        if unknown:
            raise ValueError(f"unknown {args.cmd} config key(s): {', '.join(map(repr, unknown))}")
        if overrides.get("command", args.cmd) != args.cmd:  # the report would name another run
            raise ValueError(f"config command {json.dumps(overrides['command'])} does not match "
                             f"the subcommand {args.cmd}")
        cfg = _merge(cfg, overrides)
        cfg["config_file"] = args.config
    if cfg["c"] not in (None, "critical"):
        cfg["c"] = config_number("c", cfg["c"])
    for flag in args._own:
        val = cfg[flag.dest]
        if flag.type is not None and (val is not None or flag.default is not None):
            cfg[flag.dest] = config_number(flag.dest, val, flag.type)
        elif flag.const is True and not isinstance(val, bool):  # --svg, --compare
            raise TypeError(f"{flag.dest} must be true or false, got {json.dumps(val)}")
    if not cfg.get("outdir"):
        cfg["outdir"] = os.environ.get("SEMIFRONT_OUTDIR") or "."
    cfg["outdir"] = os.fspath(cfg["outdir"])
    return cfg


@_config_errors()
def _require_model(cfg: dict, args) -> Model:
    mcfg = cfg.get("model") or {}
    if not isinstance(mcfg, dict):
        raise ValueError(f"model must be a JSON object, got {json.dumps(mcfg)}")
    if not mcfg.get("name"):
        sys.stderr.write(args._parser.format_usage())  # the one error message under a usage line
        raise ValueError("a model is required: pass --model or a config file with a model entry")
    return model_from_config(mcfg)


# ------------------------------------------------------------- figure

_SVG_W = 720.0
_SVG_H = 432.0
_SVG_PAD = 52.0


def _svg_profile(sol: ProfileSolution, fit: Optional[DecayFit]) -> str:
    """Static single-file profile figure.

    Axes with ticks, the profile polyline, a dashed guide at the
    positive equilibrium, and the exponential factor of the fitted tail
    law, if any, overlaid on the left.  All coordinates use fixed two-decimal
    formatting so reruns are byte-identical.
    """
    import numpy as np

    t, phi, kap = sol.t, sol.phi, sol.model.kappa
    x_lo, x_hi = float(t[0]), float(t[-1])
    y_hi = 1.08 * max(float(phi.max()), kap)
    inner_w = _SVG_W - 2.0 * _SVG_PAD
    inner_h = _SVG_H - 2.0 * _SVG_PAD

    def X(v):  # a number or an array
        return _SVG_PAD + (v - x_lo) / (x_hi - x_lo) * inner_w

    def Y(v):
        return _SVG_H - _SVG_PAD - v / y_hi * inner_h

    def polyline(xs, ys, style: str) -> None:
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(X(xs).tolist(), Y(ys).tolist()))
        el.append(f'<polyline points="{points}" fill="none" {style}/>')

    def line(x1, y1, x2, y2, style='stroke="black" stroke-width="1"') -> None:
        el.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>')

    def text(x, y, size, body, anchor=None, extra="") -> None:
        at = f' text-anchor="{anchor}"' if anchor else ""
        el.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}"{at} '
                  f'font-family="sans-serif"{extra}>{body}</text>')

    el = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W:.0f}" '
        f'height="{_SVG_H:.0f}" viewBox="0 0 {_SVG_W:.0f} {_SVG_H:.0f}">',
        f'<rect width="{_SVG_W:.0f}" height="{_SVG_H:.0f}" fill="white"/>',
    ]
    x_axis_y = _SVG_H - _SVG_PAD
    line(_SVG_PAD, x_axis_y, _SVG_W - _SVG_PAD, x_axis_y)
    line(_SVG_PAD, _SVG_PAD, _SVG_PAD, x_axis_y)
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4.0
        xp = X(xv)
        line(xp, x_axis_y, xp, x_axis_y + 5)
        text(xp, x_axis_y + 18, 11, f"{xv:.4g}", "middle")
        yv = i * y_hi / 4.0
        yp = Y(yv)
        line(_SVG_PAD - 5, yp, _SVG_PAD, yp)
        text(_SVG_PAD - 8, yp + 4, 11, f"{yv:.4g}", "end")
    text(_SVG_W / 2, _SVG_H - 14, 12, "t", "middle")
    text(16.0, _SVG_H / 2, 12, "phi", "middle", f' transform="rotate(-90 16 {_SVG_H / 2:.0f})"')

    kap_y = Y(kap)
    line(_SVG_PAD, kap_y, _SVG_W - _SVG_PAD, kap_y,
         'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"')
    text(_SVG_W - _SVG_PAD - 4, kap_y - 5, 11, f"kappa = {kap:.4g}", "end", ' fill="#888888"')

    # exponential factor of the fitted tail law, clipped to the frame
    if fit is not None:
        y_tail = fit.amplitude * np.exp(fit.rate * t)
        show = y_tail <= y_hi
        if np.any(show):
            polyline(t[show], y_tail[show], 'stroke="#d62728" stroke-width="1.5" stroke-dasharray="2,3"')
    polyline(t, phi, 'stroke="#1f77b4" stroke-width="1.8"')
    law = f"; tail fit: rate = {fit.rate:.6g} ({fit.mode})" if fit else ""
    text(_SVG_PAD + 8, _SVG_PAD - 8, 12, f"{sol.model.name}, c = {sol.c:.6g}{law}")
    el.append("</svg>")
    return "\n".join(el) + "\n"


# --------------------------------------------------------- subcommands


def _cmd_speed(cfg: dict, m: Model) -> int:
    _emit_json(cfg, _this.analyze_speed(m, _c_value(cfg))._asdict(), "speed")
    return EXIT_OK


def _cmd_zeros(cfg: dict, m: Model) -> int:
    sa = _this.analyze_speed(m, _c_value(cfg), check_dominance=False)
    re_min = sa.lambda1 - _this.DOMINANCE_EPS if cfg["re_min"] is None else cfg["re_min"]
    re_max = sa.lambda2 + 1e-3 if cfg["re_max"] is None else cfg["re_max"]
    im_max = 50.0 if cfg["im_max"] is None else cfg["im_max"]
    count = _this.count_zeros_rect(m, sa.c, (re_min, re_max), im_max)
    payload = sa._asdict()
    del payload["dominance_ok"]  # not checked here: the count is the check
    payload.update(count=count, rectangle={"re_min": re_min, "re_max": re_max, "im_max": im_max})
    _emit_json(cfg, payload, "zeros")
    return EXIT_OK


def _cmd_profile(cfg: dict, m: Model) -> int:
    from .profile import SolverOptions

    sa = _this.analyze_speed(m, _c_value(cfg), check_dominance=False)
    keys = ("t_minus", "t_plus", "step", "tol", "accel_iter")
    sol = _this.solve_profile(m, sa.c, SolverOptions(**{key: cfg[key] for key in keys}))
    try:
        fit = _this.fit_decay(sol)
    except ValueError:  # a loose solve resolves too little tail for a fit window
        fit = None
    oscillatory, crossings = _this.detect_oscillation(sol)
    q_min = pi_integral = None
    if sol.converged:
        q_min, pi_integral = _this.diagnostics_Q(sol)

    outdir = Path(cfg["outdir"])
    _write_csv(outdir / "profile.csv", ("t", "phi", "dphi"), (sol.t, sol.phi, sol.dphi))
    files = {"csv": "profile.csv", "json": "profile.json", "svg": None}
    if cfg.get("svg"):
        _write_text(outdir / "profile.svg", _svg_profile(sol, fit))
        files["svg"] = "profile.svg"
    payload = {
        "c": sa.c,
        "c_star": sa.c_star,
        "lambda1": sol.lambda1,
        "lambda2": sa.lambda2,
        "critical": sa.critical,
        "t_left": sol.t[0],  # the grid's left edge, and its depth lambda1*|t_left|
        "left_depth": -sol.lambda1 * sol.t[0],
        "residual": sol.residual,
        "drift": sol.drift,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "clamped_low": sol.clamp_low,
        "clamped_high": sol.clamp_high,
        "decay": dataclasses.asdict(fit) if fit else None,
        "oscillatory": oscillatory,
        "kappa_crossings": crossings,
        "q_min": q_min,
        "pi_integral": pi_integral,
        "files": files,
    }
    _emit_json(cfg, payload, "profile")
    if not sol.converged:
        print(f"no convergence: profile: {sol.failure}", file=sys.stderr)
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def _cmd_verify(cfg: dict, m: Model) -> int:
    c_val = _this.critical_speed(m)[0] if cfg["c"] == "critical" else cfg["c"]
    opts = {key: cfg[key] for key in ("n_samples", "seed", "epsilon", "n_seeds")}
    report = _this.verify_model(m, c=c_val, **opts)
    _emit_json(cfg, report.to_dict(), "verify")
    for failure in report.failed_solves:
        print(f"no convergence: {failure}", file=sys.stderr)
    if not report.all_passed:
        return EXIT_HYPOTHESIS
    return EXIT_NO_CONVERGENCE if report.failed_solves else EXIT_OK


def _cmd_evolve(cfg: dict, m: Model) -> int:
    from .evolution import MARGIN, MIN_SAMPLES, step_init, tail_seed

    sa = _this.analyze_speed(m, _c_value(cfg), check_dominance=False)
    ic = cfg["ic"]
    if ic == "tail":
        u0 = tail_seed(m.kappa, sa.lambda1, cfg["x0"])
    elif ic == "step":
        u0 = step_init(m.kappa, cfg["x0"])
    else:
        raise ValueError(f"unknown initial data kind {ic!r}; expected tail or step")
    span = (cfg[key] for key in ("x_lo", "x_hi", "dx", "t_run"))
    run = _this.front_speed(m, u0, *span, dt=cfg["dt"])

    outdir = Path(cfg["outdir"])
    _write_csv(outdir / "track.csv", ("t", "x_half"), (run.times, run.positions))
    _write_csv(outdir / "field.csv", ("x", "u"), (run.x, run.u))
    payload = {
        "speed": run.speed,
        "c": sa.c,
        "c_star": sa.c_star,
        "rel_error": (run.speed - sa.c) / sa.c,
        "t_final": run.t_final,
        "clamped": run.clamped,
        "exited": run.exited,
        "files": {"track": "track.csv", "field": "field.csv", "json": "evolve.json"},
    }
    if cfg.get("compare"):
        sol = _this.solve_profile(m, sa.c)
        shift, gap = _this.moving_frame_gap(run, sol)
        payload["profile_gap"] = {"shift": shift, "sup": gap}
    _emit_json(cfg, payload, "evolve")
    if not math.isfinite(run.speed):
        cause = f"the front was missing or within {MARGIN:g} of a boundary" if run.exited else "the run ended"
        print(f"numerical failure: {cause} at t = {run.t_final:g}, after {run.times.size} front samples; "
              f"the speed fit needs {MIN_SAMPLES}", file=sys.stderr)
    return EXIT_OK if math.isfinite(run.speed) else EXIT_NUMERICS


# -------------------------------------------------------------- parser


def build_parser(cmd: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of all five subcommands.  Given ``cmd``, only the
    subcommand of that name gets its own flags (none does if no
    subcommand has that name), so building it imports only the library
    modules that subcommand's flag defaults come from."""
    parser = argparse.ArgumentParser(
        prog="semifront",
        description="wavefront tools for delayed monostable reaction-diffusion models",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="command")

    def command(name: str, help_: str, func, c_default: Optional[str] = "critical"):
        """Add subcommand ``name`` with the common flags and --c/--critical
        (``c_default`` without either); the returned ``flag`` adds one of
        its own flags and records its action, or is None when ``name``
        gets no flags of its own."""
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.add_argument("--model", choices=list(MODEL_NAMES), help="model name")
        sp.add_argument("--h", type=float, default=0.0, help="delay span (default 0)")
        sp.add_argument("--p", type=float, help="growth parameter (nicholson, may)")
        sp.add_argument("--z", type=float, help="exponent parameter (may)")
        sp.add_argument("--k", type=float, help="shape parameter (may)")
        sp.add_argument("--config", help="JSON config file; its entries override flags")
        sp.add_argument("--outdir", help="output directory (default $SEMIFRONT_OUTDIR or '.')")
        sp.add_argument("--c", type=float, help="wave speed")
        sp.add_argument("--critical", action="store_true", help="use the critical speed")
        own: list[argparse.Action] = []
        sp.set_defaults(func=func, cmd=name, _c_default=c_default, _parser=sp, _own=own)

        def flag(*names, **kwargs) -> None:
            own.append(sp.add_argument(*names, **kwargs))

        return flag if cmd in (None, name) else None

    command("speed", "critical speed and real decay rates", _cmd_speed)

    if flag := command("zeros", "zero count of the characteristic function on a rectangle", _cmd_zeros):
        flag("--re-min", type=float, help="rectangle left edge (default lambda1 - 1e-3)")
        flag("--re-max", type=float, help="rectangle right edge (default lambda2 + 1e-3)")
        flag("--im-max", type=float, help="rectangle half-height (default 50)")

    if flag := command("profile", "solve the wavefront profile and report its shape", _cmd_profile):
        from .profile import SolverOptions

        solver = SolverOptions()
        flag("--t-plus", type=float, default=solver.t_plus, help="right edge of the grid")
        flag("--t-minus", type=float, default=solver.t_minus, help="left edge of the grid (default auto)")
        flag("--step", type=float, default=solver.step, help="grid step")
        flag("--tol", type=float, default=solver.tol, help="absolute sup-norm residual tolerance")
        flag("--accel-iter", type=int, default=solver.accel_iter, help="accelerated iteration budget")
        flag("--svg", action="store_true", help="also write an SVG figure")

    if flag := command(
        "verify", "check the existence/uniqueness hypotheses by sampling", _cmd_verify, c_default=None
    ):
        from .verify import EPSILON, N_SAMPLES

        flag("--n-samples", type=int, default=N_SAMPLES, help="samples per hypothesis")
        flag("--seed", type=int, default=0, help="base RNG seed")
        flag("--epsilon", type=float, default=EPSILON, help="lower-bound test level")
        flag("--n-seeds", type=int, default=0, help="uniqueness harness starts (0 = skip)")

    if flag := command("evolve", "integrate the equation and measure the front speed", _cmd_evolve):
        from .evolution import DT

        flag("--ic", choices=["tail", "step"], default="tail", help="initial data kind")
        flag("--x0", type=float, default=0.0, help="initial front location")
        flag("--x-lo", type=float, default=-80.0, help="left edge of the domain")
        flag("--x-hi", type=float, default=30.0, help="right edge of the domain")
        flag("--dx", type=float, default=0.1, help="spatial step")
        flag("--dt", type=float, help=f"time step (default {DT:g}, whatever --dx)")
        flag("--t-run", type=float, default=18.0, help="integration time")
        flag("--compare", action="store_true", help="also align against the profile solver")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-8e1" or "-80." for a flag
        if argv[i].startswith("-") and argv[i - 1].startswith("--"):
            try:
                float(argv[i])
            except ValueError:
                continue
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    # the top-level parser takes no flag with a value, so its first
    # argument that is not a flag names the subcommand
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _resolve(args)
        return args.func(cfg, _require_model(cfg, args))
    except (OSError, ValueError) as exc:
        # bad inputs surface as ValueError subclasses throughout the library;
        # a KeyError or TypeError counts only while reading the configuration
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
