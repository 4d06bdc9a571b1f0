"""End-to-end checks of the command-line interface.

Each test drives ``semifront.cli.main`` in-process with an explicit
argv, captures the JSON it prints, and inspects the files it writes.
"""

import dataclasses
import inspect
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from semifront.chareq import critical_speed_bisection
from semifront.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICS,
    EXIT_OK,
    _resolve,
    _write_csv,
    build_parser,
    main,
)
from semifront.model import builtin_nicholson
from semifront.profile import SolverOptions
from semifront.verify import EPSILON, N_SAMPLES, verify_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# -------------------------------------------------------------- speed


def test_speed_reports_root_pair(tmp_path, capsys):
    code, doc = run_json(
        capsys, "speed", "--model", "kpp", "--h", "1", "--c", "2.5",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["lambda1"] == pytest.approx(0.5, abs=1e-10)
    assert doc["lambda2"] == pytest.approx(2.0, abs=1e-10)
    assert doc["c_star"] == pytest.approx(2.0, abs=1e-10)
    assert doc["critical"] is False
    assert doc["dominance_ok"] is True
    # the resolved configuration rides along in the report
    assert doc["config"]["model"] == {"name": "kpp", "h": 1.0}
    assert doc["config"]["c"] == 2.5
    # the file holds the same bytes that went to stdout
    text = (tmp_path / "speed.json").read_text(encoding="utf-8")
    assert json.loads(text) == doc


def test_speed_critical_flag(tmp_path, capsys):
    code, doc = run_json(
        capsys, "speed", "--model", "kpp", "--h", "0.3", "--critical",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["c_star"] == pytest.approx(2.0, abs=1e-10)
    assert doc["c"] == doc["c_star"]
    assert doc["critical"] is True
    assert doc["lambda1"] == pytest.approx(doc["lambda2"], abs=1e-6)


def test_speed_nicholson_critical_matches_bisection(tmp_path, capsys):
    code, doc = run_json(
        capsys, "speed", "--model", "nicholson", "--p", "2", "--h", "1",
        "--critical", "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    c_bis, _ = critical_speed_bisection(builtin_nicholson(1.0, 2.0))
    assert doc["c_star"] == pytest.approx(c_bis, abs=1e-8)


def test_conflicting_speed_flags_rejected(tmp_path, capsys):
    code, _, err = run(
        capsys, "speed", "--model", "kpp", "--c", "2.5", "--critical",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert "either --c or --critical" in err


def test_subcritical_speed_is_config_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "speed", "--model", "kpp", "--h", "1", "--c", "1.0",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert "critical" in err


def test_missing_model_prints_usage(tmp_path, capsys):
    code, _, err = run(capsys, "profile", "--c", "2.5", "--outdir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "usage:" in err
    assert "--model" in err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["speed", "--no-such-flag"]) == EXIT_CONFIG
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "speed" in capsys.readouterr().out


# ------------------------------------------------------------- config

# every report's config holds command, model, outdir and c, plus exactly
# the subcommand's own flags
OWN_CONFIG_KEYS = {
    "speed": set(),
    "zeros": {"re_min", "re_max", "im_max"},
    "profile": {"t_plus", "t_minus", "step", "tol", "max_iter", "accel_iter", "svg"},
    "verify": {"n_samples", "seed", "epsilon", "n_seeds"},
    "evolve": {"ic", "x0", "x_lo", "x_hi", "dx", "dt", "t_run", "compare"},
}


@pytest.mark.parametrize("cmd", sorted(OWN_CONFIG_KEYS))
def test_resolved_config_keys(cmd):
    args = build_parser().parse_args([cmd, "--model", "kpp"])
    assert set(_resolve(args)) == {"command", "model", "outdir", "c"} | OWN_CONFIG_KEYS[cmd]


def test_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    profile = vars(parser.parse_args(["profile"]))
    solver = SolverOptions()
    for f in dataclasses.fields(SolverOptions):
        if f.name != "initial_phi":
            assert profile[f.name] == getattr(solver, f.name), f.name
    verify = vars(parser.parse_args(["verify"]))
    params = inspect.signature(verify_model).parameters
    assert verify["n_samples"] == params["n_samples"].default == N_SAMPLES
    assert verify["epsilon"] == params["epsilon"].default == EPSILON


# -------------------------------------------------------------- zeros


def test_zeros_default_rectangle(tmp_path, capsys):
    code, doc = run_json(
        capsys, "zeros", "--model", "kpp", "--h", "1", "--c", "2.5",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["count"] == 2
    rect = doc["rectangle"]
    assert rect["re_min"] == pytest.approx(0.5 - 1e-3, abs=1e-9)
    assert rect["re_max"] == pytest.approx(2.0 + 1e-3, abs=1e-9)
    assert rect["im_max"] == 50.0


# ------------------------------------------------------------ profile


def test_profile_outputs(tmp_path, capsys):
    code, doc = run_json(
        capsys, "profile", "--model", "kpp", "--h", "0.1", "--c", "2.5",
        "--svg", "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["converged"] is True
    assert doc["residual"] <= 2e-9
    assert doc["oscillatory"] is False
    assert doc["decay"]["mode"] == "pure_exponential"
    assert doc["decay"]["rate"] == pytest.approx(0.5, rel=0.02)
    assert doc["q_min"] >= -1e-8
    assert doc["pi_integral"] > 0.0

    csv = (tmp_path / "profile.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "t,phi,dphi"
    first = [float(v) for v in csv[1].split(",")]
    assert len(first) == 3 and first[1] > 0.0
    assert len(csv) > 1000

    svg = (tmp_path / "profile.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert "kappa" in svg and "stroke-dasharray" in svg and "polyline" in svg
    assert doc["files"]["svg"] == "profile.svg"


def test_profile_nonconvergence_still_writes(tmp_path, capsys):
    code, doc = run_json(
        capsys, "profile", "--model", "kpp", "--h", "1", "--c", "2.5",
        "--tol", "1e-14", "--max-iter", "2", "--accel-iter", "1",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_NO_CONVERGENCE
    assert doc["converged"] is False
    assert doc["q_min"] is None
    assert (tmp_path / "profile.csv").exists()
    assert (tmp_path / "profile.json").exists()


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("--h", "1", "--c", "2.5", "--tol", "1e-3"), EXIT_OK),
        (("--h", "1", "--c", "2.5", "--tol", "1e-4"), EXIT_OK),
        (("--h", "2", "--c", "2.5", "--accel-iter", "0"), EXIT_NO_CONVERGENCE),
    ],
)
def test_loose_solve_without_fit_window_still_reports(tmp_path, capsys, argv, exit_code):
    # at residuals of ~1e-5 to 1e-3 the first node resolved above the
    # residual (phi >= 1e3 * residual) lies past the fit level, so there is
    # no decay window: the report says so, and the exit code is the
    # convergence verdict's, not a configuration error
    code, doc = run_json(capsys, "profile", "--model", "kpp", *argv, "--svg", "--outdir", str(tmp_path))
    assert code == exit_code and doc["converged"] is (exit_code == EXIT_OK)
    assert doc["decay"] is None
    assert {p.name for p in tmp_path.iterdir()} == {"profile.csv", "profile.json", "profile.svg"}
    svg = (tmp_path / "profile.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline") == 1 and "tail fit" not in svg


def test_clamped_profile_is_not_converged(tmp_path, capsys):
    # at h = 4 the default solve meets the residual tolerance only on nodes
    # held at the clamp floor; such a profile does not solve phi = A(phi)
    code, doc = run_json(
        capsys, "profile", "--model", "kpp", "--h", "4", "--c", "2.5", "--outdir", str(tmp_path),
    )
    assert code == EXIT_NO_CONVERGENCE
    assert doc["converged"] is False
    assert doc["clamped_low"] > 0
    assert doc["q_min"] is None and doc["pi_integral"] is None


def test_profile_reruns_are_byte_identical(tmp_path, capsys):
    argv = (
        "profile", "--model", "kpp", "--c", "2.5", "--t-plus", "20",
        "--svg", "--outdir", str(tmp_path),
    )
    code, out1, _ = run(capsys, *argv)
    assert code == EXIT_OK
    files1 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out2, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out1 == out2
    for p in tmp_path.iterdir():
        assert p.read_bytes() == files1[p.name]
    assert out1.encode("utf-8") == files1["profile.json"]


def test_csv_cells_carry_17_significant_digits(tmp_path):
    values = [-0.0, 5e-324, 0.1, 1.0 / 3.0, 1e22]
    _write_csv(tmp_path / "x.csv", ("a", "b"), (np.array(values), -np.array(values)))
    lines = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a,b"
    assert lines[1:] == [f"{format(v, '.17g')},{format(-v, '.17g')}" for v in values]


# ----------------------------------------------------- configuration


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"name": "kpp", "h": 1.0}, "c": 2.5}))
    code, doc = run_json(
        capsys, "speed", "--model", "nicholson", "--p", "2", "--h", "1",
        "--critical", "--config", str(cfg), "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    # the file's model and speed win over the conflicting flags
    assert doc["config"]["model"]["name"] == "kpp"
    assert doc["config"]["c"] == 2.5
    assert doc["config"]["config_file"] == str(cfg)
    assert doc["lambda1"] == pytest.approx(0.5, abs=1e-10)
    assert doc["lambda2"] == pytest.approx(2.0, abs=1e-10)


def test_custom_model_via_config(tmp_path, capsys):
    # a hand-written copy of the delayed logistic model; its linear part
    # has chi(z, c) = z^2 - c z + 1, so the critical speed is exactly 2
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "model": {
            "name": "custom",
            "h": 1.0,
            "eval_points": [0.0, -1.0],
            "expr": "u0 * (1.0 - u1)",
            "atoms": [[0.0, 1.0]],
            "q": 0.0,
            "kappa": 1.0,
            "smoothness": [1.0, 1.0, 1.0],
            "bound": 4.0,
        },
        "c": "critical",
    }))
    code, doc = run_json(capsys, "speed", "--config", str(cfg), "--outdir", str(tmp_path))
    assert code == EXIT_OK
    assert doc["c_star"] == pytest.approx(2.0, abs=1e-10)
    assert doc["critical"] is True


def test_outdir_env_default(tmp_path, capsys, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("SEMIFRONT_OUTDIR", str(envdir))
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(capsys, "speed", "--model", "kpp", "--critical")
    assert code == EXIT_OK
    assert (envdir / "speed.json").exists()
    assert doc["config"]["outdir"] == str(envdir)

    # an explicit flag beats the environment
    flagdir = tmp_path / "from_flag"
    code, doc = run_json(
        capsys, "speed", "--model", "kpp", "--critical", "--outdir", str(flagdir)
    )
    assert code == EXIT_OK
    assert (flagdir / "speed.json").exists()
    assert doc["config"]["outdir"] == str(flagdir)


# the custom model of the README's config section
README_CUSTOM = {
    "name": "custom", "h": 1.0, "eval_points": [0.0, -1.0], "expr": "u0 * (1.0 - u1)",
    "atoms": [[0.0, 1.0]], "q": 0.0, "kappa": 1.0, "smoothness": [1.0, 1.0, 1.0], "bound": 4.0,
}


@pytest.mark.parametrize(
    "argv, override",
    [
        (("speed", "--critical"), {"model": {"name": "nicholson", "h": 1.0}}),  # KeyError: p
        (("profile", "--model", "kpp", "--c", "2.5"), {"tol": None}),  # TypeError
        (("profile", "--model", "kpp", "--c", "2.5"), {"outdir": 5}),  # TypeError
        (
            ("speed", "--c", "2.5"),
            {"model": {"name": "custom", "h": 0.0, "eval_points": [0.0], "expr": "u0 *"}},
        ),  # SyntaxError in the reaction expression
        # a model that is not a JSON object
        (("speed", "--c", "2.5"), {"model": "kpp"}),
        (("speed", "--c", "2.5"), {"model": ["kpp"]}),
        (("speed", "--c", "2.5"), {"model": 1}),
        # a nested scope (here a lambda) cannot see the expression's u0..:
        # refused when the model is built, whether or not the command evaluates f
        *[((cmd, "--c", "2.5"), {"model": {**README_CUSTOM, "expr": "(lambda: u0)()"}})
          for cmd in ("speed", "profile", "verify")],
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, argv, override):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(override))
    code, _, err = run(capsys, *argv, "--config", str(cfg), "--outdir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err.startswith("error:")


# the usage line argparse prints for `speed` at 80 columns
SPEED_USAGE = (
    "usage: semifront speed [-h] [--model {kpp,nicholson,may,square,custom}]\n"
    "                       [--h H] [--p P] [--z Z] [--k K] [--config CONFIG]\n"
    "                       [--outdir OUTDIR] [--c C] [--critical]\n"
)


@pytest.mark.parametrize(
    "argv, config, stderr",
    [
        # the one message that prints a usage line prints it first
        ((), None,
         SPEED_USAGE + "error: a model is required: pass --model or a config file with a model entry\n"),
        (("--model", "kpp", "--c", "2", "--critical"), None,
         "error: pass either --c or --critical, not both\n"),
        (("--model", "kpp"), [1], "error: config file must contain a JSON object\n"),
        ((), {"model": {"name": "nicholson"}}, "error: 'p'\n"),  # a KeyError read from the config
        (("--c", "2.5"), {"model": {**README_CUSTOM, "expr": "u0 * (1.0 - "}},
         "error: '(' was never closed (<model-expr>, line 1)\n"),  # a SyntaxError in the expression
    ],
)
def test_config_errors_print_exact_stderr(tmp_path, capsys, monkeypatch, argv, config, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line at the terminal width
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = (*argv, "--config", str(cfg))
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "speed", *argv, "--outdir", str(outdir))
    assert (code, out, err) == (EXIT_CONFIG, "", stderr)
    assert not outdir.exists()


def test_config_values_take_their_flag_type(tmp_path, capsys):
    # a config value is converted, and echoed, with its flag's type
    argv = ("profile", "--model", "kpp", "--c", "2.5", "--step", "0.05")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t_plus": 30, "max_iter": 600.0}))
    code, doc = run_json(capsys, *argv, "--config", str(cfg), "--outdir", str(tmp_path / "a"))
    assert code == EXIT_OK
    assert doc["config"]["t_plus"] == 30.0 and isinstance(doc["config"]["t_plus"], float)
    assert doc["config"]["max_iter"] == 600 and isinstance(doc["config"]["max_iter"], int)
    code, ref = run_json(capsys, *argv, "--t-plus", "30", "--outdir", str(tmp_path / "b"))
    assert code == EXIT_OK
    for d in (doc, ref):
        d.pop("config")
    assert doc == ref
    assert (tmp_path / "a" / "profile.csv").read_bytes() == (tmp_path / "b" / "profile.csv").read_bytes()
    # the speed takes the --c flag's type too
    cfg.write_text(json.dumps({"c": "3"}))
    code, doc = run_json(
        capsys, "speed", "--model", "kpp", "--config", str(cfg), "--outdir", str(tmp_path / "c")
    )
    assert code == EXIT_OK
    assert doc["c"] == 3.0 and doc["config"]["c"] == 3.0 and isinstance(doc["config"]["c"], float)


def _error_of(convert, value) -> str:
    try:
        convert(value)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{convert.__name__}({value!r}) did not raise")


@pytest.mark.parametrize(
    "argv, override, message",
    [
        (("profile", "--model", "kpp", "--c", "2.5"), {"tol": None}, _error_of(float, None)),
        (("profile", "--model", "kpp", "--c", "2.5"), {"t_plus": "abc"}, _error_of(float, "abc")),
        (
            ("evolve", "--model", "kpp", "--c", "2.5"), {"ic": "wave"},
            "unknown initial data kind 'wave'; expected tail or step",
        ),
        (("speed", "--model", "kpp"), {"c": "abc"}, _error_of(float, "abc")),
        (("speed", "--model", "kpp"), {"c": [3]}, _error_of(float, [3])),
        # a JSON boolean is no number, though float(true) would read it as 1.0
        (("profile", "--c", "2.5"), {"model": {"name": "kpp", "h": 0.1}, "t_plus": True},
         "t_plus must be a number, got true"),
        (("profile", "--model", "kpp", "--c", "2.5"), {"max_iter": False},
         "max_iter must be a number, got false"),
        (("speed",), {"model": {"name": "kpp", "h": True}}, "h must be a number, got true"),
        (("speed", "--model", "kpp"), {"c": True}, "c must be a number, got true"),
        (
            ("speed",),
            {"model": {"name": "custom", "h": 1, "eval_points": [0, -1], "expr": "u0*(1-u1)",
                       "atoms": [[0, True]], "kappa": 1}},
            "atoms must be a number, got true",
        ),
        # a switch takes only a JSON boolean, not any truthy value
        (("profile", "--model", "kpp", "--c", "2.5"), {"svg": "no"},
         'svg must be true or false, got "no"'),
        (("evolve", "--model", "kpp", "--c", "2.5"), {"compare": 1},
         "compare must be true or false, got 1"),
        # NaN and +-inf are no configuration: an own flag, the speed, a model parameter
        (("profile", "--model", "kpp", "--c", "2.5"), {"tol": math.nan}, "tol must be finite, got nan"),
        (("profile", "--model", "kpp", "--c", "2.5"), {"max_iter": math.inf},
         "max_iter must be finite, got inf"),
        (("speed", "--model", "kpp"), {"c": "-inf"}, "c must be finite, got -inf"),
        (("speed", "--c", "3"), {"model": {"name": "nicholson", "h": 1, "p": math.inf}},
         "p must be finite, got inf"),
        # an integer setting refuses a fraction, which int() would truncate
        (("verify", "--model", "kpp"), {"n_samples": 2.9, "seed": 1.5},
         "n_samples must be an integer, got 2.9"),
        (("profile", "--model", "kpp", "--c", "2.5"), {"max_iter": 600.7},
         "max_iter must be an integer, got 600.7"),
    ],
)
def test_bad_typed_config_values_exit_2(tmp_path, capsys, argv, override, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(override))
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--outdir", str(tmp_path))
    assert code == EXIT_CONFIG and out == ""
    assert err == f"error: {message}\n"


def test_library_type_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a KeyError or TypeError past config reading is a bug: it propagates
    # (exit 1 with a traceback) instead of posing as bad input (exit 2)
    import semifront.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("library bug")

    monkeypatch.setattr(cli, "solve_profile", broken)
    with pytest.raises(TypeError, match="library bug"):
        main(["profile", "--model", "kpp", "--c", "2.5", "--outdir", str(tmp_path)])


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run(
        capsys, "speed", "--model", "kpp", "--critical",
        "--config", str(cfg), "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG
    assert "JSON object" in err


# ------------------------------------------------------------- verify


def test_verify_square_fails_with_counterexample(tmp_path, capsys):
    code, doc = run_json(
        capsys, "verify", "--model", "square", "--n-samples", "1500",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_HYPOTHESIS
    assert doc["all_passed"] is False
    assert doc["hypotheses"]["UB"]["passed"] is False
    assert doc["hypotheses"]["UB"]["counterexample"] is not None
    assert (tmp_path / "verify.json").exists()


def test_verify_kpp_passes(tmp_path, capsys):
    code, doc = run_json(
        capsys, "verify", "--model", "kpp", "--h", "1", "--n-samples", "1500",
        "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["all_passed"] is True
    assert sorted(doc["hypotheses"]) == ["J", "LB", "M", "ND", "S", "UB"]


def test_verify_one_seed_is_config_error(tmp_path, capsys):
    # one seed compares no pair; it used to exit 0 with an empty harness
    code, out, err = run(
        capsys, "verify", "--model", "kpp", "--h", "1", "--c", "2.5", "--n-seeds", "1",
        "--n-samples", "100", "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG and out == ""
    assert "n_seeds" in err and not (tmp_path / "verify.json").exists()


def test_verify_negative_seeds_is_config_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "verify", "--model", "kpp", "--h", "1", "--c", "2.5", "--n-seeds", "-3",
        "--n-samples", "100", "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG and out == ""
    assert "n_seeds" in err and not (tmp_path / "verify.json").exists()


def test_verify_seeds_without_speed_is_config_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "verify", "--model", "kpp", "--h", "1", "--n-seeds", "3",
        "--n-samples", "100", "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG and out == ""
    assert "speed" in err and not (tmp_path / "verify.json").exists()


# ------------------------------------------------------------- evolve


def test_evolve_outputs(tmp_path, capsys):
    code, doc = run_json(
        capsys, "evolve", "--model", "kpp", "--c", "2.5", "--t-run", "10",
        "--x-lo", "-60", "--x-hi", "25", "--compare", "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["speed"] == pytest.approx(2.5, rel=0.02)
    assert doc["exited"] is False
    assert doc["clamped"] == 0
    # the time-stepped front, aligned, lies on the solver's profile
    assert doc["profile_gap"]["sup"] <= 5e-2

    track = (tmp_path / "track.csv").read_text(encoding="utf-8").splitlines()
    assert track[0] == "t,x_half"
    assert len(track) > 50
    field = (tmp_path / "field.csv").read_text(encoding="utf-8").splitlines()
    assert field[0] == "x,u"
    # final field has the domain's node count
    assert len(field) - 1 == int(round((25 - (-60)) / 0.1)) + 1


def test_evolve_step_data_runs_at_the_critical_speed(tmp_path, capsys):
    # compactly supported data ignore --c: the front approaches c* = 2 from below
    code, doc = run_json(
        capsys, "evolve", "--model", "kpp", "--c", "2.5", "--t-run", "10", "--ic", "step",
        "--x-lo", "-60", "--x-hi", "25", "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["speed"] < 2.1
    assert "profile_gap" not in doc


def test_evolve_too_short_to_measure(tmp_path, capsys):
    code, doc = run_json(
        capsys, "evolve", "--model", "kpp", "--c", "2.5", "--t-run", "0.08",
        "--x-lo", "-40", "--x-hi", "20", "--outdir", str(tmp_path),
    )
    assert code == EXIT_NUMERICS
    assert doc["speed"] is None
    assert doc["rel_error"] is None


@pytest.mark.parametrize(
    "flags, message",
    [
        # too short a run for four front samples
        (("--t-run", "0.01"), "the run ended at t = 0.025, after 1 front samples"),
        # the front starts outside the window MARGIN inside the domain
        (("--x0", "200"), "the front was missing or within 10 of a boundary at t = 0.025, after 0 front samples"),
        # a step longer than the sample spacing: two steps, two samples
        (("--dx", "5", "--dt", "10"), "the run ended at t = 20, after 2 front samples"),
    ],
)
def test_evolve_without_a_speed_names_the_cause(tmp_path, capsys, flags, message):
    code, out, err = run(
        capsys, "evolve", "--model", "kpp", "--h", "1", "--c", "2.5", *flags, "--outdir", str(tmp_path),
    )
    assert code == EXIT_NUMERICS
    assert json.loads(out)["speed"] is None  # the reports are still written
    assert err == f"numerical failure: {message}; the speed fit needs 4\n"


@pytest.mark.parametrize("t_run", ["0", "-1"])
def test_evolve_nonpositive_run_time_exit_2(tmp_path, capsys, t_run):
    code, out, err = run(
        capsys, "evolve", "--model", "kpp", "--c", "2.5", "--t-run", t_run, "--outdir", str(tmp_path),
    )
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: t_run must be positive\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("speed", "--model", "kpp", "--h", "inf", "--c", "2.5"), "h must be finite, got inf"),
        (("speed", "--model", "kpp", "--c", "nan"), "c must be finite, got nan"),
        (("profile", "--model", "kpp", "--c", "2.5", "--tol", "nan"), "tol must be finite, got nan"),
        # zero skips a stage; a negative budget is no budget
        (
            ("profile", "--model", "kpp", "--c", "2.5", "--max-iter", "-5", "--accel-iter", "-1"),
            "max_iter and accel_iter must be nonnegative",
        ),
        # the automatic left edge -40/lambda1 grows like 40c: refused before allocation
        (
            ("profile", "--model", "kpp", "--h", "1", "--c", "1e6"),
            "the grid would have 2000002001 nodes, above 1000000: "
            "set a shallower --t-minus or a larger --step",
        ),
        # chi overflows on a zero-count contour far left (the delayed
        # exponentials) or far up (z^2): refused, not counted as NaN
        (
            ("zeros", "--model", "nicholson", "--p", "2", "--h", "1", "--c", "2", "--re-min", "-500"),
            "chi(z) = (nan+nanj) is not finite at z = (-500-50j) on the zero-count contour",
        ),
        (
            ("zeros", "--model", "kpp", "--h", "1", "--c", "2.5", "--im-max", "1e200"),
            "chi(z) = (-inf+1.5019999999999998e+200j) is not finite at z = (0.499-1e+200j) "
            "on the zero-count contour",
        ),
        # evolve's history ring holds ceil(h/dt)+1 fields, 41 at the default
        # dt = 0.025 and h = 1: refused before allocation, and so is a grid
        # alone too large at h = 0
        (
            ("evolve", "--model", "kpp", "--h", "1", "--c", "2.5", "--dx", "1e-4"),
            "the state would hold 4.51e+07 node x history-row values, above 40000000",
        ),
        (
            ("evolve", "--model", "kpp", "--h", "0", "--c", "2.5", "--dx", "1e-12"),
            "the state would hold 1.1e+14 node x history-row values, above 40000000",
        ),
        # each sampled check draws n_samples x knots values at once
        (
            ("verify", "--model", "kpp", "--h", "1", "--n-samples", "1000000000"),
            "1000000000 samples x 8 knots = 8000000000 values, above 10000000",
        ),
        # an evolve run of 4000 steps on 1 100 001 nodes: its state fits, its
        # time does not, and it is refused before allocation
        (
            ("evolve", "--model", "kpp", "--h", "0", "--c", "2.5", "--dx", "1e-4", "--t-run", "100"),
            "the run would take 4.4e+09 cell-steps (ceil(t_run/dt) x max(nodes, 2000)), above 800000000",
        ),
        # kpp's sup bound 2 e^h is inf this far out, and the ring of h/dt rows
        # is what refuses the run
        (
            ("evolve", "--model", "kpp", "--h", "1000", "--c", "2.5"),
            "the state would hold 4.404e+07 node x history-row values, above 40000000",
        ),
    ],
)
def test_bad_flag_values_exit_2(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *argv, "--outdir", str(tmp_path))
    assert code == EXIT_CONFIG and out == ""
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, key, value",
    [
        # a tall rectangle: its segments split only near the real axis
        (("zeros", "--model", "kpp", "--h", "1", "--c", "2.5", "--im-max", "1e9"), "count", 2),
        # dominance rectangles whose height grows like c + p, at c*
        (("speed", "--model", "nicholson", "--p", "1e6", "--h", "4"), "dominance_ok", True),
        (("speed", "--model", "nicholson", "--p", "1e5", "--h", "1"), "dominance_ok", True),
    ],
)
def test_large_rectangles_are_counted(tmp_path, capsys, argv, key, value):
    code, doc = run_json(capsys, *argv, "--outdir", str(tmp_path))
    assert (code, doc[key]) == (EXIT_OK, value)


@pytest.mark.parametrize(
    "argv, key, value",
    [
        # kpp's linearization is instantaneous: c* = 2 and lambda1 = 1 at any h,
        # past the h ~ 709.8 where e^h overflows
        (("speed", "--model", "kpp", "--h", "800"), "c_star", 2.0),
        (("speed", "--model", "kpp", "--h", "800"), "dominance_ok", True),
        (("zeros", "--model", "kpp", "--h", "800", "--c", "2.5"), "count", 2),
    ],
)
def test_kpp_runs_past_the_overflow_of_its_bound(tmp_path, capsys, argv, key, value):
    code, doc = run_json(capsys, *argv, "--outdir", str(tmp_path))
    assert (code, doc[key]) == (EXIT_OK, value)


def test_negative_values_in_exponent_form_are_values(tmp_path, capsys):
    # argparse reads -8e1 and -80. as flags unless they are joined to theirs
    code, doc = run_json(capsys, "zeros", "--model", "kpp", "--h", "1", "--c", "2.5",
                         "--re-min", "-1e-1", "--outdir", str(tmp_path))
    assert (code, doc["count"], doc["rectangle"]["re_min"]) == (EXIT_OK, 2, -0.1)
    written = []
    for t_minus in ("-8e1", "-80"):
        argv = ("profile", "--model", "kpp", "--h", "1", "--c", "2.5", "--tol", "1e-6",
                "--t-minus", t_minus, "--outdir", str(tmp_path / "profile"))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        written.append([out] + [p.read_bytes() for p in sorted((tmp_path / "profile").iterdir())])
    assert written[0] == written[1]


def test_contour_over_its_sample_budget_exits_3(tmp_path, capsys, monkeypatch):
    import semifront.chareq as chareq

    monkeypatch.setattr(chareq, "MAX_CONTOUR_SAMPLES", 100)
    code, out, err = run(capsys, "speed", "--model", "kpp", "--h", "1", "--c", "2.5", "--outdir", str(tmp_path))
    assert (code, out) == (EXIT_NUMERICS, "")
    assert err == "numerical failure: the zero-count contour needs more than 100 samples\n"


def test_small_grid_run_is_charged_a_step_floor(tmp_path, capsys, monkeypatch):
    # 800 000 steps on 101 nodes are 8.1e7 node-steps, but a step costs at
    # least what 2 000 nodes do: refused before the first step, no file written
    import semifront.evolution as evolution

    steps = []

    def counted_step(state):
        steps.append(state.t)
        raise RuntimeError("the refused run took a step")

    monkeypatch.setattr(evolution.EvolutionState, "step", counted_step)
    argv = ("evolve", "--model", "kpp", "--c", "2.5", "--x-lo", "-25", "--x-hi", "25", "--dx", "0.5",
            "--t-run", "20000", "--outdir", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, out, steps) == (EXIT_CONFIG, "", [])
    assert err == ("error: the run would take 1.6e+09 cell-steps (ceil(t_run/dt) x max(nodes, 2000)), "
                   "above 800000000\n")
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------- README


def readme_commands() -> list:
    """The commands of the fenced block under the README's "## Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def test_readme_commands_run(tmp_path, capsys):
    cmds = readme_commands()
    assert [argv[0] for argv in cmds] == ["speed", "speed", "zeros", "profile", "verify", "evolve"]
    for i, argv in enumerate(cmds):
        outdir = tmp_path / str(i)
        code, out, _ = run(capsys, *argv, "--outdir", str(outdir))
        assert code == EXIT_OK, argv
        assert out == (outdir / f"{argv[0]}.json").read_text(encoding="utf-8"), argv


# --------------------------------------------------------------- import


def test_import_leaves_scipy_signal_unloaded():
    # importing scipy costs more than most CLI runs compute, and the
    # runtime needs only numpy: neither the import nor a solve loads it;
    # nor logging (~4 ms an import), which no report path uses
    import os
    import subprocess
    import sys
    from pathlib import Path

    import semifront

    env = dict(os.environ, PYTHONPATH=str(Path(semifront.__file__).resolve().parents[1]))
    code = (
        "import sys, semifront.cli\n"
        "from semifront.model import builtin_kpp\n"
        "from semifront.profile import SolverOptions, solve_profile\n"
        "def unwanted():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'logging'))\n"
        "print(unwanted())\n"
        "solve_profile(builtin_kpp(1.0), 2.5, SolverOptions(step=0.05, t_plus=20.0))\n"
        "print(unwanted())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
