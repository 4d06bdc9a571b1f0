"""End-to-end checks of the command-line interface.

Each test drives ``semifront.cli.main`` in-process with an explicit
argv, captures the JSON it prints, and inspects the files it writes.
"""

import dataclasses
import inspect
import json
import math

import pytest

from semifront.chareq import critical_speed_bisection
from semifront.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICS,
    EXIT_OK,
    _resolve,
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
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, argv, override):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(override))
    code, _, err = run(capsys, *argv, "--config", str(cfg), "--outdir", str(tmp_path))
    assert code == EXIT_CONFIG
    assert err.startswith("error:")


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
        "--x-lo", "-60", "--x-hi", "25", "--outdir", str(tmp_path),
    )
    assert code == EXIT_OK
    assert doc["speed"] == pytest.approx(2.5, rel=0.02)
    assert doc["exited"] is False
    assert doc["clamped"] == 0

    track = (tmp_path / "track.csv").read_text(encoding="utf-8").splitlines()
    assert track[0] == "t,x_half"
    assert len(track) > 50
    field = (tmp_path / "field.csv").read_text(encoding="utf-8").splitlines()
    assert field[0] == "x,u"
    # final field has the domain's node count
    assert len(field) - 1 == int(round((25 - (-60)) / 0.1)) + 1


def test_evolve_too_short_to_measure(tmp_path, capsys):
    code, doc = run_json(
        capsys, "evolve", "--model", "kpp", "--c", "2.5", "--t-run", "0.08",
        "--x-lo", "-40", "--x-hi", "20", "--outdir", str(tmp_path),
    )
    assert code == EXIT_NUMERICS
    assert doc["speed"] is None
    assert doc["rel_error"] is None


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
    ],
)
def test_bad_flag_values_exit_2(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *argv, "--outdir", str(tmp_path))
    assert code == EXIT_CONFIG and out == ""
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


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
