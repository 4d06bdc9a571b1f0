"""End-to-end checks of the command-line interface.

Each test drives ``semifront.cli.main`` in-process with an explicit
argv, captures the JSON it prints, and inspects the files it writes.
"""

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
    main,
)
from semifront.model import builtin_nicholson


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


# --------------------------------------------------------------- import


def test_import_leaves_scipy_signal_unloaded():
    # importing scipy costs more than most CLI runs compute, and the
    # runtime needs only numpy: neither the import nor a solve loads it
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
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules())\n"
        "solve_profile(builtin_kpp(1.0), 2.5, SolverOptions(step=0.05, t_plus=20.0))\n"
        "print(scipy_modules())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
