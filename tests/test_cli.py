import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fracbinom.cli import main, parse_t_grid

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args, tmp_path=None, out_name="out.csv", env_seed=None):
    """Run main() in-process, returning (exit_code, output_text)."""
    out = tmp_path / out_name
    argv = list(args) + ["--out", str(out)]
    if env_seed is not None:
        import os

        os.environ["FRACBIN_SEED"] = str(env_seed)
        try:
            code = main(argv)
        finally:
            del os.environ["FRACBIN_SEED"]
    else:
        code = main(argv)
    return code, out.read_text() if out.exists() else ""


# ---------------------------------------------------------------------------
# t-grid parsing
# ---------------------------------------------------------------------------


def test_parse_linear_grid():
    got = parse_t_grid("0:2:5")
    assert np.allclose(got, [0, 0.5, 1.0, 1.5, 2.0])


def test_parse_log_grid():
    got = parse_t_grid("log:0.1:10:3")
    assert np.allclose(got, [0.1, 1.0, 10.0])


@pytest.mark.parametrize(
    "bad",
    ["", "1:2", "2:1:5", "log:0:1:5", "a:b:c", "1:2:1", "-1:1:3", "0:inf:3", "log:1:nan:3", "log:1:2"],
)
def test_parse_grid_rejects(bad):
    with pytest.raises(ValueError):
        parse_t_grid(bad)


# ---------------------------------------------------------------------------
# golden outputs (CSV schema stability)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,args",
    [
        (
            "moments",
            ["moments", "--lambda", "1", "--mu", "2", "--N", "10", "--M", "4",
             "--nu", "0.8", "--t-grid", "0:2:5"],
        ),
        (
            "pmf",
            ["pmf", "--lambda", "1", "--mu", "2", "--N", "6", "--M", "3",
             "--nu", "0.8", "--t", "0.5"],
        ),
        (
            "extinct",
            ["extinct", "--lambda", "0", "--mu", "1", "--N", "3", "--M", "3",
             "--nu", "1.0", "--t-grid", "0.5:2:4"],
        ),
        (
            "equilibrium",
            ["equilibrium", "--lambda", "1", "--mu", "1", "--N", "4", "--M", "2"],
        ),
        (
            "simulate",
            ["simulate", "--lambda", "1", "--mu", "0", "--N", "12", "--M", "5",
             "--nu", "0.75", "--horizon", "3", "--paths", "1", "--seed", "42"],
        ),
        (
            "ensemble",
            ["ensemble", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
             "--nu", "0.7", "--t-grid", "0.5:1.5:3", "--paths", "200",
             "--seed", "7"],
        ),
    ],
)
def test_golden_file(name, args, tmp_path):
    code, text = run_cli(*args, tmp_path=tmp_path)
    assert code == 0
    assert text == (GOLDEN / f"{name}.csv").read_text()


def test_json_lines_format(tmp_path):
    code, text = run_cli(
        "equilibrium", "--lambda", "1", "--mu", "1", "--N", "2", "--M", "1",
        "--format", "json", tmp_path=tmp_path,
    )
    assert code == 0
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert rows[0] == {"n": 0, "p": 0.25}
    assert [r["p"] for r in rows] == pytest.approx([0.25, 0.5, 0.25])


# ---------------------------------------------------------------------------
# behavior checks
# ---------------------------------------------------------------------------


def test_moments_row_at_zero(tmp_path):
    code, text = run_cli(
        "moments", "--lambda", "1", "--mu", "1", "--N", "100", "--M", "40",
        "--nu", "0.7", "--t-grid", "0:20:5", tmp_path=tmp_path,
    )
    assert code == 0
    first = text.splitlines()[1].split(",")
    assert float(first[1]) == 40.0
    assert float(first[2]) == 0.0
    assert float(first[3]) == 40 * 39


def test_moments_mean_rises_and_falls(tmp_path):
    _, rising = run_cli(
        "moments", "--lambda", "1", "--mu", "1", "--N", "100", "--M", "40",
        "--nu", "0.7", "--t-grid", "0:20:21", tmp_path=tmp_path, out_name="a.csv",
    )
    means = [float(line.split(",")[1]) for line in rising.splitlines()[1:]]
    assert all(a < b for a, b in zip(means, means[1:]))
    assert 40.0 <= means[0] < means[-1] < 50.0
    _, falling = run_cli(
        "moments", "--lambda", "1", "--mu", "3", "--N", "100", "--M", "40",
        "--nu", "0.7", "--t-grid", "0:20:21", tmp_path=tmp_path, out_name="b.csv",
    )
    means = [float(line.split(",")[1]) for line in falling.splitlines()[1:]]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert 25.0 < means[-1] < means[0] <= 40.0


def test_pmf_zero_time_single_row(tmp_path):
    code, text = run_cli(
        "pmf", "--lambda", "1", "--mu", "2", "--N", "8", "--M", "3",
        "--t", "0", tmp_path=tmp_path,
    )
    rows = [line.split(",") for line in text.splitlines()[1:]]
    nonzero = [(int(n), float(p)) for _, n, p in rows if float(p) != 0.0]
    assert nonzero == [(3, 1.0)]


def test_pmf_matches_equilibrium_at_large_t(tmp_path):
    _, at_t = run_cli(
        "pmf", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "4",
        "--nu", "1.0", "--t", "500", tmp_path=tmp_path, out_name="a.csv",
    )
    _, eq = run_cli(
        "equilibrium", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "4",
        tmp_path=tmp_path, out_name="b.csv",
    )
    p_t = [float(r.split(",")[2]) for r in at_t.splitlines()[1:]]
    p_eq = [float(r.split(",")[1]) for r in eq.splitlines()[1:]]
    assert max(abs(a - b) for a, b in zip(p_t, p_eq)) <= 1e-6


def test_pmf_zero_column_matches_extinct(tmp_path):
    _, dist = run_cli(
        "pmf", "--lambda", "1", "--mu", "2", "--N", "8", "--M", "3",
        "--nu", "0.7", "--t", "1.25", tmp_path=tmp_path, out_name="a.csv",
    )
    _, ext = run_cli(
        "extinct", "--lambda", "1", "--mu", "2", "--N", "8", "--M", "3",
        "--nu", "0.7", "--t-grid", "1.25:2.5:2", tmp_path=tmp_path, out_name="b.csv",
    )
    p0 = float(dist.splitlines()[1].split(",")[2])
    e0 = float(ext.splitlines()[1].split(",")[1])
    assert p0 == pytest.approx(e0, abs=1e-12)


def test_extinct_pure_death_closed_form(tmp_path):
    code, text = run_cli(
        "extinct", "--lambda", "0", "--mu", "1", "--N", "3", "--M", "3",
        "--nu", "1", "--t-grid", "1:2:2", tmp_path=tmp_path,
    )
    got = float(text.splitlines()[1].split(",")[1])
    assert got == pytest.approx((1 - math.exp(-1)) ** 3, abs=1e-12)


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--lambda", "1", "--mu", "0", "--N", "100", "--M", "5",
            "--nu", "0.75", "--horizon", "40", "--paths", "2", "--seed", "11"]
    _, a = run_cli(*args, tmp_path=tmp_path, out_name="a.csv")
    _, b = run_cli(*args, tmp_path=tmp_path, out_name="b.csv")
    assert a == b


def test_ensemble_deterministic_bytes(tmp_path):
    args = ["ensemble", "--lambda", "1", "--mu", "1", "--N", "20", "--M", "8",
            "--nu", "0.8", "--t-grid", "0.5:2:4", "--paths", "300", "--seed", "3"]
    _, a = run_cli(*args, tmp_path=tmp_path, out_name="a.csv")
    _, b = run_cli(*args, tmp_path=tmp_path, out_name="b.csv")
    assert a == b


def test_seed_from_environment(tmp_path):
    args = ["simulate", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
            "--nu", "1", "--horizon", "2", "--paths", "1"]
    _, a = run_cli(*args, tmp_path=tmp_path, out_name="a.csv", env_seed=555)
    _, b = run_cli(*args, tmp_path=tmp_path, out_name="b.csv", env_seed=555)
    _, c = run_cli(*args + ["--seed", "556"], tmp_path=tmp_path, out_name="c.csv",
                   env_seed=555)
    assert a == b
    assert a != c  # explicit --seed wins over the environment


def test_non_integer_seed_from_environment_is_a_config_error(tmp_path, capsys):
    code, text = run_cli(
        "simulate", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
        "--horizon", "2", tmp_path=tmp_path, env_seed="1.5",
    )
    assert code == 2
    assert text == ""
    assert "FRACBIN_SEED must be an integer" in capsys.readouterr().err


def test_generated_seed_goes_to_stderr(monkeypatch, capsys):
    monkeypatch.delenv("FRACBIN_SEED", raising=False)
    code = main(["simulate", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
                 "--horizon", "2"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err.startswith("seed: ") and int(err.split()[1]) >= 0
    assert out.splitlines()[0] == "path_id,t,state"
    assert out.splitlines()[1] == "0,0.0,5"


def test_config_error_exit_code(tmp_path):
    code, _ = run_cli(
        "moments", "--lambda", "-1", "--mu", "1", "--N", "10", "--M", "5",
        "--t-grid", "0:1:3", tmp_path=tmp_path,
    )
    assert code == 2
    code, _ = run_cli(
        "moments", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
        "--t-grid", "junk", tmp_path=tmp_path,
    )
    assert code == 2
    # an order below the floor, or a rate sum that overflows, would print rows of NaN
    for rates in (["--lambda", "1", "--mu", "1", "--nu", "1e-20"], ["--lambda", "1e308", "--mu", "1e308"]):
        code, text = run_cli("moments", *rates, "--N", "10", "--M", "3", "--t-grid", "0:1:2", tmp_path=tmp_path)
        assert (code, text) == (2, "")


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = main(["equilibrium", "--lambda", "1", "--mu", "1", "--N", "4", "--M", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")
    assert not out.exists()


@pytest.mark.parametrize("paths", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_path(tmp_path, paths):
    code, text = run_cli(
        "simulate", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
        "--horizon", "1", "--paths", paths, "--seed", "1", tmp_path=tmp_path,
    )
    assert code == 2
    assert text == ""


def test_accuracy_error_exit_code(tmp_path, monkeypatch):
    from fracbinom import cli
    from fracbinom.analytics import AccuracyError

    def boom(params, t):
        raise AccuracyError("synthetic cancellation failure")

    monkeypatch.setattr(cli.analytics, "pmf", boom)
    code, _ = run_cli(
        "pmf", "--lambda", "1", "--mu", "1", "--N", "10", "--M", "5",
        "--t", "1", tmp_path=tmp_path,
    )
    assert code == 3


def test_validate_quick_suite_passes(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 7
    assert lines[-1] == "0 failure(s)"


def test_validate_has_no_suite_option():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--suite", "quick"])
    assert exc.value.code == 2


def test_validate_forced_failure_exits_nonzero(monkeypatch, capsys):
    from fracbinom import cli

    def one_failing_check():
        yield "synthetic", lambda: (False, "forced")

    monkeypatch.setattr(cli, "_validation_checks", one_failing_check)
    assert main(["validate"]) == 4
    assert "FAIL synthetic: forced" in capsys.readouterr().out.splitlines()


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fracbinom", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_import_leaves_validation_stack_unloaded():
    # the extended-precision library and all of scipy are loaded only by the
    # calls that use them
    code = (
        "import sys, fracbinom.cli; "
        "print('mpmath' in sys.modules, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "[]"]


def test_distribution_calls_leave_scipy_unloaded():
    # the state probabilities need numpy only; scipy serves the reference
    # oracles alone
    code = (
        "import sys\n"
        "from fracbinom import ProcessParams, analytics as a\n"
        "p, birth = ProcessParams(1, 2, 40, 15, 0.7), ProcessParams(1, 0, 20, 5, 0.8)\n"
        "a.pmf(p, 1.0); a.pmf(p, 1e-3); a.pure_birth_pmf(birth, 0.5)\n"
        "a.equilibrium_pmf(p); a.pgf(p, 0.4, 1.0); a.extinction_probability(p, 2.0)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
