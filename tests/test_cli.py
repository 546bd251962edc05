"""CLI contract: flags, exit codes, provenance echo, output formats."""

import json
import subprocess
import sys

import pytest

from homophily_lab.cli import main

pytestmark = pytest.mark.usefixtures("clean_seed_env")


@pytest.fixture
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("HOMOPHILY_LAB_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_monte_carlo(monkeypatch):
    """Fail the test if any Monte Carlo replicate is seeded."""

    def refuse(*_):
        raise AssertionError("a Monte Carlo replicate was drawn")

    monkeypatch.setattr("homophily_lab.montecarlo.mix_seed", refuse)


# ----------------------------------------------------------------- analytic


def test_analytic_uniform_mixing_gap_zero(capsys):
    code, out, err = run_cli(
        capsys, "analytic", "--n", "1000", "--f0", "0.2", "--h00", "0.5", "--h11", "0.5"
    )
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert float(record["gap_analytic"]) == 0.0
    assert float(record["k0_analytic"]) == 499.5
    assert float(record["slope_analytic"]) == -101.0
    assert record["k0_mc_mean"] == ""
    # diagnostics live on stderr only
    assert "resolved configuration" in err


def test_analytic_validation_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "analytic", "--n", "1000", "--f0", "1.5", "--h00", "0.5", "--h11", "0.5"
    )
    assert code == 2
    assert out == ""
    assert "f0 out of range" in err


def test_analytic_missing_flag(capsys):
    code, _, err = run_cli(capsys, "analytic", "--n", "1000")
    assert code == 2
    assert "f0" in err


def test_critical_size(capsys):
    code, out, _ = run_cli(capsys, "critical-size", "--n", "1000")
    assert code == 0
    assert out.strip() == "0.2505"


# ----------------------------------------------------------------- generate


def test_generate_writes_canonical_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, err = run_cli(
        capsys,
        "generate", "--n", "4", "--f0", "0.5", "--h00", "1", "--h11", "1",
        "--seed", "7", "-o", str(target),
    )
    assert code == 0
    assert target.read_text() == "# N=4 n0=2 seed=7 h00=1.0 h11=1.0\n0 1\n2 3\n"
    assert "edges=2" in err and "k0=1.0" in err

    first = target.read_bytes()
    code, _, _ = run_cli(
        capsys,
        "generate", "--n", "4", "--f0", "0.5", "--h00", "1", "--h11", "1",
        "--seed", "7", "-o", str(target),
    )
    assert code == 0
    assert target.read_bytes() == first


def test_generate_rejects_n_zero(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "0", "--f0", "0.5", "--h00", "1", "--h11", "1")
    assert code == 2
    assert "n must be >= 2" in err


def test_generate_io_error_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "generate", "--n", "4", "--f0", "0.5", "--h00", "1", "--h11", "1",
        "-o", str(tmp_path / "no" / "such" / "dir" / "g.txt"),
    )
    assert code == 3


# ----------------------------------------------------------------- simulate


def test_simulate_emits_mc_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "50", "--f0", "0.3", "--h00", "0.6", "--h11", "0.4",
        "-r", "10", "--seed", "42",
    )
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["replicates"] == "10"
    assert record["gap_mc_mean"] != ""
    assert float(record["gap_mc_se"]) >= 0.0


def test_simulate_requires_two_replicates(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--n", "50", "--f0", "0.3", "--h00", "0.6", "--h11", "0.4", "-r", "1",
    )
    assert code == 2
    assert "replicates" in err


def test_simulate_over_capacity_exit_2(capsys, no_monte_carlo):
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "1000001", "--f0", "0.2", "--h00", "0.5", "--h11", "0.5", "-r", "2",
    )
    assert code == 2
    assert out == ""
    assert "n_total=1000001 exceeds the configured maximum" in err


# -------------------------------------------------------------------- sweep


def test_sweep_single_point_equals_analytic(capsys):
    code, sweep_out, _ = run_cli(
        capsys,
        "sweep", "--n-grid", "200", "--f0-grid", "0.2", "--h00-grid", "0.8",
        "--h11-grid", "0.8",
    )
    assert code == 0
    code, analytic_out, _ = run_cli(
        capsys, "analytic", "--n", "200", "--f0", "0.2", "--h00", "0.8", "--h11", "0.8"
    )
    assert code == 0
    assert sweep_out == analytic_out


def test_sweep_grid_syntax_and_mixed_axes(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n", "1000", "--f0-grid", "0.2,0.3", "--h00-grid", "0:1:0.1",
        "--h11", "0.5",
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 22


def test_sweep_missing_axis(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "100", "--f0", "0.2", "--h00", "0.5")
    assert code == 2
    assert "h11" in err


def test_sweep_bad_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n", "100", "--f0", "0.2", "--h00-grid", "0:1:0", "--h11", "0.5"
    )
    assert code == 2
    assert "step" in err


def test_sweep_bad_comma_grid_element(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n", "100", "--f0", "0.2", "--h00-grid", "0.1,abc", "--h11", "0.5"
    )
    assert code == 2
    assert out == ""
    assert "abc" in err


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "analytic", "--n", "200", "--f0", "0.2", "--h00", "0.8", "--h11", "0.8",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert records[0]["gap_analytic"] == pytest.approx(-72.0, rel=1e-12)
    assert records[0]["k0_mc_mean"] is None


# -------------------------------------------------------------- provenance


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 200\nf0 = 0.2\nh00 = 0.8\nh11 = 0.8\n")
    code, out_base, _ = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 0
    assert "63.2" in out_base.splitlines()[1].split(",")[4]
    # flag overrides the config value
    code, out_override, _ = run_cli(capsys, "analytic", "--config", str(cfg), "--h00", "0.0")
    assert code == 0
    assert out_override != out_base


def test_echoed_config_reproduces_run(tmp_path, capsys):
    code, out_first, err = run_cli(
        capsys,
        "simulate", "--n", "60", "--f0", "0.25", "--h00", "0.7", "--h11", "0.3",
        "-r", "8", "--seed", "11",
    )
    assert code == 0
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(err)  # the echo block is itself a valid config file
    code, out_second, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert out_second == out_first


def test_env_var_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("HOMOPHILY_LAB_SEED", "42")
    code, out_env, err = run_cli(
        capsys, "simulate", "--n", "50", "--f0", "0.3", "--h00", "0.6", "--h11", "0.4", "-r", "10"
    )
    assert code == 0
    assert "seed = 42" in err
    monkeypatch.delenv("HOMOPHILY_LAB_SEED")
    code, out_flag, _ = run_cli(
        capsys,
        "simulate", "--n", "50", "--f0", "0.3", "--h00", "0.6", "--h11", "0.4",
        "-r", "10", "--seed", "42",
    )
    assert out_env == out_flag


def test_env_var_seed_not_integer(capsys, monkeypatch):
    monkeypatch.setenv("HOMOPHILY_LAB_SEED", "4x2")
    code, out, err = run_cli(
        capsys, "simulate", "--n", "50", "--f0", "0.3", "--h00", "0.6", "--h11", "0.4", "-r", "10"
    )
    assert code == 2
    assert out == ""
    assert "HOMOPHILY_LAB_SEED must be an integer" in err


def test_config_format_rejected_before_run(tmp_path, capsys, no_monte_carlo):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 50\nf0 = 0.3\nh00 = 0.6\nh11 = 0.4\nreplicates = 10\nformat = xml\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "unknown output format 'xml'" in err


# ------------------------------------------------------------------- figure


def test_figure_panel_e_analytic(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys, "figure", "--panel", "e", "--n-grid", "100:2000:100", "-r", "0"
    )
    assert code == 0
    target = tmp_path / "fig1e.csv"
    assert target.exists()
    lines = target.read_text().splitlines()
    assert lines[0].startswith("n_total,f_star_analytic")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 20
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0.25 for v in values)


def test_figure_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "figure", "--panel", "a", "-r", "0")
    assert code == 0
    assert (tmp_path / "fig1a.csv").exists()


def test_figure_unknown_panel(capsys):
    # argparse rejects the choice itself, still exiting with code 2
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--panel", "z", "-r", "0"])
    assert exc.value.code == 2


def test_figure_budget_replicate_one(capsys):
    code, _, err = run_cli(capsys, "figure", "--panel", "a", "-r", "1")
    assert code == 2
    assert "replicates" in err


def test_figure_exhausted_budget_exit_4(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        capsys,
        "figure", "--panel", "e", "-r", "10", "--max-replicates", "20",
        "--n-grid", "1000",
    )
    assert code == 4
    assert "budget" in err


# --------------------------------------------------------------- packaging


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "homophily_lab", "critical-size", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"


def test_no_subcommand_shows_help(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()
