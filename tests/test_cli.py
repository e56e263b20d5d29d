"""Command-line front-end: configuration handling, CSV output, exit codes."""

import csv
import io
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from fdrigs import cli

REPO_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "default.cfg"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def base_args(*extra):
    return ["sweep", "--config", str(REPO_SCENARIO), *extra]


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_default_scenario_exists():
    assert REPO_SCENARIO.is_file()


def test_sweep_stdout_csv(capsys):
    code, out, err = run(base_args("--set", "sweep_points=3"), capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][0] == "c_x"
    # each requested method contributes a tagged column
    assert "outage:exact-integral" in rows[0]
    assert "outage:lower-bound" in rows[0]
    assert "outage:upper-bound" in rows[0]
    assert len(rows) == 4
    values = [float(r[1]) for r in rows[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sweep_rfc4180_line_endings(tmp_path):
    out_file = tmp_path / "s.csv"
    code = cli.main(base_args("--set", "sweep_points=3", "--out", str(out_file)))
    assert code == 0
    assert b"\r\n" in out_file.read_bytes()


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = base_args("--set", "methods=exact,lb,ub", "--set", "sweep_points=3")
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_repeated_metrics_and_methods_give_one_column_each(capsys):
    code, out, _ = run(base_args("--set", "metrics=outage,throughput,outage",
                                 "--set", "methods=lb,ub,lb,ub", "--set", "sweep_points=2",
                                 "--set", "sweep_var=r", "--set", "sweep_start=0.5",
                                 "--set", "sweep_stop=1"), capsys)
    assert code == 0
    assert parse_csv(out)[0] == [
        "r",
        "outage:lower-bound",
        "outage:upper-bound",
        "throughput:lower-bound",
        "throughput:upper-bound",
    ]


def test_monte_carlo_method_and_keys_are_config_errors(tmp_path, capsys):
    # sampling runs only inside validate: no sweep method and no scenario key reach it
    code, out, err = run(base_args("--set", "methods=mc"), capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert "unknown method 'mc'" in err
    code, out, err = run(base_args("--set", "seed=0"), capsys)
    assert (code, out, err) == (cli.EXIT_CONFIG, "", "config error: unknown field(s): seed\n")
    for key in ("seed", "samples"):
        scenario = tmp_path / f"{key}.cfg"
        scenario.write_text(REPO_SCENARIO.read_text() + f"{key} = 1000000\n")
        code, out, err = run(["sweep", "--config", str(scenario)], capsys)
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err == f"config error: unknown field(s): {key}\n"


@pytest.mark.parametrize("key", ["metrics", "methods"])
def test_empty_metric_or_method_list_is_config_error(key, capsys):
    # an empty method list would run a sweep with no metric column
    code, out, err = run(base_args("--set", f"{key}=", "--set", "sweep_points=2"), capsys)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: at least one {key[:-1]} is required, but {key} is empty\n"


def test_exact_throughput_is_filled_where_the_first_hop_is_sure(tmp_path):
    # at c_x = 1 the first-hop quadrature sums a few ulp above 1; its survival
    # is clamped at 1, so the exact outage is a probability and every
    # throughput cell is filled, with no sidecar
    out_file = tmp_path / "s.csv"
    sets = ["m_sr=4", "m_rd=4", "m_rr=3", "m_sd=2", "pi_sr_db=30", "pi_rd_db=30",
            "pi_rr_db=30", "pi_sd_db=0", "r=0.01", "metrics=outage,throughput",
            "methods=exact,lb", "sweep_points=3"]
    argv = ["sweep", *[arg for s in sets for arg in ("--set", s)], "--out", str(out_file)]
    assert cli.main(argv) == 0
    assert not Path(str(out_file) + ".diagnostics.txt").exists()
    header, *rows = parse_csv(out_file.read_text())
    assert len(rows) == 3
    for row in rows:
        record = dict(zip(header, row))
        assert all(record[key] != "" for key in header)
        for key in header:
            if key.startswith("outage:"):
                assert 0.0 <= float(record[key]) <= 1.0, (key, record)


def test_sweep_derives_throughput_from_outage(monkeypatch, capsys):
    # with both metrics, each exact outage is evaluated once per point and
    # the throughput cell is r (1 - outage) of that same evaluation
    from fdrigs import optimize

    calls = []
    exact = optimize.p_e2e_exact
    monkeypatch.setattr(
        optimize, "p_e2e_exact", lambda *args: calls.append(args) or exact(*args)
    )
    code, out, err = run(
        base_args("--set", "sweep_points=3", "--set", "metrics=outage,throughput",
                  "--set", "methods=exact"),
        capsys,
    )
    assert code == 0
    assert len(calls) == 3
    header, *rows = parse_csv(out)
    for row in rows:
        record = dict(zip(header, row))
        outage = float(record["outage:exact-integral"])
        assert float(record["throughput:exact-integral"]) == pytest.approx(
            1.0 - outage, rel=1e-11, abs=1e-12
        )


def test_db_conversion_at_boundary(capsys):
    # sweeping pi_rr in dB: axis column holds the dB input, metrics see linear
    code, out, err = run(
        base_args("--set", "sweep_var=pi_rr", "--set", "sweep_scale=db",
                  "--set", "sweep_start=0", "--set", "sweep_stop=10",
                  "--set", "sweep_points=2", "--set", "methods=ub"),
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][0] == "pi_rr:db-input"
    assert float(rows[1][0]) == pytest.approx(0.0)
    assert float(rows[2][0]) == pytest.approx(10.0)


def test_later_source_sets_a_link_power_in_either_form(tmp_path, capsys):
    # a link power set in one form drops the other form an earlier source
    # set: the file's linear pi_sr = 100 (20 dB) gives way to a later
    # --set pi_sr_db=0, and within --set the later item wins in either order
    scenario = tmp_path / "linear.cfg"
    scenario.write_text("pi_sr = 100\n", encoding="utf-8")

    def outage_at_proper(*args):
        code, out, err = run(["sweep", *args, "--set", "sweep_points=2", "--set", "methods=lb"], capsys)
        assert code == 0, err
        rows = parse_csv(out)
        assert rows[1][0] == "0"
        return float(rows[1][1])

    at_0db, at_20db = outage_at_proper("--set", "pi_sr_db=0"), outage_at_proper()
    assert at_0db == pytest.approx(0.9675, abs=1e-4)
    assert at_20db == pytest.approx(0.1263, abs=1e-4)
    assert outage_at_proper("--config", str(scenario)) == at_20db
    assert outage_at_proper("--config", str(scenario), "--set", "pi_sr_db=0") == at_0db
    assert outage_at_proper("--set", "pi_sr=100", "--set", "pi_sr_db=0") == at_0db
    assert outage_at_proper("--set", "pi_sr_db=0", "--set", "pi_sr=100") == at_20db


def test_db_scale_rejected_for_dimensionless(capsys):
    code, out, err = run(base_args("--set", "sweep_scale=db"), capsys)
    assert code == cli.EXIT_CONFIG
    assert "power-like" in err


def test_unknown_field_rejected(capsys):
    code, out, err = run(base_args("--set", "bogus=1"), capsys)
    assert code == cli.EXIT_CONFIG
    assert "unknown field" in err


def test_invalid_scenario_value(capsys):
    code, out, err = run(base_args("--set", "p_s=oops"), capsys)
    assert code == cli.EXIT_CONFIG


def test_model_constraint_is_config_error(capsys):
    code, out, err = run(base_args("--set", "p_s=5"), capsys)
    assert code == cli.EXIT_CONFIG


def test_failed_outage_is_evaluated_once_per_point(monkeypatch, tmp_path):
    # an outage that raises serves its outage and its throughput cell from
    # one call, and both cells still get their sidecar line
    from fdrigs import optimize

    calls = []

    def failing(sys_p, sig, target):
        calls.append(sig)
        raise ArithmeticError("stub failure")

    monkeypatch.setitem(optimize.METRICS, ("outage", "exact"), failing)
    out_file = tmp_path / "s.csv"
    code = cli.main(base_args("--set", "sweep_points=3", "--set", "metrics=outage,throughput",
                              "--set", "methods=exact", "--out", str(out_file)))
    assert code == 0
    assert len(calls) == 3
    rows = parse_csv(out_file.read_text())
    assert [row[1:] for row in rows[1:]] == [["", ""]] * 3
    sidecar = Path(str(out_file) + ".diagnostics.txt").read_text().splitlines()
    assert sidecar == [
        f"c_x={value!r} {metric}/exact: stub failure"
        for value in (0.0, 0.5, 1.0)
        for metric in ("outage", "throughput")
    ]


def test_failed_points_get_empty_cells_and_sidecar(tmp_path):
    # the Rayleigh-only bound fails per point under m_sr = 2 without aborting
    out_file = tmp_path / "s.csv"
    code = cli.main(base_args("--set", "m_sr=2", "--set", "sweep_points=3",
                              "--out", str(out_file)))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    # the header names the method's tag even where every point failed
    assert rows[0][-1] == "outage:upper-bound"
    assert rows[1][-1] == ""
    sidecar = Path(str(out_file) + ".diagnostics.txt")
    assert sidecar.is_file()
    assert "ub" in sidecar.read_text()


@pytest.mark.parametrize("command", ["sweep", "optimize", "throughput"])
def test_unwritable_out_is_config_error(command, tmp_path, capsys):
    # the run evaluates, then cannot write its CSV: one config-error line naming the path
    out_file = tmp_path / "no-such-dir" / "x.csv"
    argv = [command, "--config", str(REPO_SCENARIO), "--set", "sweep_points=2", "--out", str(out_file)]
    if command == "throughput":
        argv += ["--set", "sweep_var=r", "--set", "sweep_start=0.5", "--set", "sweep_stop=1.5"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot write {out_file}: ")


def test_unwritable_diagnostics_sidecar_is_config_error(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    sidecar = tmp_path / "s.csv.diagnostics.txt"
    sidecar.mkdir()  # a directory where the sidecar file should go
    code, out, err = run(base_args("--set", "m_sr=2", "--set", "sweep_points=2",
                                   "--out", str(out_file)), capsys)
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot write {sidecar}: ")
    assert out_file.is_file()


def test_optimize_subcommand(tmp_path, capsys):
    out_file = tmp_path / "opt.csv"
    code, out, err = run(
        ["optimize", "--config", str(REPO_SCENARIO), "--out", str(out_file)], capsys
    )
    assert code == 0
    assert "p_r*" in out
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    header, row = rows
    assert "p_r_star" in header
    assert "objective:upper-bound" in header
    record = dict(zip(header, row))
    assert 0.0 < float(record["p_r_star"]) <= 1.0
    assert 0.0 <= float(record["c_x_star"]) <= 1.0
    assert float(record["converged"]) == 1.0


def test_flat_bound_optimum_keeps_the_first_candidate(tmp_path, capsys):
    # at 80 dB of self-interference the bound reads 1 at every candidate;
    # the tie goes to the first, the lower end of the p_r bracket at c_x = 0
    out_file = tmp_path / "flat.csv"
    code, out, err = run(["optimize", "--set", "pi_rr_db=80", "--out", str(out_file)], capsys)
    assert code == 0
    assert "objective  : 1 (upper-bound)" in out
    assert out_file.read_bytes() == (
        b"optimizer,p_r_star,c_x_star,objective:upper-bound,iterations,converged\r\n"
        b"2d-cd,1e-07,0,1,1,1\r\n"
    )


def test_non_finite_optimizer_candidate_is_numerical_error(monkeypatch, capsys):
    from fdrigs import optimize

    monkeypatch.setattr(optimize, "e2e_rayleigh_ub_value", lambda *args: float("nan"))
    code, out, err = run(["optimize", "--config", str(REPO_SCENARIO),
                          "--set", "optimizer=1d-cx"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "non-finite" in err
    assert out == ""
    # grid cells whose survival underflows read outage 1, with no warning:
    # at r = 300 the hop's u passes 1e103, where its polynomial sum would
    # overflow, and at r = 511.9 the threshold v / scale would overflow a
    # double, so it is capped before the divide
    for sets in (["m_rd=4", "m_rr=2", "r=300"], ["m_rd=3", "r=511.9", "pi_rd_db=0"]):
        argv = ["optimize", "--set", "m_sr=2", "--set", "optimizer=grid"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv + [arg for s in sets for arg in ("--set", s)], capsys)
        assert code == cli.EXIT_OK, sets
        assert "objective  : 1 (lower-bound)" in out.splitlines(), sets
    # np.argmin picks the first nan of a grid: the grid refuses it rather
    # than print it
    monkeypatch.setitem(optimize._GRID_OUTAGE, "lb", lambda sys_p, target, p_r, c_x: p_r * c_x * float("nan"))
    code, out, err = run(["optimize", "--set", "m_sr=2", "--set", "optimizer=grid"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "non-finite" in err
    assert out == ""


def test_sweep_whose_survivals_underflow_reads_outage_one(tmp_path):
    # at 800 dB the direct link's theta_i load u passes 1e77, where t**m_i
    # overflowed a float while e^-u was still positive: every outage is 1,
    # with no failed cell and no warning
    out_file = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sweep", "--set", "m_sd=4", "--set", "pi_sd_db=800", "--set", "sweep_points=2",
                         "--set", "methods=exact,lb", "--out", str(out_file)])
    assert code == cli.EXIT_OK
    assert not Path(str(out_file) + ".diagnostics.txt").exists()
    header, *rows = parse_csv(out_file.read_text())
    cells = [cell for row in rows for key, cell in zip(header, row) if key.startswith("outage:")]
    assert cells == ["1"] * 4


def test_optimize_grid_variant(capsys):
    code, out, err = run(
        ["optimize", "--config", str(REPO_SCENARIO), "--set", "optimizer=grid"],
        capsys,
    )
    assert code == 0
    assert "grid" in out


def test_grid_n_below_101_is_config_error(capsys):
    # grid_n is checked whatever the optimizer, also the default one, which
    # runs no grid
    for optimizer in ([], ["--set", "optimizer=grid"]):
        code, out, err = run(
            ["optimize", "--config", str(REPO_SCENARIO), *optimizer, "--set", "grid_n=50"],
            capsys,
        )
        assert code == cli.EXIT_CONFIG
        assert "grid_n" in err


@pytest.mark.parametrize("optimizer", ["2d-cd", "1d-cx", "1d-pr"])
def test_rayleigh_optimizer_off_rayleigh_is_config_error(optimizer, capsys):
    code, out, err = run(
        ["optimize", "--config", str(REPO_SCENARIO), "--set", "m_sr=2",
         "--set", f"optimizer={optimizer}"],
        capsys,
    )
    assert code == cli.EXIT_CONFIG
    assert "optimizer=grid" in err
    assert out == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["sweep", "optimize", "throughput"])
def test_only_throughput_takes_a_seed_and_ignores_it(command, seed, capsys):
    argv = [command, "--config", str(REPO_SCENARIO), "--set", "sweep_var=r",
            "--set", "sweep_start=0.5", "--set", "sweep_stop=1", "--set", "sweep_points=2"]
    if command != "throughput":
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", seed])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        return
    # any int is accepted, and the table is the same as without it
    assert run(argv + ["--seed", seed], capsys) == run(argv, capsys)


def test_every_evaluation_carries_its_method_tag():
    # the sweep header is laid out from METHOD_TAGS before any evaluation
    from fdrigs import optimize
    from fdrigs.model import LinkStat, RateTarget, SignalParams, SystemParams

    sys_p = SystemParams(LinkStat(1, 100.0), LinkStat(1, 100.0), LinkStat(1, 10.0),
                         LinkStat(1, 2.0), p_s=1.0, p_max=1.0)
    sig, target = SignalParams(1.0, 0.9), RateTarget(1.0)
    assert set(optimize.METRICS) == {(metric, method) for metric in ("outage", "ergodic")
                                     for method in optimize.METHOD_TAGS}
    assert len(optimize.METRICS) == 6
    for (metric, method), fn in optimize.METRICS.items():
        assert fn(sys_p, sig, target).method == optimize.METHOD_TAGS[method], (metric, method)


def test_throughput_requires_rate_sweep(capsys):
    code, out, err = run(["throughput", "--config", str(REPO_SCENARIO)], capsys)
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["throughput", "sweep"])
def test_rate_axis_at_zero_is_config_error(command, capsys):
    # RateTarget refuses r = 0; the axis is checked before any evaluation
    code, out, err = run(
        [command, "--config", str(REPO_SCENARIO),
         "--set", "sweep_var=r", "--set", "sweep_start=0",
         "--set", "sweep_stop=1", "--set", "sweep_points=2"],
        capsys,
    )
    assert code == cli.EXIT_CONFIG
    assert "sweep point r=0.0" in err
    assert out == ""


@pytest.mark.parametrize("sets", [["r=600"], ["sweep_var=r", "sweep_start=1", "sweep_stop=2000"]])
def test_overflowing_rate_is_config_error(sets, capsys):
    # RateTarget refuses a rate whose gamma overflows, before any evaluation
    argv = base_args("--set", "sweep_points=2")
    for item in sets:
        argv += ["--set", item]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_CONFIG
    assert "overflows" in err
    assert out == ""


@pytest.mark.parametrize("sets, message", [
    (["pi_rr_db=inf"], "field pi_rr_db: not a finite number: 'inf'"),
    (["pi_rr=1e309"], "field pi_rr: not a finite number: '1e309'"),
    (["p_max=inf"], "field p_max: not a finite number: 'inf'"),
    (["p_r=nan"], "field p_r: not a finite number: 'nan'"),
    (["sweep_var=pi_rr", "sweep_stop=inf"], "field sweep_stop: not a finite number: 'inf'"),
    (["pi_rr_db=4000"], "field pi_rr_db: 4000.0 dB overflows a float"),
    (["sweep_var=pi_rr", "sweep_scale=db", "sweep_stop=4000"],
     "field sweep_stop: 4000.0 dB overflows a float"),
    # the middle point, 3500 dB, is the first to overflow
    (["sweep_var=pi_rr", "sweep_scale=db", "sweep_stop=7000", "sweep_points=3"],
     "field sweep_stop: 7000.0 dB overflows a float"),
    (["sweep_var=pi_sd", "sweep_scale=db", "sweep_start=4000"],
     "field sweep_start: 4000.0 dB overflows a float"),
], ids=["pi_rr_db-inf", "pi_rr-1e309", "p_max-inf", "p_r-nan", "sweep_stop-inf",
        "pi_rr_db-4000", "sweep_stop-4000", "sweep_stop-7000", "sweep_start-4000"])
def test_non_finite_or_overflowing_number_is_config_error(sets, message, capsys):
    # an infinite power gave nan upper bounds and exit 0, and an overflowing
    # dB axis exit 3 with a message that named no key
    argv = base_args("--set", "sweep_points=2")
    for item in sets:
        argv += ["--set", item]
    assert run(argv, capsys) == (cli.EXIT_CONFIG, "", f"config error: {message}\n")


def test_out_of_range_sweep_point_is_config_error(capsys):
    code, out, err = run(base_args("--set", "sweep_stop=1.5", "--set", "sweep_points=2"), capsys)
    assert code == cli.EXIT_CONFIG
    assert "c_x=1.5" in err


def test_relay_power_sweep_past_p_max_is_config_error(tmp_path, capsys):
    # p_r = 1.25 exceeds p_max = 1, as --set p_r=2 does; it left empty cells,
    # a sidecar and exit 0
    out = tmp_path / "pr.csv"
    code, stdout, err = run(base_args("--set", "sweep_var=p_r", "--set", "sweep_start=0.5",
                                      "--set", "sweep_stop=2", "--set", "sweep_points=3",
                                      "--out", str(out)), capsys)
    assert code == cli.EXIT_CONFIG
    assert "sweep point p_r=1.25: p_r=1.25 exceeds p_max=1.0" in err
    assert not out.exists() and not (tmp_path / "pr.csv.diagnostics.txt").exists()


def test_import_loads_no_scipy():
    # SciPy is a test extra only: no module of the package imports it
    probe = ("import sys, fdrigs, fdrigs.cli, fdrigs.acceptance; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_import_loads_no_monte_carlo():
    # sampling runs only inside validate; the sweep has no Monte Carlo column
    probe = "import sys, fdrigs.cli; print(sorted(m for m in ('fdrigs.montecarlo',) if m in sys.modules))"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def test_float_sweep_leaves_numpy_unloaded(tmp_path):
    # every exact, lb and ub column evaluates on floats, on Rayleigh and off
    # it, and so does every public metric on int parameters, which the
    # parameter types store as floats: NumPy's core is never loaded.
    # optimize, in the same process, works on arrays and loads it through
    # the lazy binding
    probe = textwrap.dedent(f"""
        import sys
        from fdrigs import (LinkStat, RateTarget, SignalParams, SystemParams, cli, p_e2e_exact,
                            p_e2e_lb, p_e2e_rayleigh_ub, r_e2e_exact, r_e2e_rayleigh_lb, r_e2e_ub)

        def core():
            return sorted(m for m in ("numpy._core", "numpy.core") if m in sys.modules)

        sweep = ["sweep", "--config", {str(REPO_SCENARIO)!r}, "--set", "sweep_points=3",
                 "--set", "metrics=outage,throughput,ergodic", "--set", "methods=exact,lb,ub"]
        for name, shapes in (("rayleigh", []), ("nakagami", ["--set", "m_sr=2", "--set", "m_rd=3",
                                                           "--set", "m_rr=2"])):
            assert cli.main(sweep + shapes + ["--out", name + ".csv"]) == 0
        sys_p = SystemParams(*[LinkStat(1, pi) for pi in (100, 100, 10, 2)], p_s=1, p_max=1)
        sig = SignalParams(1, 0)
        for outage in (p_e2e_exact, p_e2e_lb, p_e2e_rayleigh_ub):
            outage(sys_p, sig, RateTarget(1))
        for rate in (r_e2e_exact, r_e2e_ub, r_e2e_rayleigh_lb):
            rate(sys_p, sig)
        print("core after floats:", core())
        assert cli.main(["optimize", "--config", {str(REPO_SCENARIO)!r}]) == 0
        print("core after optimize:", core())
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src)).stdout
    lines = [line for line in out.splitlines() if line.startswith("core after")]
    assert lines[0] == "core after floats: []"
    assert lines[1] != "core after optimize: []"
    # every Rayleigh column is filled, the ergodic ones included, so no
    # sidecar is written; off Rayleigh the Rayleigh-only bounds fail per point
    assert (tmp_path / "rayleigh.csv").is_file()
    assert not (tmp_path / "rayleigh.csv.diagnostics.txt").exists()
    assert (tmp_path / "nakagami.csv.diagnostics.txt").is_file()


def test_throughput_columns(tmp_path, capsys):
    argv = ["throughput", "--config", str(REPO_SCENARIO),
            "--set", "sweep_var=r", "--set", "sweep_start=0.5",
            "--set", "sweep_stop=1.5", "--set", "sweep_points=2"]
    code, out, err = run(argv, capsys)
    assert code == 0
    # every column is deterministic: the ignored seed changes nothing
    assert run(argv + ["--seed", "9"], capsys) == (0, out, err)
    rows = parse_csv(out)
    header = rows[0]
    assert header[0] == "r"
    assert any(h.startswith("throughput:pgs-optimized") for h in header)
    assert any(h.startswith("throughput:igs-optimized") for h in header)
    assert header[3:] == ["throughput:hdr-mhdf:closed-form-exact", "throughput:hdr-mrc:exact-integral"]
    for row in rows[1:]:
        r = float(row[0])
        assert all(0.0 <= float(v) <= r for v in row[1:] if v)
    # off Rayleigh too the table is the same bytes on every run and for
    # every seed, and no column carries a standard error; the grid optimum
    # is found there
    shapes = ["--set", "m_sr=2", "--set", "m_rd=2", "--set", "m_rr=3", "--set", "m_sd=2"]
    tables = []
    for n, seed in enumerate(["3", "3", "11"]):
        out_file = tmp_path / f"thr-{n}.csv"
        assert cli.main(["throughput", "--config", str(REPO_SCENARIO), *shapes,
                         "--set", "sweep_var=r", "--set", "sweep_start=0.5", "--set", "sweep_stop=2",
                         "--set", "sweep_points=2", "--seed", seed, "--out", str(out_file)]) == 0
        tables.append(out_file.read_bytes())
    assert tables == [tables[0]] * 3
    assert not [h for h in parse_csv(tables[0].decode())[0] if h.endswith(":stderr")]
    code, out, err = run(["optimize", "--config", str(REPO_SCENARIO), *shapes,
                          "--set", "optimizer=grid"], capsys)
    assert code == cli.EXIT_OK


def test_validate_wiring(monkeypatch, capsys):
    # validate must exit 0 iff every criterion passes; stub the (slow) suite
    from fdrigs import acceptance

    class Stub:
        def __init__(self, passed):
            self.passed = passed

    monkeypatch.setattr(acceptance, "run_all", lambda report=None: [Stub(True)] * 12)
    assert cli.main(["validate"]) == 0
    monkeypatch.setattr(
        acceptance, "run_all", lambda report=None: [Stub(True)] * 11 + [Stub(False)]
    )
    assert cli.main(["validate"]) == cli.EXIT_VALIDATION


def test_parser_reuse_is_stateless(tmp_path, monkeypatch, capsys):
    # one parser serves every call of a process: each call, in each of two
    # passes, must print and write what a fresh process prints and writes
    # for the same argv, and no --set of an earlier call reaches a later
    # one; the rejected call's 80 dB of self-interference would change the
    # throughput tables after it.  The design jobs run every optimizer and
    # the throughput table, on Rayleigh and off it
    scenario = ["--config", str(REPO_SCENARIO)]
    other = [*scenario, "--set", "m_sr=2", "--set", "m_rd=2", "--set", "m_rr=3", "--set", "m_sd=2",
             "--set", "pi_rr_db=5"]
    rates = ["--set", "sweep_var=r", "--set", "sweep_start=0.5", "--set", "sweep_stop=2.5",
             "--set", "sweep_points=3"]
    calls = [
        ["optimize", *scenario, "--set", "optimizer=2d-cd", "--set", "pi_sd_db=0",
         "--out", "opt.csv"],
        ["throughput", *scenario, "--set", "pi_rr_db=80", "--no-such-flag"],
        ["throughput", *scenario, "--set", "sweep_var=r", "--set", "sweep_start=0.5",
         "--set", "sweep_stop=1.5", "--set", "sweep_points=2", "--seed", "9",
         "--out", "thr.csv"],
        ["sweep", *scenario, "--set", "sweep_var=pi_rr", "--set", "sweep_scale=db",
         "--set", "sweep_start=0", "--set", "sweep_stop=20", "--set", "metrics=outage,throughput"],
        ["optimize", *scenario, "--set", "optimizer=2d-cd", "--out", "cd.csv"],
        ["optimize", *scenario, "--set", "optimizer=1d-cx", "--out", "cx.csv"],
        ["optimize", *scenario, "--set", "optimizer=1d-pr", "--out", "pr.csv"],
        ["optimize", *other, "--set", "optimizer=grid", "--out", "grid.csv"],
        ["throughput", *scenario, *rates, "--seed", "5", "--out", "thr-ray.csv"],
        ["throughput", *other, *rates, "--seed", "5", "--out", "thr-other.csv"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    (tmp_path / "fresh").mkdir()
    fresh = [subprocess.run([sys.executable, "-m", "fdrigs.cli", *argv], capture_output=True,
                            cwd=tmp_path / "fresh", env=env) for argv in calls]
    assert [proc.returncode for proc in fresh] == [0, 2] + [0] * 8
    for sub in ("in-1", "in-2"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        for argv, want in zip(calls, fresh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert code == want.returncode, (sub, argv)
            assert captured.out.encode() == want.stdout, (sub, argv)
            assert captured.err.encode() == want.stderr, (sub, argv)
        for name in [argv[argv.index("--out") + 1] for argv in calls if "--out" in argv]:
            assert (tmp_path / sub / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser().parse_args(["sweep"]).set == []
