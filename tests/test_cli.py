"""End-to-end CLI checks: file contracts, exit codes, reproducibility."""
import csv
import importlib.util
import itertools
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import twolevel.cli
import twolevel.hydrogen
import twolevel.integrator
import twolevel.pulses
from twolevel.core import TwoLevelAtom
from twolevel.hydrogen import dipole_2s2p
from twolevel.pulses import MAX_GENERATIONS, MAX_POPULATION, ShapingObjective, ranks_on_model

CLI = [sys.executable, "-m", "twolevel.cli"]

#: Pulse files that must be usage errors: an infinite harmonic index, an
#: integer chi too large for a float, and indices that are not integers.
MALFORMED_PULSES = {
    "index-inf": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[1e400, 1]]}',
    "chi-overflow": '{"type": "cosine", "chi": 1' + "0" * 400 + ', "omega": 1}',
    "index-fraction": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[1.5, 1.57]]}',
    "index-bool": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[true, 1.57]]}',
}


#: Each way of naming the pulse of a simulate run, with its arguments.
PULSE_SOURCES = {
    "--pulse-json": ["--pulse-json", "p.json"],
    "--chi/--omega": ["--chi", "1", "--omega", "1"],
    "--ratio": ["--ratio", "10"],
    "--wavelength": ["--wavelength", "3e-6"],
    "--sweep": ["--sweep", "10"],
}


def run_cli(args, cwd):
    return subprocess.run(
        CLI + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def exit_code_without_integration(args, cwd, monkeypatch):
    """Exit code of an in-process run in which any integration fails the test."""
    def no_integration(*_):
        raise AssertionError("integrated before rejecting the arguments")

    for module in (twolevel.cli, twolevel.pulses):
        monkeypatch.setattr(module, "integrate", no_integration)
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as exc_info:
        twolevel.cli.main(args)
    return exc_info.value.code


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


class TestSimulate:
    def test_ratio_run_matches_analytic_within_one_percent(self, tmp_path):
        result = run_cli(
            ["simulate", "--ratio", "10", "--periods", "1", "--analytic", "--out", "run.csv"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 1001
        assert set(rows[0]) == {
            "t", "P1", "P2", "re_a1", "im_a1", "re_a2", "im_a2",
            "P1_analytic", "P2_analytic",
        }
        dev = max(abs(float(r["P2"]) - float(r["P2_analytic"])) for r in rows)
        assert dev < 0.01
        assert (tmp_path / "run.manifest.json").exists()

    def test_zero_coupling_keeps_ground_state(self, tmp_path):
        result = run_cli(
            ["simulate", "--chi", "0", "--omega", "1.0", "--out", "flat.csv"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        rows = read_csv(tmp_path / "flat.csv")
        assert all(float(r["P1"]) == 1.0 for r in rows)

    def test_row_count_contract(self, tmp_path):
        result = run_cli(
            ["simulate", "--chi", "1", "--omega", "1", "--steps-per-period", "250",
             "--periods", "2", "--out", "grid.csv"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert len(read_csv(tmp_path / "grid.csv")) == 501

    def test_reproducible_output_bytes(self, tmp_path):
        args = ["simulate", "--ratio", "10", "--analytic", "--out", "r.csv"]
        assert run_cli(args, tmp_path).returncode == 0
        first_csv = (tmp_path / "r.csv").read_bytes()
        first_manifest = (tmp_path / "r.manifest.json").read_bytes()
        assert run_cli(args, tmp_path).returncode == 0
        assert (tmp_path / "r.csv").read_bytes() == first_csv
        assert (tmp_path / "r.manifest.json").read_bytes() == first_manifest

    def test_manifest_lists_outputs_and_version(self, tmp_path):
        run_cli(["simulate", "--ratio", "10", "--out", "m.csv"], tmp_path)
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["outputs"] == ["m.csv"]
        assert manifest["version"]
        assert manifest["command"][0] == "twolevel"
        assert manifest["parameters"]["ratio"] == 10.0

    def test_pulse_json_input(self, tmp_path):
        payload = {"type": "gaussian", "area": math.pi / 2, "center": 5.0, "width": 0.5}
        (tmp_path / "pulse.json").write_text(json.dumps(payload))
        result = run_cli(
            ["simulate", "--pulse-json", "pulse.json", "--omega21", "0",
             "--periods", "20", "--steps-per-period", "100", "--out", "g.csv"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        rows = read_csv(tmp_path / "g.csv")
        assert float(rows[-1]["P2"]) > 0.999

    def test_sweep_writes_one_csv_per_ratio(self, tmp_path):
        result = run_cli(
            ["simulate", "--sweep", "10,100", "--analytic", "--out", "sweep.csv"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "sweep_ratio10.csv").exists()
        assert (tmp_path / "sweep_ratio100.csv").exists()
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert len(manifest["outputs"]) == 2

    def test_colliding_sweep_outputs_are_usage_error(self, tmp_path):
        result = run_cli(
            ["simulate", "--sweep", "2.0000001,2.0000002", "--out", "s.csv"], tmp_path
        )
        assert result.returncode == 2
        assert "twice" in result.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["--ratio", "nan"],
            ["--sweep", "1,nan"],
            ["--ratio", "10", "--step", "1e-320"],
            ["--ratio", "10", "--periods", "1e12"],
            ["--ratio", "10", "--step", "1e9"],
            ["--wavelength", "3", "--um", "--cm", "--omega21", "0"],
            *(["--pulse-json", f"{name}.json"] for name in MALFORMED_PULSES),
        ],
        ids=["ratio-nan", "sweep-nan", "tiny-step", "huge-periods", "step-over-span",
             "um-and-cm",
             *(f"pulse-{name}" for name in MALFORMED_PULSES)],
    )
    def test_invalid_grid_or_pulse_is_usage_error(self, tmp_path, args):
        for name, text in MALFORMED_PULSES.items():
            (tmp_path / f"{name}.json").write_text(text)
        inputs = sorted(tmp_path.iterdir())
        result = run_cli(["simulate", *args, "--out", "x.csv"], tmp_path)
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize(
        "args, out",
        [
            (["--ratio", "10"], "nodir/x.csv"),
            (["--ratio", "10"], "d"),
            (["--ratio", "10"], "."),
            (["--sweep", "10,100"], "nodir/x.csv"),
            (["--sweep", "10,100"], "."),
            (["--ratio", "10"], "a" * 300 + ".csv"),
        ],
        ids=["missing-dir", "existing-dir", "dot", "sweep-missing-dir", "sweep-dot",
             "name-too-long"],
    )
    def test_unwritable_out_is_usage_error_before_integration(self, tmp_path, monkeypatch,
                                                              capsys, args, out):
        (tmp_path / "d").mkdir()
        code = exit_code_without_integration(["simulate", *args, "--out", out],
                                             tmp_path, monkeypatch)
        assert code == 2
        assert "error: --out" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_sweep_with_error_estimate_is_usage_error_before_integration(
            self, tmp_path, monkeypatch, capsys):
        args = ["simulate", "--sweep", "10,100", "--error-estimate", "--out", "s.csv"]
        assert exit_code_without_integration(args, tmp_path, monkeypatch) == 2
        assert "--error-estimate applies to a single run" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unresolved_grid_is_usage_error_before_integration(self, tmp_path, monkeypatch,
                                                               capsys):
        # At t = 1e20 doubles are 16384 apart, far more than the 3912 a.u. step.
        calls = []

        def counting(atom, pulse, config):
            calls.append(config)
            return twolevel.integrator.integrate(atom, pulse, config)

        monkeypatch.setattr(twolevel.cli, "integrate", counting)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.txt").write_text("kept")
        with pytest.raises(SystemExit) as exc_info:
            twolevel.cli.main(["simulate", "--ratio", "10", "--start=1e20", "--out", "x.csv"])
        assert exc_info.value.code == 2
        assert calls == []
        assert "does not resolve the time t=1e+20" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]

    def test_unresolved_error_estimate_grid_writes_nothing(self, tmp_path, monkeypatch,
                                                           capsys):
        # At t = 1e19 doubles are 2048 apart: the 3912 a.u. step resolves
        # them, the halved step of the estimate does not.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            twolevel.cli.main(["simulate", "--ratio", "10", "--start=1e19", "--error-estimate",
                               "--out", "x.csv"])
        assert exc_info.value.code == 2
        assert "the step 1955.84 does not resolve the time t=1e+19" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            # At t = 1e19 the halved 1956 a.u. step does not resolve the times.
            (["--ratio", "10", "--start=1e19"],
             "the step 1955.84 does not resolve the time t=1e+19"),
            # 6e6 steps, doubled past MAX_STEPS.
            (["--ratio", "10", "--periods", "6000"], "the grid needs 1.2e+07 steps"),
        ],
        ids=["unresolved", "over-max-steps"],
    )
    def test_error_estimate_grid_is_usage_error_before_integration(
            self, tmp_path, monkeypatch, capsys, args, message):
        calls = []

        def counting(integrate):
            def wrapper(atom, pulse, config):
                calls.append(config)
                return integrate(atom, pulse, config)
            return wrapper

        for module in (twolevel.cli, twolevel.integrator):
            monkeypatch.setattr(module, "integrate", counting(module.integrate))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.txt").write_text("kept")
        with pytest.raises(SystemExit) as exc_info:
            twolevel.cli.main(["simulate", *args, "--error-estimate", "--out", "x.csv"])
        assert exc_info.value.code == 2
        assert calls == []
        assert f"--error-estimate: {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("first, second", list(itertools.combinations(PULSE_SOURCES, 2)),
                             ids=[f"{a}-{b}" for a, b in itertools.combinations(PULSE_SOURCES, 2)])
    def test_conflicting_pulse_sources_are_usage_error_before_integration(
            self, tmp_path, monkeypatch, capsys, first, second):
        (tmp_path / "p.json").write_text('{"type": "cosine", "chi": 1.57, "omega": 1}')
        args = ["simulate", *PULSE_SOURCES[first], *PULSE_SOURCES[second], "--out", "x.csv"]
        assert exit_code_without_integration(args, tmp_path, monkeypatch) == 2
        assert f"give one pulse source, not {first} and {second}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    # From level 1 at --start, RK4 at 1000 steps per period tracks
    # sin^2(A(t) - A(start)) to 1.3e-10 at omega21 = 0; the sweep's splitting
    # of 1e-6 omega adds at most (omega21 t)^2 ~ 4e-11 over the period.
    @pytest.mark.parametrize("start", ["0", "1.5707963267948966", "-1", "0.5"])
    @pytest.mark.parametrize("pulse, out", [
        (["--omega21", "0", "--chi", "1.5707963267948966", "--omega", "1"], "x.csv"),
        (["--omega21", "1e-6", "--sweep", "1e6"], "x_ratio1e+06.csv"),
    ], ids=["single", "sweep"])
    def test_analytic_reference_is_prepared_at_start(self, tmp_path, monkeypatch, start,
                                                     pulse, out):
        monkeypatch.chdir(tmp_path)
        assert twolevel.cli.main(["simulate", *pulse, "--start", start, "--analytic",
                                  "--out", "x.csv"]) == 0
        rows = read_csv(tmp_path / out)
        assert (float(rows[0]["P1_analytic"]), float(rows[0]["P2_analytic"])) == (1.0, 0.0)
        assert max(abs(float(r["P2"]) - float(r["P2_analytic"])) for r in rows) <= 1e-9

    def test_missing_pulse_is_usage_error(self, tmp_path):
        result = run_cli(["simulate", "--out", "x.csv"], tmp_path)
        assert result.returncode == 2
        assert result.stderr

    def test_integration_failure_exit_code(self, tmp_path):
        result = run_cli(
            ["simulate", "--chi", "1e308", "--omega", "1", "--out", "bad.csv"], tmp_path
        )
        assert result.returncode == 3
        assert "integration failed" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            # max|V| h of about 4.5 on the 1000-step grid: the states stay
            # finite while the norm grows past 1e200.
            ["--pulse-json", "blowup.json"],
            # The ratio-100 cosine gets 6 steps of h = 1 per period.
            ["--sweep", "10,100", "--step", "1"],
        ],
        ids=["single", "sweep"],
    )
    def test_blown_up_trajectory_is_integration_failure(self, tmp_path, args):
        (tmp_path / "blowup.json").write_text(
            '{"type": "harmonic_sum", "omega": 1, '
            '"coefficients": [[1, 179.17104484994596], [3, 542.2255235302226]]}')
        result = run_cli(["simulate", "--omega21", "0.01", *args, "--out", "x.csv"], tmp_path)
        assert result.returncode == 3
        assert "integration failed: the norm drifted by" in result.stderr
        assert "at t=6.283185307179586" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["blowup.json"]

    def test_failed_write_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        def no_space(path, traj, analytic_pulse):
            raise OSError(f"no space left for {path}")

        monkeypatch.setattr(twolevel.cli, "_write_trajectory_csv", no_space)
        assert twolevel.cli.main(["simulate", "--ratio", "10",
                                  "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"twolevel: error: no space left for {tmp_path / 'x.csv'}\n"

    def test_error_estimate_reported(self, tmp_path):
        result = run_cli(
            ["simulate", "--ratio", "100", "--error-estimate", "--out", "e.csv"], tmp_path
        )
        assert result.returncode == 0, result.stderr
        line = next(
            l for l in result.stdout.splitlines() if l.startswith("step-halving")
        )
        assert float(line.split("=")[1]) < 1e-8

    def test_error_estimate_integrates_each_grid_once(self, tmp_path, monkeypatch):
        steps = []

        def counting(integrate):
            def wrapper(atom, pulse, config):
                traj = integrate(atom, pulse, config)
                steps.append(len(traj) - 1)
                return traj
            return wrapper

        for module in (twolevel.cli, twolevel.integrator):
            monkeypatch.setattr(module, "integrate", counting(module.integrate))
        args = ["simulate", "--ratio", "100", "--error-estimate", "--out", str(tmp_path / "e.csv")]
        assert twolevel.cli.main(args) == 0
        assert steps == [1000, 2000]


class TestDesign:
    def test_design_report_and_verification(self, tmp_path):
        result = run_cli(["design", "--ts", "50", "--pcr", "1e-4", "--verify"], tmp_path)
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "omega" in out and "verdict:" in out
        measured = None
        for line in out.splitlines():
            if line.startswith("measured T_s"):
                measured = float(line.split("=")[1].split()[0])
        assert measured is not None
        assert abs(measured - 50.0) <= 0.2 * 50.0

    def test_larger_budget_gives_smaller_frequency(self, tmp_path):
        def designed_omega(pcr):
            result = run_cli(["design", "--ts", "50", "--pcr", pcr], tmp_path)
            assert result.returncode == 0
            line = next(l for l in result.stdout.splitlines() if l.startswith("omega"))
            return float(line.split("=")[1].split()[0])

        # omega scales as pcr^(1/4): a *larger* leakage budget allows a
        # *larger* frequency, and vice versa.
        assert designed_omega("1e-6") < designed_omega("1e-2")

    def test_invalid_verdict_for_tiny_frequency(self, tmp_path):
        # A one-second-scale window needs omega far below the Lamb shift.
        result = run_cli(["design", "--ts", "1e18", "--pcr", "1e-4"], tmp_path)
        assert result.returncode == 0
        assert "verdict: invalid" in result.stdout

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["report", "verify"])
    def test_overflowing_leakage_bound_exits_two(self, tmp_path, verify):
        # A window this long needs omega so far below the Lamb shift that
        # (omega21/omega)^2 overflows a double.
        result = run_cli(["design", "--ts", "1e200", "--pcr", "0.5"] + verify, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if "error:" in line] == [
            "twolevel: error: the series leakage bound is not a finite double"]

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["report", "verify"])
    def test_overflowing_frequency_exits_two(self, tmp_path, verify):
        # The error names the frequency, not a chi the user never gave.
        result = run_cli(["design", "--ts", "1e-320", "--pcr", "0.5"] + verify, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if "error:" in line] == [
            "twolevel: error: the designed frequency is not a finite double"]

    def test_bad_arguments_exit_two(self, tmp_path):
        assert run_cli(["design", "--ts", "-5", "--pcr", "1e-4"], tmp_path).returncode == 2
        assert run_cli(["design", "--ts", "50", "--pcr", "2"], tmp_path).returncode == 2

    def test_bad_verify_grid_exits_two_before_output(self, tmp_path):
        result = run_cli(
            ["design", "--ts", "50", "--pcr", "1e-4", "--verify", "--steps-per-period", "50"],
            tmp_path,
        )
        assert result.returncode == 2
        assert result.stdout == ""


class TestOptimize:
    def test_single_harmonic_emits_normalized_cosine(self, tmp_path):
        result = run_cli(
            ["optimize", "--pcr", "1e-3", "--omega21", "0", "--n-harmonics", "1",
             "--population", "4", "--generations", "1", "--seed", "3", "--out", "one"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "one_pulse.json").read_text())
        pulse = summary["best_pulse"]
        assert pulse["type"] == "harmonic_sum"
        ((k, chi),) = pulse["coefficients"]
        assert k == 1
        assert abs(chi) == pytest.approx(math.pi / 2, rel=1e-9)
        assert summary["measured_T_s"] == pytest.approx(summary["achieved_T_s"], rel=1e-6)
        line = next(l for l in result.stdout.splitlines() if l.startswith("measured T_s (RK4) ="))
        assert float(line.split("=")[1].split()[0]) == summary["measured_T_s"]

    def test_same_seed_identical_files(self, tmp_path):
        args = [
            "optimize", "--pcr", "1e-4", "--omega21", "0", "--n-harmonics", "2",
            "--population", "6", "--generations", "2", "--seed", "9", "--out", "ga",
        ]
        assert run_cli(args, tmp_path).returncode == 0
        pulse_bytes = (tmp_path / "ga_pulse.json").read_bytes()
        history_bytes = (tmp_path / "ga_history.csv").read_bytes()
        assert run_cli(args, tmp_path).returncode == 0
        assert (tmp_path / "ga_pulse.json").read_bytes() == pulse_bytes
        assert (tmp_path / "ga_history.csv").read_bytes() == history_bytes

    def test_three_harmonics_beats_or_ties_cosine(self, tmp_path):
        base = run_cli(
            ["optimize", "--pcr", "1e-4", "--omega21", "0", "--n-harmonics", "1",
             "--population", "4", "--generations", "1", "--seed", "1", "--out", "base"],
            tmp_path,
        )
        rich = run_cli(
            ["optimize", "--pcr", "1e-4", "--omega21", "0", "--n-harmonics", "3",
             "--population", "8", "--generations", "3", "--seed", "1", "--out", "rich"],
            tmp_path,
        )
        assert base.returncode == 0 and rich.returncode == 0
        t_base = json.loads((tmp_path / "base_pulse.json").read_text())["achieved_T_s"]
        t_rich = json.loads((tmp_path / "rich_pulse.json").read_text())["achieved_T_s"]
        assert t_rich >= t_base - 1e-12

    @pytest.mark.parametrize(
        "pcr, seed",
        [("3.285269400020924e-05", "707434077"), ("4.389954813217139e-05", "905577790")],
    )
    def test_overflowing_candidate_does_not_end_search(self, tmp_path, pcr, seed):
        # Each run meets a candidate whose action nearly cancels at the peak;
        # normalized, it overflows RK4 and must score as unusable.
        result = run_cli(
            ["optimize", "--omega21", "0", "--n-harmonics", "3", "--generations", "40",
             "--pcr", pcr, "--seed", seed, "--out", "ga"],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        summary = json.loads((tmp_path / "ga_pulse.json").read_text())
        history = summary["fitness_history"]
        assert all(b >= a for a, b in zip(history, history[1:]))
        pulse = summary["best_pulse"]
        t_peak = math.pi / (2 * summary["objective"]["omega"])
        action = -sum(
            c / (k * pulse["omega"]) * math.sin(k * pulse["omega"] * t_peak)
            for k, c in pulse["coefficients"]
        )
        assert abs(action) == pytest.approx(math.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("out", ["nodir/x", ".", pytest.param("a" * 300, id="name-too-long")])
    def test_unwritable_out_is_usage_error_before_search(self, tmp_path, monkeypatch,
                                                         capsys, out):
        args = ["optimize", "--pcr", "1e-3", "--population", "4", "--generations", "1",
                "--out", out]
        assert exit_code_without_integration(args, tmp_path, monkeypatch) == 2
        assert "error: --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--population", str(MAX_POPULATION + 1), "--generations", "1"],
             f"population_size must be <= {MAX_POPULATION}"),
            (["--generations", str(MAX_GENERATIONS + 1)],
             f"generations must be <= {MAX_GENERATIONS}"),
            (["--mutation-scale", "inf"], "mutation_scale must be finite"),
        ],
        ids=["population-cap", "generations-cap", "mutation-inf"],
    )
    def test_unbounded_or_nonfinite_ga_setting_is_usage_error(self, tmp_path, monkeypatch,
                                                              capsys, args, message):
        code = exit_code_without_integration(["optimize", "--pcr", "1e-3", *args],
                                             tmp_path, monkeypatch)
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("omega21, on_model", [("0", True), ("0.01", False)],
                             ids=["model-ranked", "rk4-ranked"])
    def test_overflowing_mutation_scale_warns_nothing(self, tmp_path, monkeypatch,
                                                      omega21, on_model):
        # The draws overflow into non-finite genomes, which score as unusable.
        args = ["optimize", "--pcr", "1e-4", "--omega21", omega21,
                "--mutation-scale", "1.7e308", "--out", "ga"]
        atom = TwoLevelAtom(omega21=float(omega21))
        assert ranks_on_model(ShapingObjective(p_cr=1e-4, omega=1.0, atom=atom)) is on_model
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert twolevel.cli.main(args) == 0

    def test_oversized_grid_is_usage_error(self, tmp_path):
        result = run_cli(["optimize", "--pcr", "1e-3", "--horizon", "1e5"], tmp_path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_oversized_generation_is_usage_error_before_scoring(self, tmp_path, monkeypatch,
                                                                 capsys):
        # 10^4 candidates of 10^7 steps each: 10^11 grid steps in one generation.
        def no_scoring(*_):
            raise AssertionError("scored a generation before rejecting its size")

        monkeypatch.setattr(twolevel.pulses, "_fitness", no_scoring)
        args = ["optimize", "--omega21", "0", "--population", "10000", "--horizon", "10000",
                "--generations", "1", "--pcr", "1e-4", "--out", "big"]
        assert exit_code_without_integration(args, tmp_path, monkeypatch) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--population" in errors[0] and "--horizon" in errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_history_is_monotone(self, tmp_path):
        run_cli(
            ["optimize", "--pcr", "1e-4", "--omega21", "0", "--n-harmonics", "2",
             "--population", "6", "--generations", "3", "--seed", "2", "--out", "h"],
            tmp_path,
        )
        rows = read_csv(tmp_path / "h_history.csv")
        values = [float(r["best_T_s"]) for r in rows]
        assert len(values) == 4
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, twolevel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_every_traced_binding_exists(self):
        # The profiler wraps these names where the CLI's modules look them
        # up; a binding that is renamed or deleted breaks every traced run.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for module, attr, *_ in tracer.TARGETS:
            assert callable(getattr(sys.modules[module], attr, None)), f"{module}.{attr}"


class TestInfo:
    def test_prints_reference_numbers(self, tmp_path):
        result = run_cli(["info"], tmp_path)
        assert result.returncode == 0
        out = result.stdout
        assert "3.000000" in out
        lamb_line = next(l for l in out.splitlines() if "Lamb" in l)
        ev = float(lamb_line.split("=")[2].replace("eV", "").strip())
        assert ev == pytest.approx(4.37e-6, rel=1e-9)
        gap_line = next(l for l in out.splitlines() if "3p" in l)
        ev_gap = float(gap_line.split("=")[2].replace("eV", "").strip())
        assert ev_gap == pytest.approx(1.89, rel=1e-9)


class TestDipoleQuadrature:
    def test_only_info_and_design_evaluate_the_dipole(self, tmp_path, monkeypatch, capsys):
        """simulate and optimize never read the dipole; info and design do."""
        calls = []

        def counting_dipole():
            calls.append(1)
            return dipole_2s2p()

        monkeypatch.setattr(twolevel.hydrogen, "dipole_2s2p", counting_dipole)
        monkeypatch.setattr(twolevel.cli, "dipole_2s2p", counting_dipole)
        monkeypatch.chdir(tmp_path)
        main = twolevel.cli.main
        assert main(["simulate", "--ratio", "10", "--out", "one.csv"]) == 0
        assert main(["simulate", "--sweep", "10,100", "--out", "s.csv"]) == 0
        assert main(["optimize", "--omega21", "0", "--population", "6", "--generations", "2",
                     "--pcr", "1e-4", "--out", "ga"]) == 0
        assert len(calls) == 0
        assert main(["info"]) == 0
        after_info = len(calls)
        assert after_info >= 1
        assert main(["design", "--ts", "50", "--pcr", "1e-4", "--verify"]) == 0
        assert len(calls) > after_info
