"""End-to-end CLI checks: file contracts, exit codes, reproducibility.

This module needs neither scipy nor hypothesis, so it also runs on the
package's runtime dependencies alone (the smoke job in CI).
"""
import csv
import importlib.util
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import twolevel.cli
import twolevel.hydrogen
import twolevel.integrator
import twolevel.pulses
from twolevel._csvtext import format_block
from twolevel.cli import OPTION_RULES
from twolevel.core import TwoLevelAtom
from twolevel.hydrogen import dipole_2s2p
from twolevel.pulses import MAX_GENERATIONS, MAX_POPULATION, ShapingObjective, ranks_on_model

CLI = [sys.executable, "-m", "twolevel.cli"]

#: Pulse files that must be usage errors: an infinite harmonic index, an
#: integer chi too large for a float, indices that are not integers, a
#: harmonic whose frequency k * omega overflows, numbers given as text or
#: as a boolean, and coefficients that are not a list of [k, chi_k] lists.
MALFORMED_PULSES = {
    "index-inf": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[1e400, 1]]}',
    "chi-overflow": '{"type": "cosine", "chi": 1' + "0" * 400 + ', "omega": 1}',
    "index-fraction": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[1.5, 1.57]]}',
    "index-bool": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[true, 1.57]]}',
    "harmonic-overflow": '{"type": "harmonic_sum", "omega": 1e308, "coefficients": [[3, 1]]}',
    "chi-text": '{"type": "cosine", "chi": "1.5", "omega": "1"}',
    "coefficients-text": '{"type": "harmonic_sum", "omega": 1, "coefficients": ["13"]}',
    "area-bool": '{"type": "gaussian", "area": true, "center": 0, "width": 1}',
    "coefficients-scalar": '{"type": "harmonic_sum", "omega": 1, "coefficients": 5}',
}


#: Each way of naming the pulse of a simulate run, with its arguments.
PULSE_SOURCES = {
    "--pulse-json": ["--pulse-json", "p.json"],
    "--chi/--omega": ["--chi", "1", "--omega", "1"],
    "--ratio": ["--ratio", "10"],
    "--wavelength": ["--wavelength", "3e-6"],
    "--sweep": ["--sweep", "10"],
}


#: The options that each command's parser requires.
REQUIRED = {"design": ["--ts", "50", "--pcr", "1e-4"], "optimize": ["--pcr", "1e-4"]}

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_cli(args, cwd, **kwargs):
    return subprocess.run(
        CLI + args, cwd=cwd, capture_output=True, text=True, timeout=300, **kwargs
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

    @pytest.mark.parametrize("pulse, outputs", [
        (["--ratio", "10"], ["{out}"]),
        (["--sweep", "10,20"], ["run_ratio10.{k}", "run_ratio20.{k}"]),
    ], ids=["single", "sweep"])
    def test_dotted_outs_keep_their_own_manifests(self, tmp_path, monkeypatch, pulse, outputs):
        # "run.1" and "run.2" differ only after their last dot, which a
        # replaced suffix would drop; only a final ".csv" is dropped.
        monkeypatch.chdir(tmp_path)
        for k in (1, 2):
            assert twolevel.cli.main(["simulate", *pulse, "--periods", "1",
                                      "--out", f"run.{k}"]) == 0
        for k in (1, 2):
            manifest = json.loads((tmp_path / f"run.{k}.manifest.json").read_text())
            assert manifest["outputs"] == [name.format(out=f"run.{k}", k=k) for name in outputs]
        assert not (tmp_path / "run.manifest.json").exists()

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

    def test_sweep_holds_one_trajectory_at_a_time(self, tmp_path, monkeypatch):
        # A 25-period trajectory is 25001 rows of a time and two amplitudes,
        # 1.0 MB.  Holding all four until the last write peaked at 6.3 MB.
        monkeypatch.chdir(tmp_path)
        args = ["simulate", "--sweep", "10,50,100,300", "--periods", "25", "--analytic",
                "--out", "s.csv"]
        tracemalloc.start()
        try:
            assert twolevel.cli.main(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_sweep_drops_each_trajectory_before_the_next_integration(self, tmp_path,
                                                                      monkeypatch):
        # No earlier trajectory is alive when a job is integrated.
        alive, integrate = [], twolevel.cli.integrate

        def integrate_alone(*args):
            assert [ref for ref in alive if ref() is not None] == []
            traj = integrate(*args)
            alive.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(twolevel.cli, "integrate", integrate_alone)
        monkeypatch.chdir(tmp_path)
        assert twolevel.cli.main(["simulate", "--sweep", "10,50,100", "--out", "s.csv"]) == 0
        assert len(alive) == 3

    def test_sweep_repeats_its_bytes_and_warns_nothing(self, tmp_path):
        env = dict(os.environ, PYTHONWARNINGS="always::DeprecationWarning")
        for run in ("first", "again"):
            (tmp_path / run).mkdir()
            result = run_cli(["simulate", "--sweep", "10,100", "--analytic", "--out", "s.csv"],
                             tmp_path / run, env=env)
            assert result.returncode == 0, result.stderr
            assert result.stderr == ""
        first, again = tmp_path / "first", tmp_path / "again"
        for name in ("s_ratio10.csv", "s_ratio100.csv", "s.manifest.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes()

    def test_cosine_pulse_file_gives_its_harmonic_sum_bytes(self, tmp_path, monkeypatch):
        (tmp_path / "cos.json").write_text(
            '{"type": "cosine", "chi": 1.5707963267948966, "omega": 1}')
        (tmp_path / "sum.json").write_text(
            '{"type": "harmonic_sum", "omega": 1, "coefficients": [[1, 1.5707963267948966]]}')
        monkeypatch.chdir(tmp_path)
        for name in ("cos", "sum"):
            assert twolevel.cli.main(["simulate", "--omega21", "0.01", "--pulse-json",
                                      f"{name}.json", "--analytic", "--out", f"{name}.csv"]) == 0
        assert (tmp_path / "cos.csv").read_bytes() == (tmp_path / "sum.csv").read_bytes()

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

    def test_pulse_with_infinite_period_is_refused_as_it_loads(self, tmp_path, monkeypatch,
                                                               capsys):
        (tmp_path / "p.json").write_text('{"type": "cosine", "chi": 1, "omega": 1e-320}')
        code = exit_code_without_integration(["simulate", "--pulse-json", "p.json"],
                                             tmp_path, monkeypatch)
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "twolevel simulate: error: cannot load pulse JSON: period must be finite, got inf")
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

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
            # Three subnormal steps of 1.5e-323 round to 1e-323 when halved.
            (["--omega21", "0", "--chi", "1", "--omega", "1", "--periods", "1e-322",
              "--step", "1.5e-323"], "the step 1.4822e-323 has no half on the doubles"),
        ],
        ids=["unresolved", "over-max-steps", "subnormal-step"],
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

    def test_usage_error_prints_the_command_usage(self, tmp_path):
        result = run_cli(["simulate", "--ratio", "10", "--steps-per-period", "99"], tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("usage: twolevel simulate [-h] ")
        assert result.stderr.endswith(
            "twolevel simulate: error: steps_per_period must be >= 100, got 99\n")

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
        written = []

        def no_space(path, traj, analytic_pulse):
            written.append(path)
            raise OSError(f"no space left for {path}")

        monkeypatch.setattr(twolevel.cli, "_write_trajectory_csv", no_space)
        assert twolevel.cli.main(["simulate", "--ratio", "10",
                                  "--out", str(tmp_path / "x.csv")]) == 2
        # The writer is given x.csv in the hidden staging directory beside it.
        [staged] = written
        assert staged.name == "x.csv" and staged.parent.parent == tmp_path
        assert staged.parent.name.startswith(".twolevel-")
        err = capsys.readouterr().err
        assert err == f"twolevel simulate: error: no space left for {staged}\n"

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
            "twolevel design: error: the series leakage bound is not a finite double"]

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["report", "verify"])
    def test_overflowing_frequency_exits_two(self, tmp_path, verify):
        # The error names the frequency, not a chi the user never gave.
        result = run_cli(["design", "--ts", "1e-320", "--pcr", "0.5"] + verify, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if "error:" in line] == [
            "twolevel design: error: the designed frequency is not a finite double"]

    def test_verify_reports_a_peak_below_the_threshold(self, tmp_path):
        # The Lamb shift is not small against this drive: P2 peaks near 0.96.
        result = run_cli(["design", "--ts", "3e5", "--pcr", "1e-6", "--verify"], tmp_path)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[-2] == "verdict: marginal"
        prefix = "verify: peak never reaches threshold: max P2 = "
        assert lines[-1].startswith(prefix) and lines[-1].endswith(" < 0.999999")
        assert float(lines[-1][len(prefix):].split()[0]) == pytest.approx(0.95908047, abs=1e-8)
        assert not any(line.startswith("measured") for line in lines)
        assert list(tmp_path.iterdir()) == []

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
        [("3.9611280060992176e-05", "902395275"), ("1.3188307366840103e-05", "772501771")],
    )
    def test_overflowing_candidate_does_not_end_search(self, tmp_path, monkeypatch, pcr, seed):
        # Each run meets a candidate whose action nearly cancels at the peak,
        # so that transfer normalization scales a coefficient past 100 (to
        # about 1540 and 2000 here).  The search goes on past it, and its
        # winner is normalized.
        largest = []
        normalized_rows = twolevel.pulses._normalized_rows

        def recording(*args):
            usable, rows = normalized_rows(*args)
            largest.append(np.abs(rows[usable]).max(initial=0.0))
            return usable, rows

        monkeypatch.setattr(twolevel.pulses, "_normalized_rows", recording)
        monkeypatch.chdir(tmp_path)
        assert twolevel.cli.main(
            ["optimize", "--omega21", "0", "--n-harmonics", "3", "--generations", "40",
             "--pcr", pcr, "--seed", seed, "--out", "ga"]) == 0
        assert max(largest) > 100.0
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

    def test_model_ranked_search_repeats_its_bytes_and_its_rk4_window(self, tmp_path):
        args = ["optimize", "--omega21", "0", "--n-harmonics", "3", "--population", "6",
                "--generations", "3", "--pcr", "1e-4", "--out", "ga"]
        for run in ("first", "again"):
            (tmp_path / run).mkdir()
            result = run_cli(args, tmp_path / run)
            assert result.returncode == 0, result.stderr
        first, again = tmp_path / "first", tmp_path / "again"
        for name in ("ga_pulse.json", "ga_history.csv", "ga.manifest.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes()
        summary = json.loads((first / "ga_pulse.json").read_text())
        history = summary["fitness_history"]
        assert math.isclose(summary["measured_T_s"], summary["achieved_T_s"], rel_tol=1e-6)
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_rk4_ranked_search_reports_its_window_as_measured(self, tmp_path, monkeypatch):
        # p_cr = 1e-4 is below 10 (omega21/omega)^2 = 1e-3, so every
        # candidate is integrated and the two windows are one number.
        objective = ShapingObjective(p_cr=1e-4, omega=1.0, atom=TwoLevelAtom(omega21=0.01))
        assert not ranks_on_model(objective)
        monkeypatch.chdir(tmp_path)
        assert twolevel.cli.main(["optimize", "--omega21", "0.01", "--pcr", "1e-4",
                                  "--population", "6", "--generations", "3", "--out", "ga"]) == 0
        summary = json.loads((tmp_path / "ga_pulse.json").read_text())
        assert summary["measured_T_s"] == summary["achieved_T_s"]

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

    def test_dotted_prefixes_keep_their_own_manifests(self, tmp_path, monkeypatch):
        # "run.1" and "run.2" differ only after their last dot, which a
        # replaced suffix would drop.
        monkeypatch.chdir(tmp_path)
        for prefix in ("run.1", "run.2"):
            assert twolevel.cli.main(["optimize", "--pcr", "1e-3", "--omega21", "0",
                                      "--population", "4", "--generations", "1",
                                      "--out", prefix]) == 0
        for prefix in ("run.1", "run.2"):
            manifest = json.loads((tmp_path / f"{prefix}.manifest.json").read_text())
            assert manifest["outputs"] == [f"{prefix}_pulse.json", f"{prefix}_history.csv"]
        assert not (tmp_path / "run.manifest.json").exists()


def fail_writes_of(monkeypatch, failing):
    """Make every write of the file called ``failing`` raise OSError once its
    bytes are written: the trajectory CSVs and every text output."""
    write_csv, write_text = twolevel.cli._write_trajectory_csv, Path.write_text

    def csv_then_fail(path, traj, analytic_pulse):
        write_csv(path, traj, analytic_pulse)
        if path.name == failing:
            raise OSError(f"no space left for {path}")

    def text_then_fail(path, data, *rest, **kwargs):
        written = write_text(path, data, *rest, **kwargs)
        if path.name == failing:
            raise OSError(f"no space left for {path}")
        return written

    monkeypatch.setattr(twolevel.cli, "_write_trajectory_csv", csv_then_fail)
    monkeypatch.setattr(Path, "write_text", text_then_fail)


def assert_failed_write_changes_nothing(directory, monkeypatch, capsys, args, outputs,
                                        failing):
    """Run ``args`` in ``directory``, which holds old copies of ``outputs``, with
    every write of the file called ``failing`` raising OSError once its bytes
    are written.  The run must exit 2 with one error line and leave the
    directory byte for byte as it was."""
    for name in outputs:
        (directory / name).write_text(f"old {name}\n")
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    fail_writes_of(monkeypatch, failing)
    monkeypatch.chdir(directory)
    assert twolevel.cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"twolevel {args[0]}: error: no space left for ")
    assert err.endswith(f"{failing}\n") and err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
    assert not list(directory.glob(".twolevel-*"))


SWEEP_OUTPUTS = ["s_ratio10.csv", "s_ratio20.csv", "s_ratio50.csv", "s.manifest.json"]
SINGLE_OUTPUTS = ["x.csv", "x.manifest.json"]
OPTIMIZE_OUTPUTS = ["o_pulse.json", "o_history.csv", "o.manifest.json"]


class TestFailedWrite:
    """A write that fails on any output, the manifest too, changes no file."""

    @pytest.mark.parametrize("failing", SWEEP_OUTPUTS)
    def test_failed_sweep_write_changes_nothing(self, tmp_path, monkeypatch, capsys, failing):
        args = ["simulate", "--sweep", "10,20,50", "--omega21", "0.3", "--out", "s.csv"]
        assert_failed_write_changes_nothing(tmp_path, monkeypatch, capsys, args,
                                            SWEEP_OUTPUTS, failing)

    @pytest.mark.parametrize("failing", SINGLE_OUTPUTS)
    def test_failed_single_run_write_changes_nothing(self, tmp_path, monkeypatch, capsys,
                                                     failing):
        args = ["simulate", "--ratio", "10", "--analytic", "--out", "x.csv"]
        assert_failed_write_changes_nothing(tmp_path, monkeypatch, capsys, args,
                                            SINGLE_OUTPUTS, failing)

    @pytest.mark.parametrize("failing", OPTIMIZE_OUTPUTS)
    def test_failed_optimize_write_changes_nothing(self, tmp_path, monkeypatch, capsys,
                                                   failing):
        args = ["optimize", "--pcr", "1e-3", "--omega21", "0", "--population", "4",
                "--generations", "1", "--out", "o"]
        assert_failed_write_changes_nothing(tmp_path, monkeypatch, capsys, args,
                                            OPTIMIZE_OUTPUTS, failing)


class TestOptionRules:
    @pytest.mark.parametrize("command", sorted(OPTION_RULES))
    def test_every_name_is_a_dest_of_its_command(self, command):
        dests = vars(twolevel.cli.build_parser().parse_args([command, *REQUIRED.get(command, [])]))
        groups, partners = OPTION_RULES[command]
        names = [name for _, members in groups for name in members]
        names += [name for option, others in partners.items() for name in [option, *others]]
        for name in names:
            assert set(name.split("/")) <= set(dests), name

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--ratio", "10", "--ev"],
             "--ev is read only with --omega21 or --chi or --omega"),
            (["simulate", "--ratio", "10", "--um"], "--um is read only with --wavelength"),
            (["simulate", "--ratio", "10", "--cm"], "--cm is read only with --wavelength"),
            (["simulate", "--chi", "1"], "--chi is read only with --omega"),
            (["simulate", "--omega", "1"], "--omega is read only with --chi"),
            (["simulate", "--ratio", "10", "--step", "0.1", "--steps-per-period", "5000",
              "--periods", "0.01"], "give --step or --steps-per-period, not both"),
            (["simulate", "--ratio", "10", "--step", "0.1", "--steps", "5000",
              "--periods", "0.01"], "give --step or --steps-per-period, not both"),
            (["design", "--ts", "50", "--pcr", "1e-4", "--steps-per-period", "5000"],
             "--steps-per-period is read only with --verify"),
        ],
        ids=["ev-without-energy", "um-without-wavelength", "cm-without-wavelength",
             "chi-alone", "omega-alone", "step-and-steps-per-period", "step-and-abbreviation",
             "design-steps-without-verify"],
    )
    def test_unread_option_is_usage_error_before_any_other_check(
            self, tmp_path, monkeypatch, capsys, args, message):
        # A simulate --out into a missing directory shows that the rule is
        # checked before the outputs are.
        out = ["--out", "missing/x.csv"] if args[0] == "simulate" else []
        assert exit_code_without_integration(args + out, tmp_path, monkeypatch) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"twolevel {args[0]}: error: {message}"]
        assert list(tmp_path.iterdir()) == []


class TestBadNumbers:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--ratio", "0"], "--ratio must be > 0, got 0.0"),
            (["simulate", "--ratio=-1"], "--ratio must be > 0, got -1.0"),
            (["simulate", "--ratio", "nan"], "--ratio must be finite, got nan"),
            (["simulate", "--ratio", "inf"], "--ratio must be finite, got inf"),
            (["simulate", "--sweep", "10,0"], "--sweep ratio must be > 0, got 0.0"),
            (["simulate", "--sweep", "10,nan"], "--sweep ratio must be finite, got nan"),
            (["simulate", "--sweep", "10,inf"], "--sweep ratio must be finite, got inf"),
            (["simulate", "--sweep", ","], "--sweep needs at least one ratio"),
            (["simulate", "--sweep", "a"], "--sweep expects a comma-separated list of ratios"),
            (["simulate", "--wavelength", "1e400"], "wavelength must be finite, got inf"),
            (["simulate", "--ratio", "1e308", "--omega21", "10"],
             "the drive of --ratio 1e+308 at omega21 = 10 a.u. is out of the range of doubles"),
            (["simulate", "--omega21", "1e300", "--ratio", "1e10"],
             "the drive of --ratio 1e+10 at omega21 = 1e+300 a.u. is out of the range of doubles"),
            (["simulate", "--sweep", "10,1e308", "--omega21", "10"],
             "the drive of --sweep ratio 1e+308 at omega21 = 10 a.u. is out of the range of "
             "doubles"),
            (["simulate", "--wavelength", "1e300"],
             "the drive of --wavelength 1e+300 is out of the range of doubles"),
            (["simulate", "--ratio", "1e-300", "--omega21", "1e-10"],
             "the drive of --ratio 1e-300 at omega21 = 1e-10 a.u. is out of the range of doubles"),
            (["simulate", "--sweep", "1e-300", "--omega21", "1e-10"],
             "the drive of --sweep ratio 1e-300 at omega21 = 1e-10 a.u. is out of the range of "
             "doubles"),
            (["simulate", "--chi", "1", "--omega", "1e-320"], "period must be finite, got inf"),
            (["optimize", "--pcr", "1e-4", "--omega", "inf"], "omega must be finite, got inf"),
            (["optimize", "--pcr", "1e-4", "--omega", "1e-320"],
             "period must be finite, got inf"),
            (["simulate", "--ratio", "10", "--periods", "inf"], "--periods must be finite, got inf"),
            (["simulate", "--ratio", "10", "--periods", "0"], "--periods must be > 0, got 0.0"),
            (["simulate", "--ratio", "10", "--periods=-1"], "--periods must be > 0, got -1.0"),
            (["simulate", "--ratio", "10", "--periods", "1e305"],
             "the end time of --periods 1e+305 is not a finite double"),
            (["simulate", "--ratio", "10", "--start", "inf"], "--start must be finite, got inf"),
            (["optimize", "--pcr", "1e-4", "--horizon", "inf"], "horizon must be finite, got inf"),
            (["optimize", "--pcr", "1e-4", "--horizon", "1e308"],
             "the end time of --horizon 1e+308 is not a finite double"),
            (["optimize", "--pcr", "1e-4", "--omega", "7e307", "--n-harmonics", "3"],
             "the frequency of harmonic 3 is not a finite double"),
            (["optimize", "--pcr", "1e-4", "--seed=-1"], "seed must be >= 0, got -1"),
            (["design", "--ts", "1e-200", "--pcr", "0.5"], "the intensity is not a finite double"),
            (["design", "--ts", "1e300", "--pcr", "1e-300"],
             "the designed frequency must be > 0, got 0.0"),
        ],
        ids=["ratio-zero", "ratio-negative", "ratio-nan", "ratio-inf", "sweep-zero",
             "sweep-nan", "sweep-inf", "sweep-empty", "sweep-text", "wavelength-inf", "ratio-drive-inf",
             "omega21-drive-inf", "sweep-drive-inf", "wavelength-drive-zero",
             "ratio-period-inf", "sweep-period-inf", "simulate-period-inf",
             "optimize-omega-inf", "optimize-period-inf", "periods-inf", "periods-zero",
             "periods-negative", "periods-end-inf", "start-inf", "horizon-inf",
             "horizon-end-inf", "optimize-harmonic-inf", "seed-negative", "intensity-inf",
             "design-frequency-zero"],
    )
    def test_bad_number_is_refused_by_name_before_integration(
            self, tmp_path, monkeypatch, capsys, args, message):
        assert exit_code_without_integration(args, tmp_path, monkeypatch) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"twolevel {args[0]}: error: {message}"]
        assert list(tmp_path.iterdir()) == []


class TestCsvText:
    def test_formatter_writes_percent_17g_at_every_binary_exponent(self):
        # numpy 1.x and 2.x promote uint64 with Python ints differently, and
        # the array formatter must give Python's bytes on either: 64 seeded
        # mantissas at every binary exponent from -1074 (subnormal) to 1023,
        # both signs, then nan, +-inf and +-0.
        rng = np.random.default_rng(22)
        exponent = np.repeat(np.arange(-1074, 1024), 64)
        bits = np.minimum(exponent + 1074, 52)
        fraction = rng.integers(0, 2**52, exponent.size, dtype=np.uint64)
        leading = np.uint64(1) << bits.astype(np.uint64)
        mantissa = fraction % leading + leading
        x = np.ldexp(mantissa.astype(float), exponent - bits)
        assert np.array_equal(np.frexp(x)[1] - 1, exponent)
        x = np.concatenate([x, -x, [np.nan, np.inf, -np.inf, 0.0, -0.0]])
        for columns in (1, 9):
            block = x[:x.size // columns * columns].reshape(-1, columns)
            row_format = ",".join(["%.17g"] * columns) + "\n"
            for start in range(0, len(block), 512):
                rows = block[start:start + 512]
                expected = "".join(row_format % tuple(row) for row in rows.tolist()).encode()
                assert format_block(rows) == expected, rows


class TestDemos:
    @pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
    def test_runs_without_matplotlib_and_writes_nothing_to_stderr(self, tmp_path, demo):
        # None in sys.modules makes `import matplotlib` raise ImportError.
        code = ("import runpy, sys; sys.modules['matplotlib'] = None; "
                "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')")
        result = subprocess.run([sys.executable, "-c", code, str(demo)], cwd=tmp_path,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


#: Every public name of the package, which ``from twolevel import *`` gives.
PUBLIC_NAMES = [
    "AmplitudeState", "Cosine", "DesignRequest", "FieldRegime", "GaussianApprox", "HarmonicSum",
    "IntegrationConfig", "IntegrationError", "OptimizationResult", "OptimizerConfig",
    "PulseSpec", "ShapingObjective", "TRANSFER_ACTION", "Trajectory", "TwoLevelAtom",
    "ValidityReport", "action", "analytic", "core", "degenerate_amplitudes", "design_frequency",
    "detuning_sensitivity", "dipole_2s2p", "field_for_transfer", "flatness_order", "hydrogen",
    "hydrogen_atom", "integrate", "integrator", "lamb_shift", "leakage_at_peak",
    "max_population_deviation", "next_level_gap", "normalize_for_transfer",
    "p2_derivatives", "populated_window", "populated_windows", "populations_from_action",
    "pulse_from_dict", "pulse_value", "pulses", "quartic_peak_approx", "run_optimizer",
    "second_derivative_nulled_pulse", "step_halving_error", "transfer_cosine", "transfer_peak",
    "transfer_populations", "validity_report",
]


def run_python(code, env=None):
    """``python -c code`` in a fresh interpreter; its stripped stdout."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestImport:
    def test_package_import_loads_no_numpy(self):
        assert run_python("import sys, twolevel; print('numpy' in sys.modules)") == "False"

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_cli_loads_numpy_with_one_blas_thread_unless_told(self, given, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = ("import os, sys; import twolevel.cli; "
                "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])")
        assert run_python(code, env) == f"True {expected}"

    def test_star_import_gives_every_public_name(self):
        names = {}
        exec("from twolevel import *", names)
        assert sorted(name for name in names if name != "__builtins__") == PUBLIC_NAMES

    @pytest.mark.skipif(shutil.which("twolevel") is None,
                        reason="the package's console script is not installed")
    def test_console_script_runs_the_cli(self, tmp_path):
        script = subprocess.run(["twolevel", "info"], cwd=tmp_path, capture_output=True,
                                text=True, timeout=60)
        assert script.returncode == 0, script.stderr
        assert script.stdout == run_cli(["info"], tmp_path).stdout

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, twolevel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert run_python(code) == "[]"

    def test_optimize_loads_no_numpy_random(self, tmp_path):
        # The GA draws from the standard library's random; numpy.random and
        # the hashing modules it imports cost about 5.6 MiB.
        script = (
            "import sys, numpy; eager = 'numpy.random' in sys.modules; "
            "import twolevel.cli; code = twolevel.cli.main(sys.argv[1:]); "
            "print(code, eager, 'numpy.random' in sys.modules)"
        )
        args = ["optimize", "--pcr", "1e-4", "--population", "4", "--generations", "1"]
        result = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        code, eager, loaded = result.stdout.splitlines()[-1].split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert (code, loaded) == ("0", "False")

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
        assert "  dipole <2s|z|2p0>       = -3 a.u. (|d| = 3.000000)\n" in out
        assert "  <2s|z|2s> (selection)   = 0 a.u.\n" in out
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
