"""In-process CLI fuzzing: every argument list exits 0, 2 or 3, and every
option that a run sets is read or refused.

For each command, and for each of its options in turn, Hypothesis draws an
argument list of small valid values in which that option holds a bad one
(nan, +-inf, 0, a negative, 1e400, a huge or tiny finite number, a
malformed pulse file, a missing or an existing directory), and runs it
through ``twolevel.cli.main`` in a fresh temporary directory, where a
RuntimeWarning is an error.  The valid values keep every accepted run
small: at most 2.5 periods of 1000 steps, or about 10^4 steps of 1000 a.u.
(2.5 periods of the slowest drive), doubled by ``--error-estimate``, and a
GA of at most 8 candidates over 2 generations.  The lists follow
``cli.OPTION_RULES``: of each group they name one member at most, the bad
option's own if it is in one, and an option read only with a partner has
one, so that the bad value reaches its own check rather than a check of
the rules.  A run that does not exit 0 must leave the directory as it
found it.

Then, for each option, Hypothesis draws a valid run without it that exits
0, and sets the option at a valid value: the run must exit 2 naming the
option, or change its stdout or an output file.

Last, Hypothesis draws a run that would exit 0 in a directory holding old
copies of its outputs, and makes its k-th integration or its k-th staged
write fail: the run must exit with one error line and leave every old file
as it was.
"""
import contextlib
import functools
import io
import os
import re
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twolevel.cli
import twolevel.pulses
from twolevel.cli import OPTION_RULES
from twolevel.integrator import IntegrationError
from twolevel.pulses import MAX_GENERATIONS, MAX_POPULATION

from test_cli import MALFORMED_PULSES, REQUIRED, fail_writes_of

#: Edge values for every numeric option: most are rejected, a few (0 or a
#: negative start, splitting, chi or seed, and large or tiny finite values
#: of several options) are accepted.
EDGE = ["nan", "inf", "-inf", "0", "-1", "1e400", "1e250", "1e-250"]

PULSE_FILES = {
    "cosine.json": '{"type": "cosine", "chi": 1.57, "omega": 1}',
    "harmonic.json": '{"type": "harmonic_sum", "omega": 1, "coefficients": [[1, 1.2], [3, 0.4]]}',
    "gaussian.json": '{"type": "gaussian", "area": 1.57, "center": 2, "width": 0.5}',
    **{f"{name}.json": text for name, text in MALFORMED_PULSES.items()},
}
GOOD_PULSES = ["cosine.json", "harmonic.json", "gaussian.json"]
BAD_PULSES = [f"{name}.json" for name in MALFORMED_PULSES] + ["missing.json", "d"]

#: An existing directory, a missing one, a path that names no file, and a
#: name longer than any file system allows.
BAD_OUT = ["d", "nodir/x.csv", ".", "a" * 300]

# option -> (small valid values, edge and bad values)
OPTIONS = {
    "simulate": {
        "--omega21": (["0.01", "1e-3"], EDGE),
        "--chi": (["1.57", "-1", "1e308"], EDGE),
        "--omega": (["1", "0.5"], EDGE),
        "--ratio": (["10", "100"], EDGE),
        "--wavelength": (["3e-6", "0.03"], EDGE),
        "--pulse-json": (GOOD_PULSES, BAD_PULSES),
        "--periods": (["1", "2.5"], EDGE),
        "--start": (["0", "-1", "0.5"], EDGE),
        "--steps-per-period": (["100", "1000"], EDGE),
        "--step": (["1000"], EDGE),
        "--sweep": (["10,100", "10"], ["1,nan", "a,b", ","] + EDGE),
        "--out": (["x.csv"], BAD_OUT),
    },
    "design": {
        "--ts": (["50", "500"], EDGE),
        "--pcr": (["1e-4", "1e-2"], EDGE),
        "--steps-per-period": (["100", "1000"], EDGE),
    },
    "optimize": {
        "--pcr": (["1e-3", "1e-4"], EDGE),
        "--omega": (["1", "2"], EDGE),
        "--omega21": (["0", "0.01"], EDGE),
        "--horizon": (["1", "1.5"], EDGE),
        "--n-harmonics": (["1", "2", "3"], EDGE),
        "--population": (["4", "8"], [str(MAX_POPULATION + 1)] + EDGE),
        "--generations": (["1", "2"], [str(MAX_GENERATIONS + 1)] + EDGE),
        "--mutation-scale": (["0.2", "0.5", "1.7e308"], EDGE),
        "--seed": (["0", "3"], EDGE),
        "--out": (["ga"], BAD_OUT),
    },
    "info": {},
}
FLAGS = {
    "simulate": ["--analytic", "--error-estimate", "--ev", "--um", "--cm"],
    "design": ["--verify"],
    "optimize": ["--ev"],
    "info": [],
}
# Required by the parser, or (for the GA) a search of 16 candidates over 20
# generations when left out.
ALWAYS = {"--ts", "--pcr", "--population", "--generations"}


def options(name: str) -> list[str]:
    """The options of an OPTION_RULES name: ``chi/omega`` is --chi and --omega."""
    return ["--" + dest.replace("_", "-") for dest in name.split("/")]


def valid_value(draw, command, option):
    """A drawn valid value of a valued option, None for a flag."""
    if option not in OPTIONS[command]:
        return None
    return draw(st.sampled_from(OPTIONS[command][option][0]))


@st.composite
def argument_lists(draw, command, bad_option, left_out=None):
    """Small valid values for some options; ``bad_option`` gets a bad one,
    and ``left_out`` none."""
    groups, partners = OPTION_RULES.get(command, ([], {}))
    chosen, excluded = {}, {left_out}
    # Of each group, one member or none; a member that an earlier group
    # chose, or that holds the bad option, is this group's choice too.
    for _, names in groups:
        members = [options(name) for name in names]
        own = [m for m in members if bad_option in m or set(m) <= set(chosen)]
        allowed = [m for m in members if not set(m) & excluded]
        member = own[0] if own else draw(st.sampled_from([None, *allowed]))
        for m in members:
            if m != member:
                excluded.update(m)
                continue
            for option in m:
                if option not in chosen:
                    chosen[option] = valid_value(draw, command, option)
    for option, (valid, _) in OPTIONS[command].items():
        if (valid and option not in excluded and option not in chosen
                and (option in ALWAYS or draw(st.booleans()))):
            chosen[option] = draw(st.sampled_from(valid))
    for flag in FLAGS[command]:
        if flag not in excluded and flag not in chosen and draw(st.booleans()):
            chosen[flag] = None
    if bad_option is not None:
        chosen[bad_option] = draw(st.sampled_from(OPTIONS[command][bad_option][1]))
    # An option read only with a partner gets one if it holds the bad value,
    # and is left out otherwise.
    while True:
        unread = [(option, others) for name, others in partners.items()
                  for option in options(name) if option in chosen
                  and not any(o in chosen for other in others for o in options(other))]
        if not unread:
            break
        for option, others in unread:
            if option == bad_option:
                partner = options(others[0])[0]
                chosen[partner] = valid_value(draw, command, partner)
            else:
                chosen.pop(option, None)
    return [command] + [arg for item in chosen.items() for arg in option_args(*item)]


def option_args(option: str, value: str | None) -> list[str]:
    """The arguments that give ``option`` its ``value``, None for a flag."""
    return [option] if value is None else [option, value]


CASES = [(command, option) for command, values in OPTIONS.items() for option in [None, *values]]


def snapshot(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def run_in_fresh_directory(argv: list[str]) -> SimpleNamespace:
    """One in-process run: its exit code, stdout and stderr, the directory
    listings before and after it, and the bytes of each file it wrote but
    its manifest, which echoes the command."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in PULSE_FILES.items():
            (root / name).write_text(text)
        (root / "d").mkdir()
        before = snapshot(root)
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = twolevel.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        files = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                 if p.is_file() and str(p.relative_to(root)) not in before
                 and not p.name.endswith(".manifest.json")}
        return SimpleNamespace(code=code, before=before, after=snapshot(root),
                               out=out.getvalue(), err=err.getvalue(), files=files)


@pytest.mark.parametrize("command, bad_option", CASES,
                         ids=[f"{command}{option or ''}" for command, option in CASES])
# derandomize: the same examples, and so the same run time, on every run.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_argument_list_exits_0_2_or_3(command, bad_option, data):
    argv = data.draw(argument_lists(command, bad_option), label="argv")
    run = run_in_fresh_directory(argv)
    assert run.code in (0, 2, 3)
    if run.code != 0:
        assert run.after == run.before


@functools.lru_cache(maxsize=None)
def parsed(command: str, *argv: str) -> dict:
    """The parsed values of every option of ``command`` with ``argv``."""
    return vars(twolevel.cli.build_parser().parse_args([command, *REQUIRED.get(command, []),
                                                        *argv]))


def set_values(command: str, option: str) -> list:
    """The valid values of ``option`` that set it: None for a flag."""
    dest = option[2:].replace("-", "_")
    values = OPTIONS[command][option][0] if option in OPTIONS[command] else [None]
    return [value for value in values
            if parsed(command, *option_args(option, value))[dest] != parsed(command)[dest]]


ADDED = [(command, option) for command in OPTIONS
         for option in [*OPTIONS[command], *FLAGS[command]] if option not in ALWAYS]


@pytest.mark.parametrize("command, option", ADDED,
                         ids=[f"{command}{option}" for command, option in ADDED])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_option_set_is_read_or_refused(command, option, data):
    """Setting ``option`` on a run that exits 0 either exits 2 naming the
    option, or changes stdout or an output file.

    The valid simulate energies are nonzero, because 0 is the same in eV and
    in a.u.; an optimize run always reads --ev, for its --omega.
    """
    base = data.draw(argument_lists(command, None, left_out=option), label="base")
    first = run_in_fresh_directory(base)
    assume(first.code == 0)
    value = data.draw(st.sampled_from(set_values(command, option)), label="value")
    second = run_in_fresh_directory(base + option_args(option, value))
    if second.code == 2 and re.search(re.escape(option) + r"(?![\w-])", second.err):
        return
    assert (second.out, second.files) != (first.out, first.files)


@st.composite
def runs_that_exit_0(draw):
    """A run that exits 0: its arguments, its outputs in the order they are
    written, and the number of integrations it asks ``integrate`` for."""
    kind = draw(st.sampled_from(["single", "sweep", "optimize"]))
    if kind == "single":
        flags = draw(st.lists(st.sampled_from(["--analytic", "--error-estimate"]), unique=True))
        ratio = draw(st.sampled_from(["10", "100"]))
        return ["simulate", "--ratio", ratio, *flags, "--out", "x.csv"], \
            ["x.csv", "x.manifest.json"], 1
    if kind == "sweep":
        ratios = draw(st.lists(st.sampled_from(["10", "20", "50", "100"]), min_size=1,
                               max_size=4, unique=True))
        return ["simulate", "--sweep", ",".join(ratios), "--omega21", "0.3", "--out", "s.csv"], \
            [f"s_ratio{r}.csv" for r in ratios] + ["s.manifest.json"], len(ratios)
    # Ranked on the model, so only the winner is integrated.
    return ["optimize", "--pcr", "1e-3", "--omega21", "0", "--population", "4",
            "--generations", "1", "--out", "o"], \
        ["o_pulse.json", "o_history.csv", "o.manifest.json"], 1


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_failed_run_leaves_old_outputs_as_they_were(data):
    """The k-th integration raises IntegrationError, or the k-th staged write
    raises OSError: the run exits 3 (2 where the GA refuses its winner, or a
    write fails) with one error line, every old output keeps its bytes, and
    no staging directory remains."""
    argv, outputs, integrations = data.draw(runs_that_exit_0(), label="run")
    write = data.draw(st.booleans(), label="failing write")
    k = data.draw(st.integers(1, len(outputs) if write else integrations), label="k")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        root = Path(tmp)
        for name in outputs:
            (root / name).write_text(f"old {name}\n")
        before = {path.name: path.read_bytes() for path in root.iterdir()}
        if write:
            fail_writes_of(patch, outputs[k - 1])
        else:
            calls, integrate_as_before = [], twolevel.cli.integrate

            def integrate(*args, **kwargs):
                calls.append(1)
                if len(calls) == k:
                    raise IntegrationError(f"integration {k} failed", time=0.0)
                return integrate_as_before(*args, **kwargs)

            for module in (twolevel.cli, twolevel.pulses):
                patch.setattr(module, "integrate", integrate)
        patch.chdir(root)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = twolevel.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        staged = list(root.glob(".twolevel-*"))
        after = {path.name: path.read_bytes() for path in root.iterdir() if path.is_file()}
    failed = [line for line in err.getvalue().splitlines()
              if "error:" in line or line.startswith("integration failed:")]
    assert code == (3 if argv[0] == "simulate" and not write else 2)
    assert len(failed) == 1
    assert after == before and staged == []
