"""In-process CLI fuzzing: every argument list exits 0, 2 or 3.

For each command, and for each of its options in turn, Hypothesis draws an
argument list of small valid values in which that option holds a bad one
(nan, +-inf, 0, a negative, 1e400, a huge or tiny finite number, a
malformed pulse file, a missing or an existing directory), and runs it through ``twolevel.cli.main`` in a fresh
temporary directory, where a RuntimeWarning is an error.  The valid values
keep every accepted run small: at most 2.5 periods of 1000 steps (doubled
by ``--error-estimate``) and a GA of at most 8 candidates over 2
generations.  A simulate list names at most one pulse source, the bad
option's own if it is one, so that the bad value reaches its own check
rather than the check for conflicting sources.  A run that does not exit 0
must leave the directory as it found it.
"""
import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twolevel.cli
from twolevel.pulses import MAX_GENERATIONS, MAX_POPULATION

from test_cli import MALFORMED_PULSES

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
        "--step": ([], EDGE),
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
#: simulate's pulse sources; --chi and --omega together are one.
PULSE_SOURCES = [{"--pulse-json"}, {"--chi", "--omega"}, {"--ratio"}, {"--wavelength"},
                 {"--sweep"}]
# Required by the parser, or (for the GA) a search of 16 candidates over 20
# generations when left out.
ALWAYS = {"--ts", "--pcr", "--population", "--generations"}


@st.composite
def argument_lists(draw, command, bad_option):
    """Small valid values for some options; ``bad_option`` gets a bad one."""
    excluded = set()
    if command == "simulate":
        own = [source for source in PULSE_SOURCES if bad_option in source]
        source = own[0] if own else draw(st.sampled_from([set(), *PULSE_SOURCES]))
        excluded = set().union(*PULSE_SOURCES) - source
    chosen = {}
    for option, (valid, _) in OPTIONS[command].items():
        if valid and option not in excluded and (option in ALWAYS or draw(st.booleans())):
            chosen[option] = draw(st.sampled_from(valid))
    if bad_option is not None:
        chosen[bad_option] = draw(st.sampled_from(OPTIONS[command][bad_option][1]))
    argv = [command]
    for option, value in chosen.items():
        argv += [option, value]
    return argv + [flag for flag in FLAGS[command] if draw(st.booleans())]


CASES = [(command, option) for command, options in OPTIONS.items() for option in [None, *options]]


def snapshot(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def run_in_fresh_directory(argv: list[str]) -> tuple[int, list[str], list[str]]:
    """Exit code and directory listings before and after one in-process run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in PULSE_FILES.items():
            (root / name).write_text(text)
        (root / "d").mkdir()
        before = snapshot(root)
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = twolevel.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        return code, before, snapshot(root)


@pytest.mark.parametrize("command, bad_option", CASES,
                         ids=[f"{command}{option or ''}" for command, option in CASES])
# derandomize: the same examples, and so the same run time, on every run.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_argument_list_exits_0_2_or_3(command, bad_option, data):
    argv = data.draw(argument_lists(command, bad_option), label="argv")
    code, before, after = run_in_fresh_directory(argv)
    assert code in (0, 2, 3)
    if code != 0:
        assert after == before
