"""Fuzzing the CLI's flag domains: whatever the flags, a subcommand exits 0,
1 or 2 and never ends in a traceback, and an exit 2 that cli.main returns
is a configuration error (argparse's own exit 2 is a SystemExit).

Each example runs cli.main in-process, with a deadline, over a domain that
mixes valid values with out-of-domain ones (negative sizes, NaN, inf, empty
lists, non-numbers).  Sizes stay small enough for tier-1; saddle keeps
u >= 1e-3 and n <= 10^6, clear of the r >= 3, u -> 0 cost of the object-dtype
sigma table, and clt-report always gets an --n-list of values <= 60, since
its default list reaches n = 400.  Every value is passed as --flag=value, so a leading minus is a
value, not an option.

A Hypothesis deadline judges an example only after it returns, so each
example also runs under a wall-clock timer (signal.setitimer) whose handler
raises ExampleTimeout, a BaseException that the error handlers of cli.main
and checks.run let through.  Python runs the handler between bytecodes, so
a single long C call (a numpy kernel, one big-int product) is stopped only
when it returns.
"""

import contextlib
import io
import signal
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divpart import cli

FUZZ = settings(max_examples=40, deadline=timedelta(seconds=10))

#: wall-clock seconds after which an example is stopped as hung
EXAMPLE_LIMIT_S = 20.0

ODD_FLOATS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "-0.0", "x", ""])


def mostly(usual, odd):
    """usual four times in five, odd otherwise."""
    return st.tuples(st.integers(0, 4), usual, odd).map(lambda t: t[2] if t[0] == 0 else t[1])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), ODD_FLOATS)


def float_lists(lo, hi):
    usual = st.lists(st.floats(lo, hi).map(repr), min_size=1, max_size=4).map(",".join)
    return mostly(usual, st.sampled_from(["", ",", "nan", "-1,2", "3", "0.5,inf", "1,x"]))


def int_lists(lo, hi):
    """increasing lists most of the time, else unsorted, empty, non-positive
    or non-numeric ones."""
    usual = st.lists(st.integers(lo, hi), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, sorted(set(xs)))))
    return mostly(usual, st.sampled_from(["", ",", "0,5", "-3,10", "60,10", "x", "nan", "5,5"]))


def choices(*names):
    return mostly(st.sampled_from(names), st.just("bogus"))


# 10^11 is past the CLI's prime-cutoff limit, where the sieve needs 47 GiB
PRIME_CUTOFFS = mostly(ints(-10, 20000), st.just("100000000000"))


def flags(**domains):
    """argv tails: each flag absent one time in five, else --flag=value."""
    parts = [mostly(domain.map(lambda v, f=flag: f"--{f.replace('_', '-')}={v}"), st.none())
             for flag, domain in domains.items()]
    return st.tuples(*parts).map(lambda ps: [p for p in ps if p is not None])


class ExampleTimeout(BaseException):
    """An example ran past EXAMPLE_LIMIT_S."""


def _stop(signum, frame):
    raise ExampleTimeout(f"example ran past {EXAMPLE_LIMIT_S} s")


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_LIMIT_S)
    by_argparse = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code, by_argparse = exc.code, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code == 2 and not by_argparse:
        assert err.getvalue().startswith("configuration error:"), (argv, err.getvalue())


def test_a_hung_example_is_stopped(monkeypatch):
    def hang(cfg):
        while True:
            time.sleep(1)

    monkeypatch.setitem(cli._DISPATCH, "table", hang)
    monkeypatch.setitem(globals(), "EXAMPLE_LIMIT_S", 0.2)
    start = time.monotonic()
    with pytest.raises(ExampleTimeout):
        assert_clean_exit(["table"])
    assert time.monotonic() - start < 5.0


@FUZZ
@given(flags(r=ints(-2, 400), N=ints(-3, 30), format=choices("csv", "json")))
def test_table(argv):
    assert_clean_exit(["table", *argv])


@FUZZ
@given(flags(n=ints(-3, 100), r=ints(-1, 4), x_grid=float_lists(0, 10),
             max_negative_mass=floats(0, 1)))
def test_tail(argv):
    assert_clean_exit(["tail", *argv])


@FUZZ
@given(flags(n=ints(-3, 100), r=ints(-1, 4), theta_grid=float_lists(-2, 2),
             max_negative_mass=floats(0, 1)))
def test_mgf(argv):
    assert_clean_exit(["mgf", *argv])


@FUZZ
@given(flags(n=ints(-3, 10**6), r=ints(-1, 4),
             u=floats(1e-3, 1e3),
             mode=choices("general", "paper_literal")))
def test_saddle(argv):
    # --n is required: without it argparse exits 2, which is covered too
    assert_clean_exit(["saddle", *argv])


@FUZZ
@given(flags(r=ints(-1, 6), prime_cutoff=PRIME_CUTOFFS,
             convention=choices("standard", "shifted-zeta")))
def test_constants(argv):
    assert_clean_exit(["constants", *argv])


@FUZZ
@given(flags(r=ints(-1, 60), s=floats(0.5, 1e6), prime_cutoff=PRIME_CUTOFFS))
def test_dirichlet_check(argv):
    assert_clean_exit(["dirichlet-check", *argv])


@FUZZ
@given(int_lists(-3, 60), flags(r=ints(1, 4), max_negative_mass=floats(0, 1)))
def test_clt_report(n_list, argv):
    assert_clean_exit(["clt-report", f"--n-list={n_list}", *argv])


# --quick, the retired reduced sweep, is an unknown flag: argparse's exit 2
@FUZZ
@given(st.booleans(), flags(workers=mostly(ints(-3, 3), st.sampled_from(["0", "-1", "x", ""]))))
def test_verify(quick, argv):
    assert_clean_exit(["verify", *(["--quick"] if quick else []), *argv])
