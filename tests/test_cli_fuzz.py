"""Hypothesis fuzz test of the command line: every argv ends in a documented way.

Each draw is one ``cli.main`` call of ``eval``, ``coeffs``, ``density``,
``expand``, ``connect`` or ``sample`` with its parameters drawn from NaN,
+-inf, 0, +-1, 2, an integer too large for a float, ``p/q`` literals and
floats, and each flag sometimes left out.  Whatever the input, the run must
exit 0, 2 (argparse), 3 (parameter) or 4 (non-convergence), no exception may
escape ``main`` (tier-1 also turns any RuntimeWarning into one), and a run
that exits 0 prints no NaN value.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import connect, expand
from qortho.cli import _DENSITIES, _FAMILIES, main

VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "-1", "2", "1" + "0" * 400]),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.floats(-3.0, 3.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
PARAMS = ("q", "y", "rho", "beta", "gamma")


@st.composite
def _flags(draw, names):
    """--name=value for a random subset of names, values from VALUES."""
    return ["--%s=%s" % (name, draw(VALUES)) for name in names if draw(st.booleans())]


def _points(draw):
    return "--x=" + ",".join(draw(st.lists(VALUES, min_size=1, max_size=2)))


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(["eval", "coeffs", "density", "expand", "connect", "sample"]))
    n = "--n=%d" % draw(st.integers(-1, 8))
    if sub in ("eval", "coeffs"):
        argv = [sub, "--family=" + draw(st.sampled_from(sorted(_FAMILIES))), n]
        argv += draw(_flags(PARAMS[:4]))
        return argv + ([_points(draw)] if sub == "eval" else [])
    if sub == "density":
        argv = [sub, "--density=" + draw(st.sampled_from(sorted(_DENSITIES))), _points(draw)]
        return argv + draw(_flags(PARAMS[:4] + ("trunc-eps",)))
    if sub == "expand":
        argv = [sub, "--id=" + draw(st.sampled_from(expand.EXPANSION_IDS))]
        if draw(st.booleans()):
            argv.append(_points(draw))
            argv += draw(_flags(("tol",)))
            if draw(st.booleans()):
                argv.append("--k=%d" % draw(st.integers(-1, 8)))
        else:
            argv.append("--k-max=%d" % draw(st.integers(-1, 8)))
        return argv + draw(_flags(PARAMS))
    if sub == "connect":
        return [sub, "--pair=" + draw(st.sampled_from(connect.PAIRS)), n] + draw(_flags(PARAMS))
    return [sub, "--target=" + draw(st.sampled_from(["fn", "fcn"])),
            "--n=%d" % draw(st.integers(-1, 10)), "--batch=256"] + draw(_flags(PARAMS[:3]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_way(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert not any(field == "nan" for row in rows[1:] for field in row), out
    else:
        assert out == "" and err.count("\n") >= 1
