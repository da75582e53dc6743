"""End-to-end tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and stdout
can be asserted without spawning subprocesses.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qortho
from qortho import connect, expand
from qortho.cli import main
from qortho.qcore import q_binomial_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_float_output(self, capsys):
        code, out = run(capsys, "eval", "--family", "qhermite",
                        "--n", "3", "--q", "0.5", "--x", "1.0")
        assert code == 0
        assert out.splitlines() == [
            "# qortho v1, eval, family=qhermite n=3 q=0.5 x=1.0",
            "n,x,value",
            "3,1.0,-1.5",
        ]

    def test_exact_rational_path(self, capsys):
        code, out = run(capsys, "eval", "--family", "qhermite",
                        "--n", "3", "--q", "1/2", "--x", "1")
        assert code == 0
        assert out.splitlines()[-1] == "3,1,-3/2"

    def test_json_format(self, capsys):
        code, out = run(capsys, "eval", "--family", "rogers", "--n", "2",
                        "--q", "1/2", "--x", "1", "--beta", "1/3",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "x", "value"]
        assert doc["meta"]["subcommand"] == "eval"
        assert doc["rows"] == [[2, 1, "-1/3"]]

    def test_rerun_is_byte_identical(self, capsys):
        argv = ("eval", "--family", "chebu", "--n", "5", "--x", "3/7")
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


class TestCoeffs:
    def test_rows_cover_all_orders(self, capsys):
        code, out = run(capsys, "coeffs", "--family", "chebu-hat",
                        "--n", "2", "--q", "1/5")
        assert code == 0
        assert out.splitlines()[1:] == [
            "n,k,coeff", "2,0,-5/4", "2,1,0", "2,2,1",
        ]


class TestConnect:
    def test_single_row_descending(self, capsys):
        code, out = run(capsys, "connect", "--pair", "t-from-u",
                        "--n", "2", "--q", "1/3")
        assert code == 0
        assert out.splitlines()[1:] == ["n,k,coeff", "2,2,1/2", "2,0,-1/2"]

    def test_parametrized_pair(self, capsys):
        code, out = run(capsys, "connect", "--pair", "h-from-asc",
                        "--n", "2", "--q", "1/3", "--y", "2/5",
                        "--rho", "1/4")
        assert code == 0
        assert out.splitlines()[2:] == ["2,2,1", "2,1,2/15", "2,0,-21/400"]

    @pytest.mark.parametrize("pair", ["kesten-from-asc", "uhat-from-asc"])
    def test_zero_entry_is_one_exact_type(self, capsys, pair):
        # kesten-from-asc printed the int 1 as [0, 0, 1] at an int q
        code, out = run(capsys, "connect", "--pair", pair, "--n", "0", "--q", "0",
                        "--y", "1/3", "--rho", "1/4", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == [[0, 0, "1"]]


class TestDensity:
    def test_value(self, capsys):
        code, out = run(capsys, "density", "--density", "fn",
                        "--q", "0.5", "--x", "0.0")
        assert code == 0
        x, value = out.splitlines()[-1].split(",")
        assert float(x) == 0.0
        assert float(value) == pytest.approx(0.3694971448731518, abs=1e-15)


class TestExpand:
    def test_adaptive_row(self, capsys):
        code, out = run(capsys, "expand", "--id", "n_over_u",
                        "--q", "0.3", "--x", "0.5")
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(0.3284551948255895, abs=1e-12)
        assert float(row[2]) < 1e-9  # reported tail bound

    @pytest.mark.parametrize("eid", ["cn_over_k", "cn_over_u"])
    def test_first_coefficient_is_one_exact_type(self, capsys, eid):
        # cn_over_k printed the int 1 as [0, 1] at an int q
        code, out = run(capsys, "expand", "--id", eid, "--q", "0", "--y", "1/3",
                        "--rho", "1/4", "--k-max", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0] == [0, "1"]

    @pytest.mark.parametrize("argv", [
        ["--id", "cn_over_u", "--q", "1/2", "--y", "1/3", "--rho", "1/2"],
        ["--id", "cn_over_k", "--q", "0.5", "--y", "0.3", "--rho", "0.5"],
        ["--id", "pm_q0", "--y", "1/3", "--rho", "1/2"],
    ])
    def test_listing_builds_its_rows_once(self, capsys, argv):
        # one q-binomial table for all 31 coefficients, not one per coefficient
        calls = []

        def counted(q):
            calls.append(q)
            return q_binomial_table(q)

        with mock.patch.object(expand, "q_binomial_table", counted), \
                mock.patch.object(connect, "q_binomial_table", counted):
            code, out = run(capsys, "expand", *argv, "--k-max", "30")
        assert code == 0 and len(out.splitlines()) == 33
        assert len(calls) == 1


class TestVerify:
    def test_normalization_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "normalization",
                        "--q", "0.3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("# checks=")
        assert lines[2] == "check_id,params,residual,tolerance,pass"
        assert all(l.endswith(",true") for l in lines[3:])

    def test_default_identity_grid(self, capsys):
        code, out = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert out.splitlines()[1] == "# checks=66, failures=0"

    @pytest.mark.parametrize("suite,checks", [("identities", 22), ("envelope", 2)])
    def test_q_grid_reaches_every_suite(self, capsys, suite, checks):
        code, out = run(capsys, "verify", "--suite", suite, "--q-grid", "0.45",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["checks"] == checks
        assert {json.loads(row[1])["q"] for row in doc["rows"]} == {0.45}

    def test_tol_reaches_identities_but_not_the_envelope_slack(self, capsys):
        argv = ("verify", "--q-grid", "0.3", "--tol", "1e-12", "--format", "json")
        _, out = run(capsys, *argv, "--suite", "identities")
        assert {row[3] for row in json.loads(out)["rows"]} == {1e-12}
        _, out = run(capsys, *argv, "--suite", "envelope")
        assert {row[3] for row in json.loads(out)["rows"]} == {1e-9}


class TestSample:
    def test_metadata_and_determinism(self, capsys):
        argv = ("sample", "--target", "fn", "--q", "0.5",
                "--n", "50", "--seed", "7")
        code, first = run(capsys, *argv)
        assert code == 0
        meta = first.splitlines()[1]
        assert meta.startswith("# acceptance_rate=")
        assert "envelope=1.64163" in meta
        _, second = run(capsys, *argv)
        assert first == second

    def test_proposals_count_evaluated_ratios(self, capsys):
        # the rows are the draw stream of full 65 536-point batches; proposals=
        # counts the ratios evaluated: one segment of 8 M + 6 sqrt(8 M) + 16
        _, out = run(capsys, "sample", "--target", "fn", "--q", "0.5", "--n", "8",
                     "--seed", "7")
        lines = out.splitlines()
        assert lines[1] == ("# acceptance_rate=0.6274509803921569, "
                            "envelope=1.6416327840812803, proposals=51")
        assert lines[3:5] == ["0,-0.29815624918796535", "1,0.6975228369671719"]

    def test_binary_out(self, capsys, tmp_path):
        path = tmp_path / "draws.f8"
        code, _ = run(capsys, "sample", "--target", "fn", "--q", "0.5",
                      "--n", "32", "--seed", "1", "--binary",
                      "--out", str(path))
        assert code == 0
        data = np.fromfile(path, dtype="<f8")
        assert data.shape == (32,)
        assert np.all(np.abs(data) < 4.0)


class TestExitCodes:
    def test_missing_family_parameter(self, capsys):
        code = main(["eval", "--family", "rogers",
                     "--n", "2", "--q", "1/2", "--x", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "requires --beta" in err

    @pytest.mark.parametrize("argv", [
        ["--id", "cn_over_n", "--q", "1/2"],
        ["--id", "pm_q0", "--rho", "1/2"],
        ["--id", "n_over_u", "--x", "0.1"],
    ])
    def test_missing_expansion_parameter(self, capsys, argv):
        code = main(["expand"] + argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "needs parameter" in err

    @pytest.mark.parametrize("argv", [
        ["--id", "u_over_n", "--q", "1", "--x", "0"],
        ["--id", "r_over_n", "--q", "1", "--beta", "0.3", "--x", "0"],
        ["--id", "u_over_n", "--q", "1"],
        # these coefficient listings exited 0, though no density exists at q = 1
        ["--id", "n_over_u", "--q", "1", "--k-max", "4"],
        ["--id", "r_over_n", "--q", "1", "--beta", "0.5", "--k-max", "4"],
        ["--id", "n_over_r", "--q", "1", "--gamma", "0.5", "--k-max", "4"],
        ["--id", "cn_over_u", "--q", "1", "--y", "0.3", "--rho", "0.5", "--k-max", "4"],
        ["--id", "cn_over_k", "--q", "1", "--y", "0.3", "--rho", "0.5", "--k-max", "4"],
    ])
    def test_expansion_target_missing_at_unit_q(self, capsys, argv):
        # only cn_over_n and n_over_cn (and mehler_classical) admit q = 1
        code = main(["expand"] + argv)
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "qortho: expansion %r needs -1 < q < 1, got q=1\n" % (argv[1],)

    @pytest.mark.parametrize("argv", [
        ["--id", "r_over_n", "--q", "1/2", "--beta", "2", "--k-max", "3"],
        ["--id", "n_over_r", "--q", "1/2", "--gamma", "1", "--k-max", "3"],
        ["--id", "r_over_n", "--q", "1", "--beta", "1", "--k-max", "3"],
        ["--id", "n_over_cn", "--q", "1/2", "--rho", "1", "--y", "0", "--k-max", "3"],
        ["--id", "r_over_n", "--q", "0.5", "--beta", "2", "--x", "0"],
        ["--id", "cn_over_n", "--q", "0.5", "--rho", "2", "--y", "0", "--x", "0"],
    ])
    def test_expansion_parameter_outside_unit_disc(self, capsys, argv):
        code = main(["expand"] + argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "< 1" in err

    @pytest.mark.parametrize("argv", [
        ["density", "--density", "fn", "--q", "0.5", "--x", "nan"],
        ["expand", "--id", "n_over_u", "--q", "0.5", "--x", "nan"],
        ["sample", "--target", "fcn", "--q", "0.5", "--y", "nan", "--rho", "0.3",
         "--n", "10"],
    ])
    def test_nan_point(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "nan" in err.lower()

    @pytest.mark.parametrize("batch", ["0", "-5"])
    def test_nonpositive_sample_batch(self, capsys, batch):
        code = main(["sample", "--target", "fn", "--q", "0.5", "--n", "10",
                     "--batch=" + batch])
        err = capsys.readouterr().err
        assert code == 3
        assert "batch must be an integer >= 1, got " in err

    def test_negative_seed(self, capsys):
        # it exited 1 with a numpy traceback
        code = main(["sample", "--target", "fn", "--q", "0.5", "--n", "1", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (3, "", "qortho: seed must be an integer >= 0, got -1\n")

    @pytest.mark.parametrize("argv,name", [
        (["expand", "--id", "n_over_u", "--q", "0.5", "--x", "0.1", "--k", "1" + "0" * 30], "K"),
        (["eval", "--family", "qhermite", "--q", "1/2", "--x", "0", "--n", "1" + "0" * 30],
         "polynomial degree"),
    ])
    def test_degree_past_maxsize(self, capsys, argv, name):
        # both exited 1 with a traceback from islice
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("qortho: %s must be at most sys.maxsize" % name)

    def test_nonconvergent_product(self, capsys):
        code = main(["density", "--density", "fn",
                     "--q", "0.95", "--x", "0.0"])
        capsys.readouterr()
        assert code == 4

    @pytest.mark.parametrize("q", ["0.88", "0.9"])
    def test_overflowing_fixed_truncation(self, capsys, q):
        # 700 terms run past the H_n overflow: the sum is nan at 0.88, and at
        # 0.9 the (1-q)^{n/2} of the term bound also underflows to 0
        code = main(["expand", "--id", "u_over_n", "--q", q, "--x", "0",
                     "--k", "700"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "overflowed" in err

    @pytest.mark.parametrize("q", ["0.88", "0.9"])
    def test_overflow_stderr_is_one_line(self, q):
        # a child interpreter, so any numpy RuntimeWarning reaches its stderr
        src = str(Path(qortho.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "qortho.cli", "expand", "--id", "u_over_n",
             "--q", q, "--x", "0", "--k", "700"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "qortho: expansion 'u_over_n' overflowed within 701 terms\n"

    def test_overflowing_coefficient(self, capsys):
        # 171! is too large for a float, so rho^n / n! overflows from n = 171
        # on; at y = 0 the stream holds only the even degrees, and n = 172 is
        # the first term that overflows
        code = main(["expand", "--id", "mehler_classical", "--y", "0", "--rho", "0.9",
                     "--x", "0"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err == "qortho: expansion 'mehler_classical' overflowed within 173 terms\n"

    @pytest.mark.parametrize("argv,passed_q", [
        # cn_over_n at q = 1: --q 0.5 put x = 3 outside S(0.5), exit 3
        (["--id", "mehler_classical", "--y", "0", "--rho", "0.5", "--x", "3"], "0.5"),
        # cn_over_u at q = 0: --q -0.5 put x = 1.8 outside S(-0.5), exit 3
        (["--id", "pm_q0", "--y", "0", "--rho", "0.5", "--x", "1.8"], "-0.5"),
    ])
    def test_alias_ignores_the_q_it_fixes(self, capsys, argv, passed_q):
        code, out = run(capsys, "expand", *argv, "--q", passed_q)
        code_without, out_without = run(capsys, "expand", *argv)
        assert (code, code_without) == (0, 0)
        assert out.splitlines()[1:] == out_without.splitlines()[1:]

    def test_pm_q0_point_outside_its_support(self, capsys):
        # S(0) = [-2, 2]; without --q this printed 0.0 and exited 0
        code = main(["expand", "--id", "pm_q0", "--y", "0", "--rho", "0.5", "--x", "2.5"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (3, "", "qortho: expansion evaluated outside S(q)\n")

    @pytest.mark.parametrize("pair,row", [
        ("uhat-from-asc", 52), ("kesten-from-asc", 52), ("uhat-from-h", 52),
        ("h-from-uhat", 50),
    ])
    def test_overflowing_connection_row(self, capsys, pair, row):
        # a float power past the float range (c^j with c = 1/(1-q)), or a
        # (1-q)^{(n-k)//2} that underflows to 0, names the pair and its row
        code = main(["connect", "--pair", pair, "--n", "60", "--q", "0.999999999999",
                     "--y", "0.1", "--rho", "0.5"])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err == "qortho: pair %r row %d overflowed\n" % (pair, row)

    @pytest.mark.parametrize("argv", [
        ["--pair", "asc-from-h", "--n", "2", "--y", "1/3", "--rho", "3/2", "--q", "1/2"],
        ["--pair", "mehler", "--n", "3", "--y", "1", "--rho", "5"],
        ["--pair", "uhat-from-h", "--n", "4", "--q", "1"],
        ["--pair", "rogers-from-rogers", "--n", "3", "--beta", "1", "--gamma", "1/2",
         "--q", "1/2"],
    ])
    def test_connection_outside_family_domain(self, capsys, argv):
        code = main(["connect"] + argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("qortho: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--id", "pm_q0", "--y", "2.5", "--rho", "0.3"],
        ["--id", "cn_over_n", "--q", "0.5", "--y", "10", "--rho", "0.3"],
        ["--id", "cn_over_u", "--q", "0.5", "--y", "10", "--rho", "0.3"],
    ])
    def test_conditioning_point_outside_support(self, capsys, argv):
        code = main(["expand", "--x", "0"] + argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        y = float(argv[argv.index("--y") + 1])
        assert err == "qortho: fCN conditioning point must lie in S(q), got y=%r\n" % y

    @pytest.mark.parametrize("argv,err", [
        (["eval", "--family", "asc", "--n", "3", "--x", "0", "--q", "0.5", "--y", "nan",
          "--rho", "0.2"], "asc needs a finite y, got nan"),
        (["connect", "--pair", "asc-from-h", "--n", "3", "--y", "nan", "--rho", "0.2",
          "--q", "0.5"], "pair 'asc-from-h' needs a finite y, got nan"),
        (["expand", "--id", "n_over_u", "--q", "2", "--k-max", "3"],
         "expansion 'n_over_u' needs -1 < q < 1, got q=2"),
        (["expand", "--id", "n_over_u", "--q", "nan", "--k-max", "3"],
         "expansion 'n_over_u' needs -1 < q < 1, got q=nan"),
        (["expand", "--id", "pm_q0", "--y", "nan", "--rho", "0.5", "--k-max", "2"],
         "expansion 'pm_q0' needs a finite y, got nan"),
        (["density", "--density", "fu", "--q", "0.5", "--x", "0", "--trunc-eps", "2"],
         "trunc_eps must lie in (0, 1), got 2.0"),
        (["eval", "--family", "qhermite", "--n", "5", "--q", "0.5", "--x", "nan"],
         "polynomial point x must be finite, got nan"),
        (["eval", "--family", "qhermite", "--n", "5", "--q", "0.5", "--x", "inf"],
         "polynomial point x must be finite, got inf"),
        (["verify", "--suite", "bogus"], "unknown suite 'bogus'"),
        (["verify", "--suite", "orthogonallity"], "unknown suite 'orthogonallity'"),
        (["expand", "--id", "n_over_u", "--q", "0.5", "--x", "0.3", "--tol", "nan"],
         "tol must be positive and finite, got nan"),
        (["expand", "--id", "n_over_u", "--q", "0.5", "--x", "0.3", "--tol", "-1"],
         "tol must be positive and finite, got -1.0"),
        (["verify", "--suite", "normalization", "--q-grid", "0.3", "--tol", "nan"],
         "tol must be positive and finite, got nan"),
        (["connect", "--pair", "t-from-u", "--n", "-1"],
         "n_max must be an integer >= 0, got -1"),
        (["expand", "--id", "n_over_u", "--q", "0.5", "--k-max", "-2"],
         "coefficient index must be an integer >= 0, got -2"),
        (["density", "--density", "fn", "--x", "0"], "density 'fn' requires --q"),
        (["sample", "--target", "fn", "--n", "10"], "density 'fn' requires --q"),
    ])
    def test_parameter_rule(self, capsys, argv, err):
        # each of these printed a value (often nan), ran to a cap or raised a
        # TypeError before every entry point checked its parameters
        code = main(argv)
        out, stderr = capsys.readouterr()
        assert (code, out) == (3, "")
        assert stderr.startswith("qortho: " + err) and stderr.count("\n") == 1

    @pytest.mark.parametrize("argv,err", [
        (["expand", "--id", "mehler_classical", "--rho", "0.9", "--k-max", "200"],
         "expansion 'mehler_classical' coefficient c_171 overflowed"),
        (["expand", "--id", "cn_over_k", "--q", "0.5", "--y", "1e300", "--rho", "0.5",
          "--k-max", "8"], "expansion 'cn_over_k' coefficient c_4 overflowed"),
        (["eval", "--family", "qhermite", "--n", "2000", "--x", "3", "--q", "0.9"],
         "qhermite(q=0.9) p_2000(3) overflowed"),
        (["connect", "--pair", "mehler", "--n", "8", "--y", "1e300", "--rho", "0.5"],
         "pair 'mehler' row 2 overflowed"),
        (["density", "--density", "fcn", "--q", "0.5", "--rho", "0.5", "--y", "0",
          "--x", "1" + "0" * 400], "int too large to convert to float"),
        (["eval", "--family", "qhermite", "--n", "3", "--q", "0.5", "--x", "1" + "0" * 400],
         "int too large to convert to float"),
    ])
    def test_overflowed_value(self, capsys, argv, err):
        # an OverflowError traceback (mehler, the integer literals) or a printed
        # nan before
        code = main(argv)
        out, stderr = capsys.readouterr()
        assert (code, out, stderr) == (4, "", "qortho: %s\n" % err)

    @pytest.mark.parametrize("argv", [
        ["density", "--density", "fcn", "--x", "0"],
        ["sample", "--target", "fcn", "--n", "3", "--batch", "256"],
        ["expand", "--id", "cn_over_n", "--x", "0"],
    ])
    def test_parameter_past_the_float_range(self, capsys, argv):
        # a 401-digit y exited 4 with "int too large to convert to float"; it
        # is a parameter outside its domain (finite means it fits a float)
        y = "1" + "0" * 400
        code = main(argv + ["--q", "0.5", "--rho", "0.5", "--y", y])
        out, stderr = capsys.readouterr()
        assert (code, out) == (3, "")
        assert stderr.startswith("qortho: ") and "needs a finite y, got 1000" in stderr
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    def test_gaussian_density_far_out_is_zero(self, capsys):
        # x^2 overflows to inf; tier-1 turns numpy's overflow warning into an error
        code, out = run(capsys, "density", "--density", "fcn", "--q", "1", "--y", "0.5",
                        "--rho", "0.5", "--x", "1e200,-1e308")
        assert code == 0
        assert out.splitlines()[2:] == ["1e+200,0.0", "-1e+308,0.0"]

    def test_stalled_envelope_series_exits_4(self, capsys):
        # at rho = 0.999 the curvature series of the envelope has not settled
        # by n = 4095: no certified M, so nothing is drawn (the 1.05 sup
        # fallback it replaces let a proposal exceed M, exit 1)
        start = time.perf_counter()
        code = main(["sample", "--target", "fcn", "--q", "0.5", "--y", "2.8",
                     "--rho", "0.999", "--n", "10", "--batch", "256"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert err.count("\n") == 1
        assert err.startswith("qortho: sampler envelope: the fcn series ")
        assert err.endswith(" did not settle by n = 4095\n")
        assert elapsed < 1.0

    def test_argparse_rejects_unknown(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "nope", "--n", "1", "--x", "0"])
        assert exc.value.code == 2
