"""End-to-end tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and stdout
can be asserted without spawning subprocesses.
"""

import json

import numpy as np
import pytest

from qortho.cli import main


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


class TestVerify:
    def test_normalization_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "normalization",
                        "--q", "0.3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("# checks=")
        assert lines[2] == "check_id,params,residual,tolerance,pass"
        assert all(l.endswith(",true") for l in lines[3:])


class TestSample:
    def test_metadata_and_determinism(self, capsys):
        argv = ("sample", "--target", "fn", "--q", "0.5",
                "--n", "50", "--seed", "7")
        code, first = run(capsys, *argv)
        assert code == 0
        meta = first.splitlines()[1]
        assert meta.startswith("# acceptance_rate=")
        assert "envelope=3.24350" in meta
        _, second = run(capsys, *argv)
        assert first == second

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

    def test_nonconvergent_product(self, capsys):
        code = main(["density", "--density", "fn",
                     "--q", "0.95", "--x", "0.0"])
        capsys.readouterr()
        assert code == 4

    def test_argparse_rejects_unknown(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "nope", "--n", "1", "--x", "0"])
        assert exc.value.code == 2
