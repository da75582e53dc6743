"""The package's import layout: the exact layers load no numpy, every export
resolves, and the CLI's choice lists are the registries they stand for.

``qcore``, ``polyfam`` and ``connect`` need no numpy, and ``qortho`` imports
the float layers (``densities``, ``expand``, ``verify``, ``sampler``) only
when one of their exports is first read.  Whether numpy is loaded is a
property of a fresh interpreter, so those checks run in child processes.
"""

import argparse
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qortho
from qortho import cli, densities, expand, qcore

SRC = str(Path(qortho.__file__).resolve().parents[1])

EXACT_COMMANDS = {
    "connect": ["connect", "--pair", "h-from-asc", "--n", "4", "--q", "1/3",
                "--y", "2/5", "--rho", "1/4"],
    "eval": ["eval", "--family", "rogers", "--n", "5", "--q", "1/2", "--beta", "1/3",
             "--x", "1/2,0.7"],
    "coeffs": ["coeffs", "--family", "qhermite", "--n", "6", "--q", "1/2"],
}


def _child(code):
    """Run code in a fresh interpreter with src/ on the path; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["qortho", "qortho.connect", "qortho.cli"])
def test_importing_the_exact_layers_loads_no_numpy(module):
    out = _child("import sys, %s; print('numpy' in sys.modules)" % module)
    assert out == "False\n"


@pytest.mark.parametrize("cmd", sorted(EXACT_COMMANDS))
def test_exact_commands_run_without_numpy(cmd):
    out = _child(
        "import contextlib, io, sys\n"
        "from qortho import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(%r)\n"
        "print(code, 'numpy' in sys.modules)\n" % (EXACT_COMMANDS[cmd],)
    )
    assert out == "0 False\n"


def test_a_float_export_imports_its_layer():
    out = _child("import sys, qortho; qortho.fN; print('qortho.densities' in sys.modules,"
                 " 'qortho.sampler' in sys.modules)")
    assert out == "True False\n"


def test_every_export_resolves():
    assert len(set(qortho.__all__)) == len(qortho.__all__)
    for name in qortho.__all__:
        assert getattr(qortho, name) is not None, name
    namespace = {}
    exec("from qortho import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qortho.__all__)
    assert set(qortho.__all__) <= set(dir(qortho))


def test_every_public_name_is_exported():
    # each public object bound in the package, its submodules aside, is in __all__
    public = {name for name, obj in vars(qortho).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public <= set(qortho.__all__)


@pytest.mark.parametrize("module", ["densities", "expand", "verify", "sampler"])
def test_deferred_exports_are_read_from_their_module(module):
    # resolved on every access and never stored in the package, so a name
    # rebound in its module (as a tracer does) is what the package gives
    mod = sys.modules["qortho." + module]
    for name in qortho._DEFERRED[module]:
        assert getattr(qortho, name) is getattr(mod, name)
        assert name not in vars(qortho)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_export'"):
        qortho.no_such_export


def _choices(command, dest):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_id_choices_are_the_kernel_registry():
    assert expand.EXPANSION_IDS is qcore.EXPANSION_IDS
    assert tuple(expand._KERNELS) == expand.EXPANSION_IDS
    assert _choices("expand", "id") == sorted(expand._KERNELS)


def test_density_choices_are_the_density_constructors():
    constructors = (densities.fN, densities.fCN, densities.fR, densities.fU,
                    densities.fT, densities.fK)
    table = {name: getattr(densities, ctor) for name, ctor in cli._DENSITIES.items()}
    assert table == {f.__name__.lower(): f for f in constructors}
    assert _choices("density", "density") == sorted(table)
    assert set(_choices("sample", "target")) <= set(table)
