"""A process imports only the modules its subcommand needs."""

import importlib
import os
import subprocess
import sys

import pytest

import thetacob

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thetacob.__file__)))


def _run(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_ln_apply_loads_only_its_modules():
    code = (
        "import contextlib, io, sys\n"
        "from thetacob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['ln', 'apply', '--partition', '2,1', '--expr', 't3 - 4*t1*t2']) == 0\n"
        "assert out.getvalue().endswith('= -48\\n'), out.getvalue()\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    loaded = set(_run(code).split())
    assert "thetacob.landweber" in loaded
    unneeded = {f"thetacob.{m}" for m in ("weierstrass", "acceptance", "genera", "lattices",
                                          "symfun")} | {"dataclasses"}
    assert not loaded & unneeded


@pytest.mark.parametrize("argv", [["congruences", "--n", "3"],
                                  ["classes", "wn", "--max-weight", "4"]])
def test_congruence_path_does_not_load_the_operations(argv):
    code = (
        "import contextlib, io, sys\n"
        "from thetacob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    loaded = set(_run(code).split())
    assert "thetacob.genera" in loaded
    assert "thetacob.landweber" not in loaded


def test_bare_import_loads_no_submodule():
    loaded = _run("import sys, thetacob; print(' '.join(sorted(sys.modules)))").split()
    assert "thetacob" in loaded
    assert not [m for m in loaded if m.startswith("thetacob.")]


def test_public_names_resolve_to_their_home_modules():
    listed = dir(thetacob)
    for name in thetacob.__all__:
        home = importlib.import_module(f"thetacob.{thetacob._HOME_OF[name]}")
        assert getattr(thetacob, name) is getattr(home, name), name
        assert name in listed, name
    from thetacob import beta, quantize  # noqa: F401  (from-imports keep working)
    assert "check_chern_vector" not in thetacob.__all__
    with pytest.raises(AttributeError):
        thetacob.no_such_name


def test_benchmark_tracer_targets_resolve(monkeypatch):
    """Every function and method the benchmark's tracer wraps still exists."""
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tracer = importlib.import_module("perfbench.tracer")
    found = tracer.targets()  # a KeyError names a METHODS entry that is gone
    for name in tracer.METHODS:
        assert found[name] and all(callable(fn) for fn in found[name]), name
