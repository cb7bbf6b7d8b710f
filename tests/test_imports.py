"""A process compiles and loads only the modules its subcommand runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import thetacob

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thetacob.__file__)))

OPERATIONS = {"cli_base", "cli_operations", "core", "gradedring", "landweber"}
SERIES = {"cli_base", "cli_series", "core", "gradedring", "cobordism"}
GENUS = {"cli_base", "cli_genera", "core", "gradedring", "genera"}
CONGRUENCES = {"cli_base", "cli_genera", "core", "gradedring", "genera", "lattices"}
VERIFY = {"cli_base", "cli_verify", "weierstrass"}
SELFTEST = {"cli_base", "cli_verify", "acceptance", "core", "gradedring", "symfun", "cobordism",
            "landweber", "lattices", "genera", "weierstrass"}  # all but `series`

# Case -> (argv, the thetacob modules besides `cli` that its process loads,
# exactly: the shared `cli_base`, the one handler module that `main` imports
# on dispatch and the modules the handler runs).  The processes run in a
# directory that holds genus.json and vec.json.  `selftest` loads every
# module but `series`; test_no_module_loads_dataclasses covers every module.
LOAD_SETS = {
    "beta": (["beta", "--max-weight", "4"], SERIES),
    "logarithm": (["logarithm", "--max-weight", "4"], SERIES),
    "classes-vn": (["classes", "vn", "--max-weight", "4"], SERIES),
    "classes-cpn": (["classes", "cpn", "--max-weight", "4"], SERIES),
    "classes-wn": (["classes", "wn", "--max-weight", "4"], SERIES | {"genera"}),
    "fgl-check": (["fgl", "check", "--order", "4"], SERIES),
    "ln-apply": (["ln", "apply", "--partition", "2,1", "--expr", "t3 - 4*t1*t2"], OPERATIONS),
    "quantize": (["quantize", "--expr", "t2*t1", "--roundtrip"], OPERATIONS),
    "theta-intersect": (["theta", "intersect", "--n", "3", "--k", "1"], OPERATIONS),
    "genus-theta": (["genus", "--name", "l", "--of", "theta:8"], GENUS),
    "genus-poly": (["genus", "--name", "todd", "--of", "poly:t2 + t1^2"], GENUS),
    "genus-file": (["genus", "--name", "file:genus.json", "--of", "theta:3"], GENUS),
    "genus-json": (["--format", "json", "genus", "--name", "euler", "--of", "theta:3"], GENUS),
    "invariants": (["invariants", "--n", "4"],
                   {"cli_base", "cli_genera", "core", "gradedring", "genera", "symfun"}),
    "congruences": (["congruences", "--n", "3"], CONGRUENCES),
    "congruences-check": (["congruences", "--n", "2", "--check", "vec.json"],
                          GENUS | {"symfun"}),  # the verdict needs no lattice
    "weierstrass-verify": (["weierstrass", "verify", "--omega1=1.3+0.2i", "--omega2=-0.4+1.1i"],
                           VERIFY),
    "weierstrass-json": (["--format", "json", "weierstrass", "verify", "--lemniscatic"], VERIFY),
    "selftest": (["selftest"], SELFTEST),
}


def _uses_json(argv) -> bool:
    return "json" in argv or "--check" in argv or any(a.startswith("file:") for a in argv)


def _run(code: str, cwd=None) -> str:
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, check=True, timeout=120, cwd=cwd).stdout


def _loaded(argv, cwd=None) -> set[str]:
    """The modules a fresh process has loaded after main(argv) succeeds."""
    code = (
        "import contextlib, io, sys\n"
        "from thetacob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    return set(_run(code, cwd=cwd).split())


@pytest.fixture(scope="module")
def loaded_by_case(tmp_path_factory) -> dict:
    cwd = tmp_path_factory.mktemp("inputs")
    (cwd / "genus.json").write_text(json.dumps({"coeffs": ["1", "1/2", "1/12"]}))
    (cwd / "vec.json").write_text(json.dumps(
        {"weight": 2, "frame": "normal", "basis": "monomial", "values": {"2": "6", "1,1": "0"}}))
    with ThreadPoolExecutor(max_workers=2) as pool:
        found = pool.map(lambda case: _loaded(case[0], cwd), LOAD_SETS.values())
        return dict(zip(LOAD_SETS, found))


@pytest.mark.parametrize("case", LOAD_SETS)
def test_subcommand_loads_only_its_modules(loaded_by_case, case):
    argv, modules = LOAD_SETS[case]
    loaded = loaded_by_case[case]
    assert {m[9:] for m in loaded if m.startswith("thetacob.")} == modules | {"cli"}
    assert not loaded & {"dataclasses", "inspect"}
    assert ("json" in loaded) == _uses_json(argv)
    if modules == VERIFY:
        assert not loaded & {"fractions", "decimal"}


def test_oneshot_compiles_cli_once():
    """Under -m, `cli` runs as __main__: importing it by name would compile it again."""
    argv = ["ln", "apply", "--partition", "2,1", "--expr", "t3 - 4*t1*t2"]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "thetacob.cli", *argv],
                          env=ENV, capture_output=True, text=True, check=True, timeout=120)
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"thetacob.cli_base", "thetacob.cli_operations", "thetacob.landweber"} <= imported
    assert "thetacob.cli" not in imported


def test_no_module_loads_dataclasses_or_inspect():
    """Every module at once: what `selftest` and any other subcommand load."""
    names = [m[:-3] for m in sorted(os.listdir(os.path.dirname(thetacob.__file__)))
             if m.endswith(".py") and m != "__init__.py"]
    loaded = _run(f"import sys\nfrom thetacob import {', '.join(names)}\n"
                  "print(' '.join(sorted(sys.modules)))").split()
    assert {f"thetacob.{m}" for m in names} <= set(loaded)
    assert not {"dataclasses", "inspect"} & set(loaded)


@pytest.mark.parametrize("argv", [["congruences", "--n", "3"],
                                  ["classes", "wn", "--max-weight", "4"]])
def test_congruence_path_does_not_load_the_operations(argv):
    loaded = _loaded(argv)
    assert "thetacob.genera" in loaded
    assert "thetacob.landweber" not in loaded


def test_bare_import_loads_no_submodule():
    loaded = _run("import sys, thetacob; print(' '.join(sorted(sys.modules)))").split()
    assert "thetacob" in loaded
    assert not [m for m in loaded if m.startswith("thetacob.")]


def test_no_module_but_series_imports_series():
    """`series` is a leaf: no other module imports it, at module level or in a function."""
    package = os.path.dirname(thetacob.__file__)
    importers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "series.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                dotted = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("series" in d.split(".") for d in dotted):
                importers.append(f"{name}:{node.lineno}")
    assert not importers


def _package_imports(function: ast.FunctionDef) -> set[str]:
    """The package modules that a function imports in its body."""
    found = set()
    for node in ast.walk(function):
        if isinstance(node, ast.ImportFrom) and node.level:  # the package imports relatively
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_handler_modules_import_once_what_every_handler_imports():
    """The rule of cli.py: a handler imports the modules it runs, unless every
    handler of its module does; then the module imports them, once."""
    package = os.path.dirname(thetacob.__file__)
    checked, shared = set(), {}
    for name in sorted(os.listdir(package)):
        if not (name.startswith("cli_") and name.endswith(".py")):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        handlers = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
        if handlers:
            checked.add(name[:-3])
            if common := set.intersection(*map(_package_imports, handlers)):
                shared[name] = sorted(common)
    assert checked == {"cli_genera", "cli_operations", "cli_series", "cli_verify"}
    assert not shared


def test_public_names_resolve_to_their_home_modules():
    listed = dir(thetacob)
    for name in thetacob.__all__:
        home = importlib.import_module(f"thetacob.{thetacob._HOME_OF[name]}")
        assert getattr(thetacob, name) is getattr(home, name), name
        assert name in listed, name
    from thetacob import beta_coefficients, quantize  # noqa: F401  (from-imports keep working)
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
