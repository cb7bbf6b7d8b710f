import functools
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import example, given, settings, strategies as st

import thetacob
from thetacob import cobordism, core, genera, gradedring, landweber, symfun
from thetacob.cli import _parse, build_parser, main
from thetacob.cli_base import (
    MAX_CONGRUENCE_WEIGHT,
    MAX_EXPR_WEIGHT,
    MAX_FGL_ORDER,
    MAX_GENUS_WEIGHT,
    MAX_INVARIANTS_N,
    MAX_THETA_N,
    MAX_WEIGHT,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_vn_golden(capsys):
    code, out, _ = run_cli(capsys, "classes", "vn", "--max-weight", "3")
    assert code == 0
    assert "v3 = t3 - 4*t1*t2 + 3*t1^3" in out
    assert "(q_2 = 2)" in out


def test_genus_todd_theta_golden(capsys):
    code, out, _ = run_cli(capsys, "genus", "--name", "todd", "--of", "theta:7")
    assert code == 0
    assert out.strip().endswith("= -1")


def test_theta_intersect_goldens(capsys):
    code, out, _ = run_cli(capsys, "theta", "intersect", "--n", "2", "--k", "2")
    assert code == 0 and out.strip().endswith("6")
    code, out, _ = run_cli(capsys, "theta", "intersect", "--n", "2", "--k", "1")
    assert code == 0 and out.strip().endswith("6*t1")


def test_beta_and_logarithm(capsys):
    code, out, _ = run_cli(capsys, "beta", "--max-weight", "3")
    assert code == 0 and "1/2*t1" in out
    code, out, _ = run_cli(capsys, "logarithm", "--max-weight", "3")
    assert code == 0 and "cp_1 = -t1" in out


def test_ln_apply(capsys):
    code, out, _ = run_cli(capsys, "ln", "apply", "--partition", "1", "--expr", "t1")
    assert code == 0 and out.strip().endswith("= 2")


def test_json_envelope_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "--format", "json", "congruences", "--n", "2")
    assert code == 0
    code, out2, _ = run_cli(capsys, "--format", "json", "congruences", "--n", "2")
    assert out1 == out2
    env = json.loads(out1)
    assert env["command"] == "congruences"
    assert env["format_version"] == "1.0.0"
    assert env["payload"]["weight"] == 2
    assert env["payload"]["elementary_divisors"] == [1, 12]
    mus = [f["mu"] for f in env["payload"]["functionals"]]
    assert mus == ["", "1", "2", "1,1"]


def test_congruence_vector_check(tmp_path, capsys):
    vec = {"weight": 2, "frame": "tangent", "basis": "chern_product",
           "values": {"1,1": 1, "2": 0}}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(vec))
    code, out, _ = run_cli(capsys, "congruences", "--n", "2", "--check", str(path))
    assert code == 0
    assert "FAIL" in out and "1/12" in out
    good = {"weight": 2, "frame": "tangent", "basis": "chern_product",
            "values": {"1,1": 6, "2": 6}}
    path.write_text(json.dumps(good))
    code, out, _ = run_cli(capsys, "congruences", "--n", "2", "--check", str(path))
    assert code == 0 and "pass" in out


def test_congruence_check_needs_no_lattice(tmp_path, capsys, monkeypatch):
    """The verdict reads the functionals only: with every genera cache
    cleared and the integrality lattice refusing to run, `--check` prints
    the verdict the full system gave."""
    from thetacob import lattices

    path = tmp_path / "vec.json"
    path.write_text(json.dumps({
        "weight": 6, "frame": "tangent", "basis": "chern_product",
        "values": {str(lam): f"{i}/{i % 3 + 1}" for i, lam in enumerate(core.partitions_of(6))}}))
    for fn in (genera._functionals, genera.congruence_system, genera._todd_image):
        fn.cache_clear()

    def refuse(*args):
        raise AssertionError("--check computed the integrality lattice")

    monkeypatch.setattr(lattices, "integrality_lattice", refuse)
    code, out, err = run_cli(capsys, "congruences", "--n", "6", "--check", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("vector verdict at weight 6: FAIL\n  functional mu=() evaluates to -1/6480")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "169d831b500ca740610e268d695f9a7571e1dd2b1a71c78eb2b31075f49a2f5f")


_CHERN_2 = '{"weight": 2, "frame": "tangent", "basis": "chern_product", "values": {"1,1": 6, "2": '


@pytest.mark.parametrize("text, argv, code, said", [
    (_CHERN_2 + '"1e-5000"}}', ["congruences", "--n", "2", "--check"], 2, "1000 digits"),
    (_CHERN_2 + "9" * 5000 + "}}", ["congruences", "--n", "2", "--check"], 2, "1000 digits"),
    (_CHERN_2 + '"' + "7" * 3000 + '/3"}}', ["congruences", "--n", "2", "--check"], 2,
     "1000 digits"),
    (_CHERN_2 + "0.1}}", ["congruences", "--n", "2", "--check"], 0,
     "vector verdict at weight 2: FAIL\n  functional mu=() evaluates to 61/120\n"
     "  functional mu=(1) evaluates to -1/10\n  functional mu=(2) evaluates to -29/5\n"
     "  functional mu=(1,1) evaluates to 59/10\n"),
    ('{"coeffs": ["1", 0.1]}', ["genus", "--of", "theta:1", "--name"], 0,
     "v.json genus of theta:1 = -1/5\n"),
], ids=["exponent", "json-integer", "fraction", "chern-float", "genus-float"])
def test_file_numbers_are_decimal_text_within_one_bound(tmp_path, capsys, text, argv, code, said):
    """A JSON number is read from its decimal text in both files, and a
    value of more than MAX_COEFF_DIGITS digits exits 2 naming the flag."""
    path = tmp_path / "v.json"
    path.write_text(text)
    flag = argv[-1]
    argv = [*argv, f"file:{path}" if flag == "--name" else str(path)]
    got, out, err = run_cli(capsys, *argv)
    if code:
        assert (got, out) == (2, "") and err.startswith(f"error: {flag}:") and said in err, err
        assert "Exceeds the limit" not in err
    else:
        assert (got, out, err) == (0, said, "")


def test_check_bounds_the_common_denominator(tmp_path, capsys):
    """Values whose common denominator passes MAX_COEFF_DIGITS digits are
    refused before the conversions would compute over it."""
    values = {str(lam): f"1/{'9' * 600}{i}" for i, lam in enumerate(core.partitions_of(4))}
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"weight": 4, "frame": "tangent", "basis": "chern_product",
                                "values": values}))
    code, out, err = run_cli(capsys, "congruences", "--n", "4", "--check", str(path))
    assert (code, out) == (2, "") and err.startswith("error: --check:")
    assert "common denominator has more than 1000 digits" in err


_BOUNDED_TEXTS = st.one_of(
    st.integers(-10 ** 300, 10 ** 300).map(str),
    st.tuples(st.integers(-10 ** 300, 10 ** 300), st.integers(1, 10 ** 300)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"),
    st.tuples(st.integers(-10 ** 300, 10 ** 300), st.integers(0, 10 ** 300)).map(
        lambda ab: f"{ab[0]}.{ab[1]}"),
    st.tuples(st.integers(-10 ** 300, 10 ** 300), st.sampled_from(["e", "E", "e+", "e-"]),
              st.integers(0, 600)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
)


@settings(max_examples=60, deadline=None)
@given(text=_BOUNDED_TEXTS, json_integer=st.booleans())
def test_file_number_reader_is_fraction_of_the_text(text, json_integer):
    from fractions import Fraction

    from thetacob.cli_genera import _JsonInt, _read_number

    value = _JsonInt(text) if json_integer else text
    assert _read_number(value, "--name: coefficient") == Fraction(text)


_LONG_TEXTS = st.one_of(
    st.integers(1001, 3000).map(lambda n: "7" * n),
    st.integers(1000, 3000).map(lambda n: "1/" + "3" * n),
    st.tuples(st.integers(1, 9), st.sampled_from(["e", "E", "e+", "e-", "e0"]),
              st.integers(1000, 10 ** 30)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    st.integers(1000, 10 ** 30).map(lambda n: f"0.5e-{n:_}"),
)


@settings(max_examples=40, deadline=None)
@given(text=_LONG_TEXTS, as_string=st.booleans())
def test_file_numbers_past_the_bound_exit_two_unbuilt(grammar_dir, text, as_string):
    """Both files refuse the number by its text, naming the flag, and never
    pass it to Fraction (an exponent of 10^30 digits would never finish)."""
    from thetacob import cli_genera

    number = json.dumps(text) if as_string or not text.isdecimal() else text
    path = grammar_dir / "long.json"
    for argv, flag, body in (
            (["congruences", "--n", "1", "--check", str(path)], "--check",
             '{"weight": 1, "frame": "normal", "basis": "monomial", "values": {"1": %s}}'),
            (["genus", "--name", f"file:{path}", "--of", "theta:2"], "--name",
             '{"coeffs": ["1", %s]}')):
        path.write_text(body % number)
        out, err, built = StringIO(), StringIO(), []
        real = cli_genera.Fraction
        cli_genera.Fraction = lambda value: built.append(value) or real(value)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            cli_genera.Fraction = real
        assert (code, out.getvalue()) == (2, ""), (argv, err.getvalue())
        assert err.getvalue().startswith(f"error: {flag}:")
        assert "more than 1000 digits" in err.getvalue() and text not in built


def test_quantize_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "quantize", "--expr", "t1", "--roundtrip")
    assert code == 0
    assert "t1 (x) 1" in out and "roundtrip: ok" in out


def test_fgl_check(capsys):
    code, out, _ = run_cli(capsys, "fgl", "check", "--order", "5")
    assert code == 0
    assert out.count("residual 0") == 4


def test_logarithm_after_higher_weight_matches_fresh_process():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thetacob.__file__)))
    after_13 = (
        "import contextlib, io, sys\n"
        "from thetacob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['logarithm', '--max-weight', '13']) == 0\n"
        "sys.exit(main(['logarithm', '--max-weight', '12']))\n"
    )
    warm = subprocess.run([sys.executable, "-c", after_13], env=env, capture_output=True,
                          check=True, timeout=120)
    fresh = subprocess.run([sys.executable, "-m", "thetacob.cli", "logarithm", "--max-weight", "12"],
                           env=env, capture_output=True, check=True, timeout=120)
    assert warm.stdout == fresh.stdout and fresh.stdout.startswith(b"beta^-1(u) up to weight 12")


def test_main_after_parse_errors_matches_fresh_process(capsys):
    for bad in (["classes", "xn"], ["theta", "intersect", "--n", "x", "--k", "1"],
                ["genus", "--of"], ["--format", "yaml", "beta"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2, bad
    good = ["--format", "json", "classes", "vn", "--max-weight", "3"]
    code, out, _ = run_cli(capsys, *good)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thetacob.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "thetacob.cli", *good], env=env,
                           capture_output=True, check=True, timeout=120)
    assert code == 0 and out.encode() == fresh.stdout


@pytest.mark.parametrize("argv, code, usage", [
    (["classes", "zz"], 2, "usage: thetacob classes"),
    (["logarithm", "--max-weight", "x"], 2, "usage: thetacob logarithm"),
    (["--help"], 0, "usage: thetacob"),
], ids=["bad-choice", "bad-int", "help"])
def test_repeated_parse_error_and_help_print_every_time(capsys, argv, code, usage):
    outputs = []
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert usage in (err if code else out)
        outputs.append((out, err))
    assert outputs[0] == outputs[1] == outputs[2]


def test_repeated_argv_is_parsed_once(monkeypatch, capsys):
    parser = build_parser()
    calls = []

    def counting_parse_args(argv):
        calls.append(argv)
        return type(parser).parse_args(parser, argv)

    monkeypatch.setattr(parser, "parse_args", counting_parse_args)
    _parse.cache_clear()
    argv = ["--format", "json", "logarithm", "--max-weight", "2"]
    outs = [run_cli(capsys, *argv) for _ in range(3)]
    assert outs[0] == outs[1] == outs[2] and outs[0][0] == 0
    assert calls == [tuple(argv)]
    assert _parse.cache_info().hits == 2
    assert _parse.cache_info().maxsize is not None


@pytest.mark.parametrize("argv, expected", [
    (["congruences", "--n", "12"], 0),  # 111 KB, more than a pipe buffer
    (["congruences", "--n", "99"], 2),
    (["weierstrass", "verify", "--lemniscatic", "--tol", "1e-300"], 3),
    (["congruences", "--n"], 2),  # argparse's own error
], ids=["exit-0", "exit-2", "exit-3", "argparse-error"])
def test_oneshot_process_matches_main(capsys, argv, expected):
    """A one-shot process writes what in-process `main` writes and exits with its
    code, and `main` leaves the garbage collector unfrozen."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on a malformed argv
        code = exc.code
    assert gc.get_freeze_count() == 0
    in_process = capsys.readouterr()
    # Buffered, as a pipe is by default, so that an exit without a flush shows.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(thetacob.__file__))
    oneshot = subprocess.run([sys.executable, "-m", "thetacob.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
    assert (oneshot.returncode, oneshot.stdout, oneshot.stderr) == \
        (code, in_process.out, in_process.err)
    assert code == expected
    assert (len(oneshot.stdout) > 65536) == (expected == 0)


def test_console_script_returns_the_exit_code_of_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["thetacob"]
    argv = ["congruences", "--n", "99"]
    code = main(argv)
    expected = capsys.readouterr()
    # What the generated script does, short of its sys.exit: the entry must
    # also freeze the collector before it returns.
    script = (
        "import gc, importlib, sys\n"
        f"module, _, name = {target!r}.partition(':')\n"
        "entry = getattr(importlib.import_module(module), name)\n"
        f"sys.argv = ['thetacob', *{argv!r}]\n"
        "code = entry()\n"
        "print(repr(code), gc.get_freeze_count() > 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thetacob.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert code == 2 and proc.stderr == expected.err
    assert proc.stdout == expected.out + f"{code!r} True\n"


def test_invariants(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "invariants", "--n", "2")
    env = json.loads(out)
    assert code == 0
    assert env["payload"]["betti"] == [1, 6, 16, 6, 1]
    assert env["payload"]["signature"] == "-2"


def test_custom_genus_file(tmp_path, capsys):
    qfile = tmp_path / "Q.json"
    qfile.write_text(json.dumps({"coeffs": ["1", "1"]}))
    code, out, _ = run_cli(capsys, "genus", "--name", f"file:{qfile}", "--of", "theta:3")
    assert code == 0 and out.strip().endswith("= -24")


@pytest.mark.parametrize("coeff", ['"1' + "0" * 5000 + '"', "1" + "0" * 5000, '"1e5000"'])
def test_genus_file_coefficient_bounded(tmp_path, capsys, coeff):
    qfile = tmp_path / "Q.json"
    qfile.write_text('{"coeffs": ["1", ' + coeff + "]}")
    code, out, err = run_cli(capsys, "genus", "--name", f"file:{qfile}", "--of", "theta:3")
    assert code == 2 and out == "" and "--name" in err and "1000 digits" in err
    assert "4300" not in err


@pytest.mark.parametrize("coeffs, of", [
    (["1", "1e999"], "theta:5"),                                  # value of about 5000 digits
    (["1"] + ["1" + "0" * 469] * 60, "theta:60"),                 # 28201 digits in the file
])
def test_genus_file_value_and_cost_bounded(tmp_path, capsys, coeffs, of):
    qfile = tmp_path / "Q.json"
    qfile.write_text(json.dumps({"coeffs": coeffs}))
    code, out, err = run_cli(capsys, "genus", "--name", f"file:{qfile}", "--of", of)
    assert code == 2 and out == "" and err.startswith("error: --name:")
    assert "4300" not in err


SEXTIC_TENTH = "poly:(1+t1+t2+t3+t4+t5+t6)^10"  # 8008 terms, up to t6^10


@pytest.mark.parametrize("denominator, of, sha", [
    ("7" * 50, SEXTIC_TENTH, "e38edc2f70dde131d6da7de661079793cdb338a06346f6f82b3fe0396a38c6a1"),
    ("7" * 100, SEXTIC_TENTH, None),    # terms of up to about 6000 digits
    ("9" * 990, "poly:t60", None),      # one term of about 59000 digits
], ids=["50-sevens", "100-sevens", "990-nines"])
def test_genus_of_poly_term_digits_bounded(tmp_path, capsys, monkeypatch, denominator, of, sha):
    from thetacob import genera

    qfile = tmp_path / "Q.json"
    qfile.write_text(json.dumps({"coeffs": ["1", "1/" + denominator]}))
    if sha is None:
        def refuse_before_summing(spec, p):
            raise AssertionError("the term bound must refuse before the sum")

        monkeypatch.setattr(genera, "genus_of_poly", refuse_before_summing)
    code, out, err = run_cli(capsys, "genus", "--name", f"file:{qfile}", "--of", of)
    if sha is None:
        assert code == 2 and out == "" and err.startswith("error: --name: a term")
        assert "4300" not in err
    else:
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("n", ["3_0", "+3", " 3", "3 ", "\u0663", "\uff13"])
def test_genus_theta_index_takes_ascii_digits_only(capsys, n):
    code, out, err = run_cli(capsys, "genus", "--name", "todd", "--of", "theta:" + n)
    assert code == 2 and out == "" and err.startswith("error: --of theta:N")


def test_genus_of_poly_bounds_only_the_generators_it_contains(capsys, monkeypatch):
    asked = []
    genus_of_theta = genera.genus_of_theta
    monkeypatch.setattr(genera, "genus_of_theta",
                        lambda spec, n: asked.append(n) or genus_of_theta(spec, n))
    code, out, _ = run_cli(capsys, "genus", "--name", "todd", "--of", "poly:t60")
    assert code == 0 and out == "todd genus of poly:t60 = 1\n"
    assert set(asked) == {60} and len(asked) == 2  # the digit bound, then the value


def test_genus_file_todd_to_order_sixty(tmp_path, capsys):
    from thetacob.genera import todd_genus

    coeffs = [str(c) for c in todd_genus(60).coefficients()]
    qfile = tmp_path / "Q.json"
    qfile.write_text(json.dumps({"coeffs": coeffs}))
    code, out, _ = run_cli(capsys, "genus", "--name", f"file:{qfile}", "--of", "theta:60")
    assert code == 0 and out.strip().endswith("theta:60 = 1")


def test_genus_of_poly(capsys):
    code, out, _ = run_cli(capsys, "genus", "--name", "todd", "--of",
                           "poly:3/2*t1^2 - 1/2*t2")
    assert code == 0 and out.strip().endswith("= 1")


EVICTION_REQUESTS = [
    ("logarithm", "--max-weight", "12"),
    ("classes", "vn"),
    ("quantize", "--expr", "t3 - 4*t1*t2 + 3*t1^3 + t2^3", "--roundtrip"),
    ("ln", "apply", "--partition", "2,1", "--expr", "(t1+t2+t3)^3 - t4*t2"),
    ("genus", "--name", "l", "--of", "poly:(1+t1+t2+t3)^4 - 3/2*t5*t1"),
]


def test_monomial_cache_eviction_changes_no_output(capsys, monkeypatch):
    """With the monomial caches cut to 8 keys, so that most lookups miss and
    evict a key, each request prints what it prints with the real caches.
    The caches of the modules above them are emptied first, so that every
    request decodes its monomials again."""
    monkeypatch.delenv("THETA_MAX_WEIGHT", raising=False)
    expected = [run_cli(capsys, *argv) for argv in EVICTION_REQUESTS]
    for module in (core, cobordism, genera, landweber, symfun):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    monomial = functools.lru_cache(maxsize=8)(gradedring._monomial.__wrapped__)
    text = functools.lru_cache(maxsize=8)(gradedring._text.__wrapped__)
    for module in (gradedring, landweber):
        monkeypatch.setattr(module, "_monomial", monomial)
    monkeypatch.setattr(gradedring, "_text", text)
    for argv, want in zip(EVICTION_REQUESTS, expected):
        assert want[0] == 0 and run_cli(capsys, *argv) == want, argv
    for cache in (monomial, text):
        info = cache.cache_info()
        assert info.currsize == 8 and info.misses > 100


def test_monomial_caches_stay_bounded_over_distinct_requests(capsys):
    """300 distinct `genus --of poly:` requests in one process, each of four
    monomials of weight 40 to 60, leave both caches within their bound."""
    rng = random.Random(27)

    def monomial():
        parts, rest = [], rng.randint(40, 60)
        while rest:
            parts.append(rng.randint(1, rest))
            rest -= parts[-1]
        return "*".join(f"t{part}" for part in parts)

    exprs = {" + ".join(monomial() for _ in range(4)) for _ in range(300)}
    assert len(exprs) == 300
    before = gradedring._monomial.cache_info()
    for expr in sorted(exprs):
        code, _, err = run_cli(capsys, "genus", "--name", "todd", "--of", f"poly:{expr}")
        assert code == 0, err
    assert gradedring._monomial.cache_info().misses - before.misses > 1000
    assert landweber._monomial is gradedring._monomial
    for cache in (gradedring._monomial, gradedring._text):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_validation_errors_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "genus", "--name", "nope", "--of", "theta:3")
    assert code == 2 and "unknown genus" in err
    assert err.startswith("error: --name:") and "file:PATH" in err
    code, _, err = run_cli(capsys, "ln", "apply", "--partition", "1", "--expr", "t1 +")
    assert code == 2
    code, _, err = run_cli(capsys, "theta", "intersect", "--n", "2", "--k", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "genus", "--name", "todd", "--of", "nonsense")
    assert code == 2
    for weight in ("0", "-3"):
        code, out, err = run_cli(capsys, "classes", "vn", "--max-weight", weight)
        assert code == 2 and out == "" and "--max-weight" in err
        assert "order must be" not in err
    for order in ("0", "-1"):
        code, out, err = run_cli(capsys, "fgl", "check", "--order", order)
        assert code == 2 and out == "" and "--order" in err
    for flags, named in ((("--n", "0"), "--n"), (("--n", "-1"), "--n"),
                         (("--n", "2", "--k", "0"), "--k")):
        code, out, err = run_cli(capsys, "invariants", *flags)
        assert code == 2 and out == "" and named in err
        assert "need n >= 1" not in err
    for target in ("theta:x", "theta:", "theta:-1"):
        code, out, err = run_cli(capsys, "genus", "--name", "todd", "--of", target)
        assert code == 2 and out == "" and "--of" in err
        assert "int()" not in err
    for partition in (",", "2,,1", "x", "\u0663", "\uff13", "+2", "1_0"):
        code, out, err = run_cli(capsys, "ln", "apply", "--partition", partition, "--expr", "t2")
        assert code == 2 and out == "" and "--partition" in err
        assert "int()" not in err
    for flags, named in ((("--n", "-1", "--k", "0"), "--n"), (("--n", "2", "--k", "-1"), "--k"),
                         (("--n", "2", "--k", "5"), "--k")):
        code, out, err = run_cli(capsys, "theta", "intersect", *flags)
        assert code == 2 and out == "" and named in err
        assert "need 0 <= k <= n" not in err
    for argv, named in ((("quantize", "--expr", "2^20000*t1"), "--expr"),
                        (("quantize", "--expr", "((9^16)^16)^16*t1"), "--expr"),
                        (("quantize", "--expr", "1" * 5000 + "*t1"), "--expr"),
                        (("quantize", "--expr", "t" + "1" * 5000), "--expr"),
                        (("genus", "--name", "todd", "--of", "poly:2^20000"), "--of"),
                        (("invariants", "--n", "26", "--k", "7" * 200), "--k")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and named in err
        assert "Exceeds the limit" not in err
    # --check: the file's weight is compared with --n before its partitions
    # are enumerated, and a zero denominator is a malformed file
    for weight, values, said in ((45, {"1": 1}, "vector weight 45 != --n 2"),
                                 (3, {"3": 0, "2,1": 0, "1,1,1": 0}, "vector weight 3 != --n 2"),
                                 (2, {"1,1": "1/0", "2": 0}, "malformed"),
                                 (2, {"1,1": 0, "\u0662": 0}, "malformed")):
        path = tmp_path / f"vec{weight}.json"
        path.write_text(json.dumps({"weight": weight, "frame": "tangent",
                                    "basis": "chern_product", "values": values}))
        code, out, err = run_cli(capsys, "congruences", "--n", "2", "--check", str(path))
        assert code == 2 and out == "" and "--check" in err and said in err
        assert "missing" not in err
    # a vector that misses a partition names it as the file writes it
    path.write_text(json.dumps({"weight": 2, "frame": "tangent", "basis": "chern_product",
                                "values": {"2": 0, "3": 1}}))
    code, out, err = run_cli(capsys, "congruences", "--n", "2", "--check", str(path))
    assert code == 2 and out == "" and err.startswith("error: --check:")
    assert 'missing "1,1", extraneous "3"' in err and "Partition" not in err


@pytest.mark.parametrize("argv, prefix", [
    (["quantize", "--expr"], ""),
    (["ln", "apply", "--partition", "1", "--expr"], ""),
    (["genus", "--name", "todd", "--of"], "poly:"),
], ids=["quantize", "ln-apply", "genus"])
def test_deeply_nested_expression_exits_two_naming_the_flag(argv, prefix):
    argv = argv + [prefix + "(" * 1000 + "t1" + ")" * 1000]
    flag = argv[-2]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(thetacob.__file__)))
    proc = subprocess.run([sys.executable, "-m", "thetacob.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flag}: expected at most 100 nested parentheses")
    assert "Traceback" not in proc.stderr


def test_congruences_weight_bounded(capsys):
    for n in ("-1", str(MAX_CONGRUENCE_WEIGHT + 1), "25"):
        code, out, err = run_cli(capsys, "congruences", "--n", n)
        assert code == 2 and out == "" and "--n" in err
        assert "n must be >= 0" not in err
    code, out, _ = run_cli(capsys, "congruences", "--n", "0")
    assert code == 0 and "elementary divisors: [1]" in out


def test_input_budgets(capsys, monkeypatch):
    # Each request over its cap exits 2 at once, naming the flag.
    over = [
        (("beta", "--max-weight", str(MAX_WEIGHT + 1)), "--max-weight"),
        (("beta", "--max-weight", "5000"), "--max-weight"),
        (("classes", "vn", "--max-weight", str(MAX_WEIGHT + 1)), "--max-weight"),
        (("invariants", "--n", str(MAX_INVARIANTS_N + 1)), "--n"),
        (("invariants", "--n", "500"), "--n"),
        (("theta", "intersect", "--n", str(MAX_THETA_N + 1), "--k", "1"), "--n"),
        (("quantize", "--expr", f"t{MAX_EXPR_WEIGHT + 1}"), "--expr"),
        (("quantize", "--expr", "(t1 + t2 + t3 + t4 + t5)^30"), "--expr"),
        (("ln", "apply", "--partition", "1", "--expr", "t7*t8"), "--expr"),
        (("ln", "apply", "--partition", str(MAX_EXPR_WEIGHT + 1), "--expr", "t1"), "--partition"),
        (("genus", "--name", "todd", "--of", f"poly:t{MAX_GENUS_WEIGHT + 1}"), "--of"),
        (("genus", "--name", "l", "--of", f"theta:{MAX_GENUS_WEIGHT + 1}"), "--of"),
    ]
    for argv, named in over:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and named in err, argv
        assert "digits" not in err
    monkeypatch.setenv("THETA_MAX_WEIGHT", str(MAX_WEIGHT + 1))
    code, out, err = run_cli(capsys, "beta")
    assert code == 2 and out == "" and "THETA_MAX_WEIGHT" in err
    # The caps sit above the benchmark's largest requests.
    assert MAX_WEIGHT >= 13 and MAX_THETA_N >= 8 and MAX_INVARIANTS_N >= 6
    assert MAX_EXPR_WEIGHT >= 11 and MAX_GENUS_WEIGHT >= 9
    monkeypatch.delenv("THETA_MAX_WEIGHT")
    code, out, _ = run_cli(capsys, "quantize", "--expr", "t1*t2^2*t3^2", "--roundtrip")
    assert code == 0 and "dequantise-roundtrip: ok" in out


def test_fgl_order_bounded(capsys):
    for order in (str(MAX_FGL_ORDER + 1), "100"):
        code, out, err = run_cli(capsys, "fgl", "check", "--order", order)
        assert code == 2 and out == "" and "--order" in err
    assert MAX_FGL_ORDER >= 10
    code, out, _ = run_cli(capsys, "fgl", "check", "--order", "10")
    assert code == 0 and out.count("residual 0") == 4


def test_fgl_check_help_names_no_associativity_cap(capsys):
    """Every axiom is checked to the order asked, so the help names no lower one."""
    import thetacob
    for argv in (["fgl", "--help"], ["fgl", "check", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        out = " ".join(capsys.readouterr().out.split())
        assert "axiom" in out and "associativity" not in out and "at most" not in out
    assert not hasattr(cobordism, "ASSOC_ORDER") and "ASSOC_ORDER" not in thetacob.__all__


def test_weierstrass_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "weierstrass", "verify", "--lemniscatic")
    assert code == 0
    assert "legendre" in out
    # absurd uniform tolerance forces exit code 3
    code, out, _ = run_cli(capsys, "weierstrass", "verify", "--lemniscatic",
                           "--tol", "1e-30")
    assert code == 3


@pytest.mark.parametrize("lattice", [["--lemniscatic"], ["--omega1=1.3+0.2i", "--omega2=-0.4+1.1i"]])
def test_weierstrass_tol_changes_only_the_gates(capsys, lattice):
    def residuals(*tol):
        code, out, _ = run_cli(capsys, "--format", "json", "weierstrass", "verify", *lattice, *tol)
        assert code == 0
        return {name: e["residual"] for name, e in json.loads(out)["payload"]["checks"].items()}

    assert residuals("--tol", "1e-3") == residuals()


def test_weierstrass_generic_lattice(capsys):
    # values starting with "-" need the = form, as usual with argparse
    code, out, _ = run_cli(capsys, "weierstrass", "verify",
                           "--omega1=1.3+0.2i", "--omega2=-0.4+1.1i")
    assert code == 0


def test_weierstrass_degenerate_lattice(capsys):
    code, _, err = run_cli(capsys, "weierstrass", "verify",
                           "--omega1", "1", "--omega2", "2")
    assert code == 2


@pytest.mark.parametrize("flags,named", [
    (("--omega1", "1e-300", "--omega2", "1e-300i"), "--omega1"),  # the invariants divide by 0
    (("--omega1", "1e200", "--omega2", "1e200i"), "--omega1"),  # g3 overflows
    (("--omega1", "1e-20", "--omega2", "1e-20i"), "--omega1"),  # the Newton iterates turn NaN
    (("--omega1", "1", "--omega2", "nan"), "--omega2"),
    (("--omega1=-0.1573959898+0.1442840671i", "--omega2=0.0096894062-0.0261853309i"),
     "--omega1/--omega2"),  # a long, flat cell: the quasi-periodicity factors overflow
    (("--lemniscatic", "--tol", "nan"), "--tol"),  # every check would fail
    (("--lemniscatic", "--tol", "-1"), "--tol"),
    (("--lemniscatic", "--omega1=5", "--omega2=3i"), "--lemniscatic"),  # fixes 1 and i
    (("--lemniscatic", "--omega2=3i"), "--lemniscatic"),
], ids=["tiny", "huge", "small", "nan", "flat", "tol-nan", "tol-negative",
        "lemniscatic-and-periods", "lemniscatic-and-omega2"])
def test_weierstrass_verify_refuses_bad_periods_and_tol(capsys, flags, named):
    code, out, err = run_cli(capsys, "weierstrass", "verify", *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}") and "Traceback" not in err


def test_classes_wn_and_cpn(capsys):
    code, out, _ = run_cli(capsys, "classes", "wn", "--max-weight", "2")
    assert code == 0 and "w1 = 1/2*t1" in out
    code, out, _ = run_cli(capsys, "classes", "cpn", "--max-weight", "2")
    assert code == 0 and "cp1 = -t1" in out


def test_env_var_default_weight(monkeypatch, capsys):
    """THETA_MAX_WEIGHT is read on every call, also when the same argv repeats
    in one process and `main` reuses its parse."""
    tables = {}
    for weight in (4, 1, 3, 5, 3):
        monkeypatch.setenv("THETA_MAX_WEIGHT", str(weight))
        code, out, _ = run_cli(capsys, "--format", "json", "beta")
        env = json.loads(out)
        assert code == 0 and env["payload"]["max_weight"] == weight
        code, out, _ = run_cli(capsys, "logarithm")
        assert code == 0 and out == run_cli(capsys, "logarithm", "--max-weight", str(weight))[1]
        assert tables.setdefault(weight, out) == out
    assert len(set(tables.values())) == 4
    monkeypatch.setenv("THETA_MAX_WEIGHT", "zzz")
    code, _, err = run_cli(capsys, "beta")
    assert code == 2


@functools.cache
def _recorded_digests() -> dict:
    """The benchmark's recorded cold-process digests, grouped by the first word
    of the subcommand: word -> [(argv, sha256 of stdout, exit code)]."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "digests.json")
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    groups: dict[str, list] = {}
    for key, entry in entries.items():
        argv = json.loads(key)
        command = argv[2:] if argv[:1] == ["--format"] else argv
        groups.setdefault(command[0], []).append((argv, entry["sha256"], entry["exit"]))
    return groups


def _replay(capsys, cases):
    for argv, sha, exit_code in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, sha), argv


def test_operations_replay_recorded_digests(capsys):
    """Every `quantize` entry, every 10th `ln apply` entry and `selftest`."""
    groups = _recorded_digests()
    cases = groups["quantize"] + groups["ln"][::10] + groups["selftest"]
    assert len(cases) > 150 and groups["selftest"][0][0] == ["selftest"]
    _replay(capsys, cases)


def test_genus_and_weierstrass_replay_recorded_digests(capsys):
    """Every `genus` entry and every 16th `weierstrass verify` entry."""
    cases = _recorded_digests()["genus"] + _recorded_digests()["weierstrass"][::16]
    assert len(cases) > 120
    _replay(capsys, cases)


def _series_weight(argv) -> int:
    """The weight a `logarithm` or `fgl check` entry runs at: its
    --max-weight or --order, else the default (12 and 8)."""
    for flag in ("--max-weight", "--order"):
        if flag in argv:
            return int(argv[argv.index(flag) + 1])
    return 12 if "logarithm" in argv else 8


def test_series_path_replay_recorded_digests(capsys, monkeypatch, empty_prefix_caches):
    """Every `beta`, `logarithm`, `fgl`, `theta` and `invariants` entry in
    one process, from no kept logarithm: the `logarithm` and `fgl` entries in
    ascending weight, so each extends the prefix the one before it kept,
    then in descending weight, so each reads a truncation of it."""
    monkeypatch.delenv("THETA_MAX_WEIGHT", raising=False)
    groups = _recorded_digests()
    ladder = sorted(groups["logarithm"] + groups["fgl"], key=lambda case: _series_weight(case[0]))
    cases = groups["beta"] + ladder + ladder[::-1] + groups["theta"] + groups["invariants"]
    assert len(cases) == 1 + 2 * (9 + 6) + 36 + 17
    _replay(capsys, cases)


def test_congruence_path_replay_recorded_digests(capsys, tmp_path, monkeypatch):
    """Every `congruences` and `classes` entry, run where the `--check` vector
    files the benchmark writes for seeds 0..31 are."""
    cases = _recorded_digests()["congruences"] + _recorded_digests()["classes"]
    assert len(cases) == 87
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir))
    from perfbench.workloads import WORKLOADS, requests_for
    for workload in WORKLOADS:
        for seed in range(32):
            for req in requests_for(workload, seed):
                for path, text in req.files:
                    target = tmp_path / path
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text(text)
    monkeypatch.chdir(tmp_path)
    _replay(capsys, cases)


# -- the CLI grammar, drawn ------------------------------------------------------------
#
# Values at and past each cap, empty, signed and non-ASCII digits, long
# generator indices, nested parentheses and malformed input files.  A cap
# whose request takes over 0.2 s (congruences --n 14, invariants --n 45,
# fgl check --order 20, selftest) is drawn only past it, to keep the test
# near a second.

_VECTOR = '"values": {"2": 1, "1,1": 1}, "frame": "tangent", "basis": "monomial"'
GRAMMAR_FILES = {
    "deep.json": "[" * 100000,
    "binary.json": "\udcff\udcfe",
    "text.json": "not json",
    "g-inf.json": '{"coeffs": ["1", 1e999]}',
    "g-object.json": '{"coeffs": ["1", {"a": 1}]}',
    "g-empty.json": '{"coeffs": []}',
    "g-two.json": '{"coeffs": ["2"]}',
    "g-zero-den.json": '{"coeffs": ["1", "1/0"]}',
    "g-long.json": '{"coeffs": ["1", "1e5000"]}',
    "g-arabic.json": '{"coeffs": ["1", "\u0663/\u0664"]}',
    "g-string.json": '{"coeffs": "1"}',
    "v-ok.json": "{\"weight\": 2, " + _VECTOR + "}",
    "v-list.json": '{"weight": 2, "values": [1], "frame": "tangent", "basis": "monomial"}',
    "v-inf.json": '{"weight": 1e999}',
    "v-frame.json": '{"weight": 2, "values": {"2": 1, "1,1": 1}, "frame": 5, "basis": "monomial"}',
    "v-short.json": '{"weight": 2, "values": {"2": 1}, "frame": "tangent", "basis": "monomial"}',
    "v-part.json": '{"weight": 2, "values": {"-1,3": 1, "1,1": 1}, "frame": "tangent", '
                   '"basis": "monomial"}',
    "v-nan.json": '{"weight": 2, "values": {"2": "nan", "1,1": 1}, "frame": "tangent", '
                  '"basis": "monomial"}',
    "v-weight.json": "{\"weight\": \"\u0663\", " + _VECTOR + "}",
    "g-true.json": '{"coeffs": ["1", true]}',
    "v-true.json": '{"weight": true, "values": {"1": 1}, "frame": "tangent", "basis": "monomial"}',
    "v-float.json": "{\"weight\": 2.7, " + _VECTOR + "}",
    "v-exp.json": '{"weight": 2, "values": {"2": "1e-5000", "1,1": 1}, "frame": "tangent", '
                  '"basis": "monomial"}',
    "v-long-int.json": '{"weight": 2, "values": {"2": ' + "9" * 5000 + ', "1,1": 1}, '
                       '"frame": "tangent", "basis": "monomial"}',
    "v-long-frac.json": '{"weight": 2, "values": {"2": "' + "7" * 3000 + '/3", "1,1": 1}, '
                        '"frame": "tangent", "basis": "monomial"}',
    "v-decimal.json": '{"weight": 2, "values": {"2": 0.1, "1,1": 1}, "frame": "tangent", '
                      '"basis": "monomial"}',
    "g-decimal.json": '{"coeffs": ["1", 0.1]}',
    "v-array.json": "[]",
    "v-null.json": "null",
    "v-string.json": '"x"',
    "v-number.json": "2",
    "v-weight-only.json": '{"weight": 2}',
    "v-no-frame.json": '{"weight": 2, "values": {"2": 1, "1,1": 1}, "basis": "monomial"}',
    "v-no-basis.json": '{"weight": 2, "values": {"2": 1, "1,1": 1}, "frame": "tangent"}',
    "v-partition-twice.json": '{"weight": 2, "values": {"2": 1, "1,1": 0, "1, 1": 5}, '
                              '"frame": "tangent", "basis": "monomial"}',
    "v-key-twice.json": '{"weight": 2, "values": {"2": 1, "1,1": 0, "1,1": 5}, '
                        '"frame": "tangent", "basis": "monomial"}',
    "g-key-twice.json": '{"coeffs": ["1", "1/2"], "coeffs": ["1"]}',
}
_PATHS = [*(f"@/{name}" for name in GRAMMAR_FILES), "@/missing.json"]
_FILES = st.sampled_from(_PATHS)


def _with_every_file(test):
    """Each file under both flags that read one, as explicit examples."""
    for path in _PATHS:
        test = example(argv=["genus", "--name", f"file:{path}", "--of", "theta:3"])(test)
        test = example(argv=["congruences", "--n", "2", "--check", path])(test)
    return test


def _numbers(*edges):
    """Integer texts: the given edges, and malformed or signed ones."""
    return st.sampled_from([*map(str, edges), "", "-0", "+2", "\u0663", "\uff11", "\u00b2",
                            "1_0", " 4", "9" * 30, "x"])


_ATOMS = st.sampled_from(["t1", "t2", "t7", "t14", "t15", "t60", "t61", "t" + "1" * 30, "t",
                          "t\u0663", "t0", "t00001", "", "3/2", "1/0", "-t2", "+t3", "t1^14",
                          "t1^15", "t30^2", "2^3000*t1", "(t1+t2)^3", "\u0663", "t1*", "1e3"])
_EXPRS = st.one_of(
    st.lists(_ATOMS, min_size=1, max_size=3).flatmap(
        lambda atoms: st.sampled_from([" + ".join(atoms), "*".join(atoms), " - ".join(atoms)])),
    st.tuples(st.sampled_from([1, 50, 99, 100, 101]), st.booleans()).map(
        lambda dc: "(" * dc[0] + "t1+t2" + ")" * (dc[0] if dc[1] else dc[0] - 1)))
_COMPLEX = st.sampled_from(["1", "1j", "1.3+0.2i", "-0.4+1.1i", "1e-4", "1e-5", "1e4j", "1e5",
                            "0", "nan", "inf", "", "\u0663", "1+1j", "10j", "0.1+100j"])


def _flag(name, values, optional=True):
    pair = values.map(lambda value: (name, value))
    return st.one_of(st.just(()), pair) if optional else pair


def _command(words, *flags):
    return st.tuples(*flags).map(lambda drawn: [*words, *(x for pair in drawn for x in pair)])


_ARGVS = st.tuples(st.sampled_from([[], ["--format", "json"]]), st.one_of(
    st.sampled_from([["beta"], ["logarithm"], ["classes", "vn"], ["classes", "wn"],
                     ["classes", "cpn"], ["classes", "xx"]]).flatmap(
        lambda words: _command(words, _flag("--max-weight", _numbers(1, MAX_WEIGHT, 0, MAX_WEIGHT + 1)))),
    _command(["fgl", "check"], _flag("--order", _numbers(1, 8, 0, 21))),
    _command(["congruences"], _flag("--n", _numbers(0, 2, 4, -1, 15), optional=False),
             _flag("--check", _FILES)),
    _command(["invariants"], _flag("--n", _numbers(1, 6, 0, 46), optional=False),
             _flag("--k", _numbers(1, 10 ** 6, 0, 10 ** 6 + 1))),
    _command(["theta", "intersect"], _flag("--n", _numbers(0, 30, -1, 31), optional=False),
             _flag("--k", _numbers(0, 30, -1, 31), optional=False)),
    _command(["ln", "apply"],
             _flag("--partition", st.sampled_from(["", "2,1", "14", "15", "7,7", "7,8", "\u0663",
                                                   "1,,2", "-1", "1" + "0" * 30, "a"]),
                   optional=False),
             _flag("--expr", _EXPRS, optional=False)),
    _command(["quantize"], _flag("--expr", _EXPRS, optional=False),
             st.sampled_from([(), ("--roundtrip",)])),
    _command(["genus"],
             _flag("--name", st.one_of(st.sampled_from(["todd", "l", "euler", "nope", ""]),
                                       _FILES.map(lambda path: "file:" + path)), optional=False),
             _flag("--of", st.one_of(_numbers(0, 60, -1, 61).map(lambda n: "theta:" + n),
                                     _EXPRS.map(lambda expr: "poly:" + expr), st.just("t1")),
                   optional=False)),
    _command(["weierstrass", "verify"], st.sampled_from([(), ("--lemniscatic",)]),
             _flag("--omega1", _COMPLEX), _flag("--omega2", _COMPLEX),
             _flag("--tol", st.sampled_from(["1e-8", "0", "-1", "inf", "nan", "", "\u0663"]))),
)).map(lambda parts: parts[0] + parts[1])


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    for name, text in GRAMMAR_FILES.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return root


@pytest.mark.parametrize("argv, flag", [
    (["genus", "--name", "file:@/g-true.json", "--of", "theta:3"], "--name"),
    (["congruences", "--n", "1", "--check", "@/v-true.json"], "--check"),
    (["congruences", "--n", "2", "--check", "@/v-float.json"], "--check"),
], ids=["genus-true", "check-true", "check-float"])
def test_input_file_integers_must_be_json_integers(grammar_dir, capsys, argv, flag):
    """A JSON boolean or a float where a file needs an integer is malformed:
    int() and Fraction() would read true as 1 and 2.7 as 2."""
    argv = [arg.replace("@/", f"{grammar_dir}{os.sep}") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(f"error: {flag}:"), err


@pytest.mark.parametrize("name", ["v-array.json", "v-null.json", "v-string.json",
                                  "v-number.json", "v-weight-only.json", "v-no-frame.json",
                                  "v-no-basis.json"])
def test_chern_vector_file_of_the_wrong_shape_is_refused_in_words(grammar_dir, capsys, name):
    """A file that is no JSON object, or lacks a key, is refused with a message
    that names the flag and the fault, not with Python's own."""
    code, out, err = run_cli(capsys, "congruences", "--n", "2", "--check",
                             str(grammar_dir / name))
    assert code == 2 and out == "" and err.startswith("error: --check:"), err
    assert not re.search(r"indices|subscriptable|NoneType|: '\w+'$", err.strip()), err


@pytest.mark.parametrize("argv, flag", [
    (["congruences", "--n", "2", "--check", "@/v-partition-twice.json"], "--check"),
    (["congruences", "--n", "2", "--check", "@/v-key-twice.json"], "--check"),
    (["genus", "--name", "file:@/g-key-twice.json", "--of", "theta:2"], "--name"),
], ids=["check-partition", "check-key", "genus-key"])
def test_input_file_gives_each_key_once(grammar_dir, capsys, argv, flag):
    """A file that gives one partition or JSON key twice is refused: read last-wins,
    its verdict would depend on which value comes last."""
    argv = [arg.replace("@/", f"{grammar_dir}{os.sep}") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith(f"error: {flag}:") and "twice" in err, err


@settings(max_examples=80, deadline=None)
@given(argv=_ARGVS)
@_with_every_file
def test_cli_grammar_exits_cleanly(grammar_dir, argv):
    """Every drawn argv exits 0, 2 or 3 within seconds, with no traceback;
    an exit 2 names a flag or prints the usage."""
    argv = [arg.replace("@/", f"{grammar_dir}{os.sep}") for arg in argv]
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse error
            code = exc.code
    assert time.perf_counter() - start < 5, argv
    err = err.getvalue()
    assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
    if code == 2:
        assert err.startswith("usage:") or re.search(r"--[a-z]|THETA_MAX_WEIGHT", err), (argv, err)
