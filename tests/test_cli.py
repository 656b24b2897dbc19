import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wickstar
from wickstar import cli
from wickstar.cli import (EXIT_DOMAIN, EXIT_INTERNAL, EXIT_NONCONVERGED, EXIT_OK,
                          disk_function_from_json, main)
from wickstar.star import StarConfig
from wickstar.suites import run_suites


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_star_eval_on_the_disk():
    f = json.dumps({"type": "bipoly", "coeffs": [[1, 0, [1, 0]]]})   # z
    g = json.dumps({"type": "bipoly", "coeffs": [[0, 1, [1, 0]]]})   # conj z
    code, out = run_cli("star", "eval", "--surface", "disk", "--f", f,
                        "--g", g, "--hbar", "0.5", "--point", "[0.3, 0.1]",
                        "--mode", "exact-finite")
    assert code == EXIT_OK
    body = json.loads(out)
    [res] = body["results"]
    z = 0.3 + 0.1j
    want = z * z.conjugate()
    assert complex(*res["value"]) == pytest.approx(want)
    assert res["converged"]


def test_star_eval_reports_how_each_sum_stopped():
    zbar = json.dumps({"type": "bipoly", "coeffs": [[0, 1, [1, 0]]]})
    z = json.dumps({"type": "bipoly", "coeffs": [[1, 0, [1, 0]]]})
    args = ("star", "eval", "--surface", "disk", "--f", zbar, "--g", z, "--hbar", "0.5")
    code, out = run_cli(*args, "--point", "0.3")
    assert code == EXIT_OK
    [res] = json.loads(out)["results"]
    assert res["stop_reason"] == "tol" and res["converged"]
    # the options left out default to the library's own configuration
    ns = cli.build_parser().parse_args([*args, "--point", "0.3"])
    assert StarConfig(max_terms=ns.max_terms, tol=ns.tol, mode=ns.mode) == StarConfig()
    code, out = run_cli(*args, "--point", "0.9", "--max-terms", "8")
    assert code == EXIT_NONCONVERGED
    [res] = json.loads(out)["results"]
    assert res["stop_reason"] == "budget" and not res["converged"]
    assert res["terms_used"] == 9


def test_star_eval_on_the_annulus():
    ident = json.dumps({"type": "poly", "coeffs": [[0, 0], [1, 0]]})
    code, out = run_cli("star", "eval", "--surface", "annulus", "--f", ident,
                        "--g", ident, "--hbar", "[0.5, 0]",
                        "--point", "0.4", "--mode", "exact-finite")
    assert code == EXIT_OK
    [res] = json.loads(out)["results"]
    w = 0.4
    assert complex(*res["value"]) == pytest.approx(w * w + 0.5 * (w * w - 1))


def test_star_eval_rejects_pole_and_bad_json():
    ident = json.dumps({"type": "poly", "coeffs": [[0, 0], [1, 0]]})
    code, out = run_cli("star", "eval", "--surface", "annulus", "--f", ident,
                        "--g", ident, "--hbar", "0", "--point", "0.4")
    assert code == EXIT_DOMAIN
    assert json.loads(out)["kind"] == "domain"
    code, _ = run_cli("star", "eval", "--surface", "disk", "--f", "{not json",
                      "--g", ident, "--hbar", "0.5", "--point", "0.1")
    assert code == EXIT_DOMAIN
    # a NaN tol would turn the stop rule off
    code, _ = run_cli("star", "eval", "--surface", "annulus", "--f", ident,
                      "--g", ident, "--hbar", "0.5", "--point", "0.4", "--tol", "nan")
    assert code == EXIT_DOMAIN


def test_star_eval_reads_negative_numbers_in_exponent_form():
    # argparse before Python 3.12 takes -1e-3 for an option and exits 2;
    # a hbar next to a pole, -1/7 + 1e-13 say, is written in exponent form
    zbar = json.dumps({"type": "bipoly", "coeffs": [[0, 1, [1, 0]]]})
    z = json.dumps({"type": "bipoly", "coeffs": [[1, 0, [1, 0]]]})
    args = ("star", "eval", "--surface", "disk", "--f", zbar, "--g", z)
    code, out = run_cli(*args, "--hbar", "-1e-3", "--point", "-2e-1")
    assert code == EXIT_OK
    [res] = json.loads(out)["results"]
    assert res["point"] == [-0.2, 0.0] and res["converged"]
    assert run_cli(*args, "--hbar", "-0.001", "--point", "-0.2") == (code, out)


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                 st.integers(-10**18, 10**18).map(str),
                 st.sampled_from(["-1E-3", "-2.5e+1", "-0", "-0.0", "-1.4285714285713e-1"])))
def test_every_finite_number_parses_as_a_hbar_and_a_point(text):
    ns = cli.build_parser().parse_args(
        ["star", "eval", "--surface", "disk", "--f", "{}", "--g", "{}",
         "--hbar", text, "--point", text])
    assert ns.hbar == text and ns.point == [text]
    assert cli._parse_complex(text) == complex(json.loads(text))


def test_star_eval_on_a_series_past_its_order_or_radius_is_a_domain_error():
    # the series' order and radius errors are DomainErrors: exit 2, kind domain
    for rho, message in ((4, "series of usable order 2 cannot supply derivative order 3; "
                             "extend the series to order >= 3"),
                         (0.5, "|t| = 0.4 outside the certified radius rho = 0.25 of "
                               "derivative order 1")):
        g = json.dumps({"type": "series", "coeffs": [[1, 0], [1, 0], [0.5, 0]],
                        "rho": rho, "C": 1})
        code, out = run_cli("star", "eval", "--surface", "punctured", "--f", g,
                            "--g", g, "--hbar", "0.3", "--point", "0.4")
        assert code == EXIT_DOMAIN
        assert json.loads(out) == {"error": message, "kind": "domain"}


IDENT = {"type": "poly", "coeffs": [[0, 0], [1, 0]]}
Z = {"type": "bipoly", "coeffs": [[1, 0, [1, 0]]]}
SERIES = {"type": "series", "coeffs": [[1, 0]] + [[0.5, 0]] * 64, "rho": 1e20, "C": 1.0}

# a spec (dict) for rigidity, or (surface, f, g) for star eval, optionally
# with a dict of options that replace --hbar 0.5 --point 0.3 or add others
MALFORMED = {
    "spec-missing-n_fold": {"experiment": "elliptic-indices"},
    # the obstruction derives its hbar samples, so "hbar_grid" is an unknown
    # key, whatever its value
    "spec-hbar-not-a-pair": {"experiment": "obstruction", "hbar_grid": [0.05], "degree": 3},
    "spec-degree-null": {"experiment": "invariant-dimension", "degree": None},
    "spec-n_fold-zero": {"experiment": "elliptic-indices", "n_fold": 0},
    # the draw is fixed, so "samples" and "seed" are unknown keys, whatever
    # their value
    "spec-samples-zero": {"experiment": "elliptic-indices", "n_fold": 2, "samples": 0},
    "spec-samples-negative": {"experiment": "elliptic-indices", "n_fold": 2, "samples": -3},
    "spec-invariant-seed-negative": {"experiment": "invariant-dimension", "seed": -1},
    "spec-elliptic-seed-negative": {"experiment": "elliptic-indices", "n_fold": 2,
                                    "seed": -1},
    "spec-invariant-degree-negative": {"experiment": "invariant-dimension", "degree": -1},
    "spec-elliptic-degree-negative": {"experiment": "elliptic-indices", "n_fold": 2,
                                      "degree": -1},
    # a float rotation by 6e-10 kept non-invariant indices
    "spec-n_fold-too-large": {"experiment": "elliptic-indices", "n_fold": 10 ** 10},
    "spec-obstruction-degree-negative": {"experiment": "obstruction", "degree": -2},
    "bipoly-missing-coeffs": ("disk", {"type": "bipoly"}, Z),
    "exp-missing-scale": ("annulus", IDENT, {"type": "exp"}),
    "poly-coeff-not-a-pair": ("annulus", {"type": "poly", "coeffs": [1]}, IDENT),
    # json writes and reads NaN and Infinity; the series reaches every
    # order and radius of the sum, so only its certificate is wrong
    "series-rho-nan": ("annulus", {**SERIES, "rho": float("nan")}, IDENT),
    "series-C-infinity": ("annulus", {**SERIES, "C": float("inf")}, IDENT),
    "series-C-nan": ("annulus", {**SERIES, "C": float("nan")}, IDENT),
    # a series without coefficients, on every surface
    "series-empty-annulus": ("annulus", {**SERIES, "coeffs": []}, IDENT),
    "series-empty-punctured": ("punctured", IDENT, {**SERIES, "coeffs": []}),
    "series-empty-disk": ("disk", Z, {"type": "composed-p",
                                      "g": {**SERIES, "coeffs": []}}),
    # ħ and the points are read as the operands are: no booleans, and no
    # NaN, Infinity or int past the float range, which json reads
    "hbar-true": ("annulus", IDENT, IDENT, {"--hbar": "true"}),
    "hbar-pair-with-true": ("annulus", IDENT, IDENT, {"--hbar": "[0.5, true]"}),
    "point-true": ("annulus", IDENT, IDENT, {"--point": "true"}),
    "point-nan-disk": ("disk", Z, Z, {"--point": "NaN"}),
    "point-nan-annulus": ("annulus", IDENT, IDENT, {"--point": "NaN"}),
    "point-infinity-punctured": ("punctured", IDENT, IDENT, {"--point": "Infinity"}),
    "point-int-past-float-range": ("annulus", IDENT, IDENT, {"--point": "1" + "0" * 400}),
    # a real field past the float range is refused, not an internal error
    "series-rho-int-past-float-range": ("annulus", {**SERIES, "rho": 10 ** 400}, IDENT),
    "series-C-int-past-float-range": ("annulus", {**SERIES, "C": 10 ** 400}, IDENT),
    # the obstruction reads no annulus modulus, so "R" is an unknown key
    "spec-R-int-past-float-range": {"experiment": "obstruction", "R": 10 ** 400,
                                    "degree": 3},
    "poly-coeff-nan-exact": ("annulus", {"type": "poly", "coeffs": [[float("nan"), 0]]},
                             IDENT, {"--mode": "exact-finite"}),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_domain_error(case, tmp_path):
    if isinstance(case, dict):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(case), encoding="utf-8")
        argv = ["rigidity", "--spec", str(spec)]
    else:
        surface, f, g, *options = case
        options = {"--hbar": "0.5", "--point": "0.3", **(options[0] if options else {})}
        argv = ["star", "eval", "--surface", surface, "--f", json.dumps(f),
                "--g", json.dumps(g), *itertools.chain(*options.items())]
    code, out = run_cli(*argv)
    assert code == EXIT_DOMAIN
    assert json.loads(out)["kind"] == "domain"


def test_empty_polynomial_is_zero():
    # no coefficients is the zero polynomial, on either surface and mode
    empty = json.dumps({"type": "poly", "coeffs": []})
    for surface in ("annulus", "punctured"):
        for mode in ("truncated", "exact-finite"):
            code, out = run_cli("star", "eval", "--surface", surface, "--f", empty,
                                "--g", json.dumps(IDENT), "--hbar", "0.5",
                                "--point", "0.3", "--mode", mode)
            assert code == EXIT_OK
            [res] = json.loads(out)["results"]
            assert res["value"] == [0.0, 0.0]


def test_a_product_past_the_float_range_is_an_internal_error_in_either_mode():
    # the exact sum of coefficients 1e308 rounds past the float range, as
    # the float sum leaves it: exit 4, never NaN reported as converged
    big = json.dumps({"type": "poly", "coeffs": [[1e308, 0], [1e308, 0]]})
    for mode in ("truncated", "exact-finite"):
        code, out = run_cli("star", "eval", "--surface", "annulus", "--f", big,
                            "--g", big, "--hbar", "0.5", "--point", "0.4", "--mode", mode)
        assert code == EXIT_INTERNAL
        body = json.loads(out)
        assert body["kind"] == "internal" and "range of double precision" in body["error"]


def test_disk_function_json_variants():
    composed = disk_function_from_json(
        {"type": "composed-p", "g": {"type": "poly", "coeffs": [[0, 0], [1, 0]]}})
    assert composed.value(0.2 + 0.1j) is not None
    with pytest.raises(Exception):
        disk_function_from_json({"type": "spline"})


def test_verify_passes_and_is_byte_deterministic():
    code1, out1 = run_cli("verify", "--seed", "42")
    code2, out2 = run_cli("verify", "--seed", "42")
    assert code1 == EXIT_OK and code2 == EXIT_OK
    assert out1 == out2
    report = json.loads(out1)
    assert report["metadata"]["seed"] == 42
    assert all(c["status"] == "pass" for c in report["checks"])
    assert all(c["runtime_ms"] == 0 for c in report["checks"])


def test_verify_refuses_a_negative_seed():
    code, out = run_cli("verify", "--seed", "-1")
    assert code == EXIT_DOMAIN
    assert json.loads(out) == {"kind": "domain", "error": "a seed is an integer >= 0, got -1"}


def test_verify_timing_is_per_check():
    t0 = time.perf_counter()
    report = run_suites(names=["unit", "associativity"], seed=42, timing=True)
    total_ms = (time.perf_counter() - t0) * 1000
    times = [c["runtime_ms"] for c in report["checks"]]
    assert all(t >= 0 for t in times)
    assert sum(times) <= total_ms
    assert all("done_at" not in c for c in report["checks"])


def test_verify_tol_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--tol", "1e-9")
    assert exc.value.code == 2


def test_weight_and_bug_options_are_gone():
    # one weight per surface; the wrong punctured weight is a test-side
    # mutation (tests/test_mutations.py)
    ident = json.dumps(IDENT)
    for argv in (("star", "eval", "--surface", "punctured", "--f", ident, "--g", ident,
                  "--hbar", "0.5", "--point", "0.3", "--weight-variant", "printed"),
                 ("verify", "--suite", "lift", "--inject-bug", "printed-weight")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


def test_verify_single_suite_selection():
    code, out = run_cli("verify", "--suite", "cn", "--seed", "7")
    assert code == EXIT_OK
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert names == {"cn-recurrence-vs-product", "cn-domain-guard", "cn-value"}


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["two-hyperbolic-d3", "elliptic-N2-d2",
                                  "annulus-punctured-obstruction"])
def test_rigidity_bundled_spec_prints_its_recorded_bytes(name):
    # the whole report: the prime, the rank, the index set and the
    # obstruction residuals to the last digit
    code, out = run_cli("rigidity", "--spec", name)
    assert code == EXIT_OK
    assert out == (GOLDEN / f"rigidity-{name}.out").read_text(encoding="utf-8")


def test_verify_prints_its_recorded_bytes():
    # every residual to its last bit: a change that moves one shows here
    code, out = run_cli("verify", "--seed", "42")
    assert code == EXIT_OK
    assert out == (GOLDEN / "verify-seed-42.out").read_text(encoding="utf-8")


def test_rigidity_bundled_specs():
    code, out = run_cli("rigidity", "--spec", "elliptic-N2-d2")
    assert code == EXIT_OK
    body = json.loads(out)
    kept = {tuple(k) for k in body["invariant_indices"]}
    assert kept == {(p, q) for p in range(3) for q in range(3)
                    if (p - q) % 2 == 0}

    code, out = run_cli("rigidity", "--spec", "annulus-punctured-obstruction")
    assert code == EXIT_OK
    body = json.loads(out)
    assert set(body) == {"experiment", "residuals", "verdict"}
    assert body["verdict"] == "obstructed"


def test_rigidity_unknown_spec_is_a_domain_error():
    code, out = run_cli("rigidity", "--spec", "no-such-experiment")
    assert code == EXIT_DOMAIN


def test_rigidity_spec_path_that_cannot_be_read_is_a_domain_error(tmp_path):
    code, out = run_cli("rigidity", "--spec", str(tmp_path))
    assert code == EXIT_DOMAIN
    body = json.loads(out)
    assert body["kind"] == "domain" and "cannot read experiment spec" in body["error"]


def test_rigidity_rejects_unknown_spec_keys(tmp_path):
    spec = tmp_path / "typo.json"
    spec.write_text(json.dumps({"experiment": "invariant-dimension", "degre": 5,
                                "svd_tol": 1e-3, "samples": 10}), encoding="utf-8")
    code, out = run_cli("rigidity", "--spec", str(spec))
    assert code == EXIT_DOMAIN
    error = json.loads(out)["error"]
    for key in ("'degre'", "'svd_tol'", "'samples'"):
        assert key in error
    # a key that one kind reads is still unknown to another
    spec.write_text(json.dumps({"experiment": "obstruction", "degree": 3, "seed": 1}),
                    encoding="utf-8")
    code, out = run_cli("rigidity", "--spec", str(spec))
    assert code == EXIT_DOMAIN and "'seed'" in json.loads(out)["error"]
    # the draw is fixed: no experiment reads a seed or a sample count
    for body, keys in (({"experiment": "invariant-dimension", "seed": 7}, ["'seed'"]),
                       ({"experiment": "elliptic-indices", "n_fold": 2, "samples": 40,
                         "seed": 3}, ["'samples'", "'seed'"])):
        spec.write_text(json.dumps(body), encoding="utf-8")
        code, out = run_cli("rigidity", "--spec", str(spec))
        assert code == EXIT_DOMAIN
        assert all(key in json.loads(out)["error"] for key in keys)
    # the invariant dimension has one generator set, and no key to name it
    spec.write_text(json.dumps({"experiment": "invariant-dimension",
                                "generators": "two-hyperbolic"}), encoding="utf-8")
    code, out = run_cli("rigidity", "--spec", str(spec))
    assert code == EXIT_DOMAIN and "'generators'" in json.loads(out)["error"]
    # the obstruction reads no annulus modulus, and derives its hbar samples
    # from the degree
    for key, value in (("R", 2.0), ("hbar_grid", [[0.05, 0.0], [-0.05, 0.0]])):
        spec.write_text(json.dumps({"experiment": "obstruction", key: value, "degree": 3}),
                        encoding="utf-8")
        code, out = run_cli("rigidity", "--spec", str(spec))
        assert code == EXIT_DOMAIN and f"'{key}'" in json.loads(out)["error"]
    # the elliptic filter has no tolerance
    spec.write_text(json.dumps({"experiment": "elliptic-indices", "n_fold": 2,
                                "tol": 1e-9}), encoding="utf-8")
    code, out = run_cli("rigidity", "--spec", str(spec))
    assert code == EXIT_DOMAIN and "'tol'" in json.loads(out)["error"]
    for body in ({"experiment": "no-such-kind"}, [1, 2]):
        spec.write_text(json.dumps(body), encoding="utf-8")
        assert run_cli("rigidity", "--spec", str(spec))[0] == EXIT_DOMAIN


def test_rigidity_invariant_dimension_report():
    code, out = run_cli("rigidity", "--spec", "two-hyperbolic-d3")
    assert code == EXIT_OK
    assert run_cli("rigidity", "--spec", "two-hyperbolic-d3") == (code, out)
    body = json.loads(out)
    assert set(body) == {"experiment", "dimension", "dimension_bounds", "rank",
                         "prime", "basis_size"}
    assert body["prime"] == 1_000_000_009
    assert body["basis_size"] - body["rank"] == body["dimension_bounds"][1]


def test_rigidity_csv_option_is_gone():
    with pytest.raises(SystemExit):
        run_cli("rigidity", "--spec", "two-hyperbolic-d3", "--csv", "out.csv")


# one parser per process --------------------------------------------------------


def test_handlers_are_looked_up_when_main_runs(monkeypatch):
    # this call builds the parser that later calls reuse, before any patch
    assert run_cli("verify", "--suite", "cn", "--seed", "1")[0] == EXIT_OK
    calls = []

    def stub(name, field):
        def handler(args):
            calls.append((name, getattr(args, field)))
            return EXIT_OK
        return handler

    monkeypatch.setattr(cli, "cmd_verify", stub("verify", "seed"))
    monkeypatch.setattr(cli, "cmd_rigidity", stub("rigidity", "spec"))
    for argv in (["verify", "--seed", "3"], ["rigidity", "--spec", "a"],
                 ["verify", "--seed", "4"], ["rigidity", "--spec", "b"]):
        assert main(argv) == EXIT_OK
    assert calls == [("verify", 3), ("rigidity", "a"), ("verify", 4), ("rigidity", "b")]


def test_reused_parser_keeps_no_state_between_calls():
    code, out = run_cli("verify", "--suite", "cn", "--seed", "7")
    assert code == EXIT_OK
    assert {c["name"] for c in json.loads(out)["checks"]} == \
        {"cn-recurrence-vs-product", "cn-domain-guard", "cn-value"}
    code, out = run_cli("verify", "--suite", "unit", "--seed", "7")
    assert code == EXIT_OK
    assert {c["name"] for c in json.loads(out)["checks"]} == {"disk-unit", "surface-unit"}
    # the --point lists of one call do not carry over to the next
    ident = json.dumps(IDENT)
    args = ("star", "eval", "--surface", "annulus", "--f", ident, "--g", ident,
            "--hbar", "0.5")
    code, out = run_cli(*args, "--point", "0.3", "--point", "0.4")
    assert code == EXIT_OK and len(json.loads(out)["results"]) == 2
    code, out = run_cli(*args, "--point", "0.5")
    assert code == EXIT_OK
    assert [r["point"] for r in json.loads(out)["results"]] == [[0.5, 0.0]]


def _fresh_process(argv):
    env = dict(os.environ)
    src = str(Path(wickstar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "wickstar", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_in_process_calls_behave_as_a_fresh_process():
    bad = ["verify", "--seed", "not-a-number"]
    good = ["verify", "--suite", "deck", "--seed", "5"]
    # a bad argv after a good one, and a good one after the bad one
    first = _in_process(good)
    got_bad = _in_process(bad)
    got_good = _in_process(good)
    assert got_bad[0] == 2 and "invalid int value" in got_bad[2]
    assert got_bad == _fresh_process(bad)
    assert got_good == first == _fresh_process(good)
    assert got_good[0] == EXIT_OK
