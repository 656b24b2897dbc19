"""The command-line program run as a fresh process from an empty
temporary directory: its exit codes, a spec written there, and the bytes
that in-process calls must repeat.

The command is read from the environment variable WICKSTAR_COMMAND
(split as a shell would split it), so the same cases can run against an
installed console script: ``WICKSTAR_COMMAND=wickstar python -m pytest
tests/test_installed_cli.py``.  By default it is ``python -m wickstar``
on the interpreter and the package that the tests import.  The
in-process calls always run the imported package, which is the source
tree when pytest runs with this repository's configuration."""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import wickstar
import wickstar.cli

IDENT = json.dumps({"type": "poly", "coeffs": [[0, 0], [1, 0]]})
SERIES = json.dumps({"type": "series", "coeffs": [[1, 0], [1, 0], [0.5, 0]], "rho": 4,
                     "C": 1})
ZBAR = json.dumps({"type": "bipoly", "coeffs": [[0, 1, [1, 0]]]})
Z = json.dumps({"type": "bipoly", "coeffs": [[1, 0, [1, 0]]]})
CUBE = json.dumps({"type": "poly", "coeffs": [[0, 0], [0, 0], [0, 0], [1, 0]]})

# spec files written to the working directory before each case
SPECS = {
    "seed-negative.json": {"experiment": "elliptic-indices", "n_fold": 2, "seed": -1},
    "hbar-grid.json": {"experiment": "obstruction", "degree": 3,
                       "hbar_grid": [[0.05, 0.0], [-0.05, 0.0], [0.0, 0.08], [0.0, -0.08]]},
    "samples.json": {"experiment": "elliptic-indices", "n_fold": 2, "samples": 40},
    "seed.json": {"experiment": "invariant-dimension", "seed": 7},
    "generators.json": {"experiment": "invariant-dimension", "generators": "two-hyperbolic"},
}


def _star(surface, f, g, *rest):
    return ["star", "eval", "--surface", surface, "--f", f, "--g", g, *rest]


CASES = [pytest.param(code, argv, id=name) for name, code, argv in [
    # a boolean hbar, a NaN point and an unknown option are input errors
    ("bool-hbar", 2, _star("punctured", IDENT, IDENT, "--hbar", "true", "--point", "0.4")),
    ("nan-point", 2, _star("punctured", IDENT, IDENT, "--hbar", "0.5", "--point", "NaN")),
    ("weight-variant", 2, _star("punctured", IDENT, IDENT, "--hbar", "0.5", "--point", "0.4",
                                "--weight-variant", "printed")),
    # so is a series asked past its usable order
    ("series-order", 2, _star("punctured", SERIES, SERIES, "--hbar", "0.3", "--point", "0.4")),
    # so is hbar = 0, and a disk sum that reaches a pole's divisor: z-bar * z
    # at hbar = -1/2 divides kappa_3 by 1 + 2 hbar = 0
    ("disk-pole", 2, _star("disk", ZBAR, Z, "--hbar", "-0.5", "--point", "0.4")),
    ("hbar-zero", 2, _star("disk", ZBAR, Z, "--hbar", "0", "--point", "0.4")),
    # an exact-finite annulus product raises exactly when its kappa row
    # forms that divisor, so t * t runs and t^3 * t^3 does not
    ("exact-t", 0, _star("annulus", IDENT, IDENT, "--hbar", "-0.5", "--point", "0.4",
                         "--mode", "exact-finite")),
    ("exact-cube", 2, _star("annulus", CUBE, CUBE, "--hbar", "-0.5", "--point", "0.4",
                            "--mode", "exact-finite")),
    # a hbar next to a pole can be written in exponent form
    ("exponent-hbar", 0, _star("disk", ZBAR, Z, "--hbar", "-1e-3", "--point", "-2e-1")),
    # a negative verify seed, a spec key its experiment does not read (the
    # rigidity draw is fixed, so "seed" and "samples" are such keys, whatever
    # their value, and the obstruction derives its hbar samples, so the
    # bundled spec's former "hbar_grid" is one), a spec path that is a
    # directory, and an unknown option
    ("verify-seed", 2, ["verify", "--seed", "-1"]),
    ("spec-seed-negative", 2, ["rigidity", "--spec", "seed-negative.json"]),
    ("spec-samples", 2, ["rigidity", "--spec", "samples.json"]),
    ("spec-seed", 2, ["rigidity", "--spec", "seed.json"]),
    ("spec-generators", 2, ["rigidity", "--spec", "generators.json"]),
    ("spec-hbar-grid", 2, ["rigidity", "--spec", "hbar-grid.json"]),
    ("spec-dir", 2, ["rigidity", "--spec", "spec-dir"]),
    ("inject-bug", 2, ["verify", "--suite", "lift", "--inject-bug", "printed-weight"]),
]]


def _command():
    """(argv prefix, environment) of the program under test."""
    env = dict(os.environ)
    given = env.get("WICKSTAR_COMMAND")
    if given:
        return shlex.split(given), env
    src = str(Path(wickstar.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return [sys.executable, "-m", "wickstar"], env


def _run(argv, cwd):
    command, env = _command()
    return subprocess.run([*command, *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=120)


@pytest.mark.parametrize("code, argv", CASES)
def test_exit_code(code, argv, tmp_path):
    for name, spec in SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "spec-dir").mkdir()
    proc = _run(argv, tmp_path)
    assert proc.returncode == code, proc.stderr


def test_a_five_fold_elliptic_spec_keeps_the_indices_equal_mod_5(tmp_path):
    # n_fold 5 takes the elliptic filter's second prime, 1,000,000,021
    spec = {"experiment": "elliptic-indices", "n_fold": 5, "degree": 6}
    (tmp_path / "elliptic-5.json").write_text(json.dumps(spec), encoding="utf-8")
    proc = _run(["rigidity", "--spec", "elliptic-5.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    kept = json.loads(proc.stdout)["invariant_indices"]
    assert kept == [[p, q] for p in range(7) for q in range(7) if (p - q) % 5 == 0]


def test_repeated_in_process_verify_prints_the_commands_bytes(tmp_path):
    # The in-process half runs the package this module imports: under the
    # repository's pytest configuration (pythonpath = src) that is the
    # source tree, even when WICKSTAR_COMMAND names an installed command.
    proc = _run(["verify", "--seed", "42"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = wickstar.cli.main(["verify", "--seed", "42"])
        assert code == 0
        assert buf.getvalue().encode("utf-8") == proc.stdout
