"""numpy loads with the first float product alone: ``import wickstar``,
the exact-finite products, the rigidity experiments, decided exactly or
mod p on points drawn over F_p, and the exact ``verify`` suites, whose
draws come from the standard library, run in an interpreter that never
imports it."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import wickstar
from wickstar.cli import main

SRC = str(Path(wickstar.__file__).resolve().parent.parent)

# runs each argv through wickstar.cli.main in turn and prints, per run,
# [exit code, stdout, whether numpy is loaded after it]
CHILD = r"""
import io, json, sys
from contextlib import redirect_stdout
import wickstar, wickstar.cli
out = [[None, wickstar.__file__, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = wickstar.cli.main(argv)
    out.append([code, buf.getvalue(), "numpy" in sys.modules])
print(json.dumps(out))
"""

IDENT = json.dumps({"type": "poly", "coeffs": [[0, 0], [1, 0]]})
SQUARE = json.dumps({"type": "poly", "coeffs": [[1, 0], [0, 0], [0.5, -1]]})
Z = json.dumps({"type": "bipoly", "coeffs": [[1, 0, [1, 0]], [2, 0, [0.5, 0.25]]]})
ZBAR_Z = json.dumps({"type": "bipoly", "coeffs": [[1, 1, [1, 0]]]})

EXACT = [
    ["star", "eval", "--surface", "disk", "--f", Z, "--g", ZBAR_Z, "--hbar", "0.5",
     "--point", "0.25", "--point", "[0.1, -0.3]", "--mode", "exact-finite"],
    ["star", "eval", "--surface", "annulus", "--f", SQUARE, "--g", IDENT,
     "--hbar", "[0.5, 0.1]", "--point", "1.2", "--mode", "exact-finite"],
    ["star", "eval", "--surface", "punctured", "--f", SQUARE, "--g", SQUARE,
     "--hbar", "0.25", "--point", "[0.3, 0.4]", "--mode", "exact-finite"],
    ["rigidity", "--spec", "two-hyperbolic-d3"],
    ["rigidity", "--spec", "elliptic-N2-d2"],
    ["rigidity", "--spec", "annulus-punctured-obstruction"],
    ["verify", "--suite", "unit", "--suite", "cn", "--suite", "commutativity"],
]
FLOAT = ["star", "eval", "--surface", "disk", "--f", ZBAR_Z, "--g", Z, "--hbar", "0.5",
         "--point", "0.3", "--point", "[0.2, -0.4]"]


def _in_process(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_exact_paths_load_no_numpy_and_the_first_float_product_does():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(EXACT + [FLOAT])],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    (_, path, loaded), *runs = json.loads(proc.stdout)
    assert Path(path).resolve() == Path(wickstar.__file__).resolve()
    assert not loaded, "import wickstar, wickstar.cli loaded numpy"
    for argv, (code, out, loaded) in zip(EXACT, runs):
        assert (code, out) == _in_process(argv)
        assert code == 0 and not loaded, argv
    code, out, loaded = runs[-1]
    assert loaded
    assert (code, out) == _in_process(FLOAT) and code == 0
