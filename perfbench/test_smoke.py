"""Smoke test of the benchmark harness (under a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("z, h", [(0.95, 0.5), (0.3 + 0.4j, 0.35 + 0.25j),
                                  (0.7j, -1 / 3 + 2e-3), (0.0, 2.0)])
def test_disk_oracles_agree(z, h):
    closed = oracles.zbar_star_z(z, h)
    series = oracles.bipoly_star({(0, 1): 1}, {(1, 0): 1}, h, z)
    assert abs(closed - series) <= 1e-13 * max(1.0, abs(closed))


def test_surface_oracles_agree():
    g, gt = [Fraction(1), Fraction(-2), Fraction(3, 2)], [Fraction(2), Fraction(0), Fraction(1)]
    h, w = Fraction(2, 5), Fraction(3, 10)
    for surface in ("annulus", "punctured"):
        exact = oracles.exact_surface_poly([oracles.cq(c) for c in g],
                                           [oracles.cq(c) for c in gt], oracles.cq(h), surface)
        value = sum(complex(float(re), float(im)) * float(w) ** k
                    for k, (re, im) in enumerate(exact))
        assert abs(value - oracles.surface_poly_star(g, gt, h, w, surface)) <= 1e-12


def test_seed_fixes_the_inputs():
    ref = lambda op: op.check.__closure__[0].cell_contents  # noqa: E731
    a, b, c = workloads.disk_cold(3), workloads.disk_cold(3), workloads.disk_cold(4)
    assert [ref(op) for op in a.ops] == [ref(op) for op in b.ops]
    assert [ref(op) for op in a.ops] != [ref(op) for op in c.ops]


def test_recorder_self_time_and_uninstall():
    import wickstar.star as star

    original = star.star_disk
    rec = spans.Recorder()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = rec.wrap(lambda: busy(0.02), "pm.polydisk")
    outer = rec.wrap(lambda: (busy(0.01), inner()), "star")
    rec.run_op(outer)
    assert rec.self_time["star"] == pytest.approx(rec.total["star"] - rec.total["pm.polydisk"])
    assert rec.self_time["star"] >= 0.01 and rec.total["pm.polydisk"] >= 0.02
    assert {s[3] for s in rec.spans} == {"op", "star", "pm.polydisk"}

    rec.install()
    assert star.star_disk is not original
    rec.uninstall()
    assert star.star_disk is original and not rec.missing


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_contract_metrics(trace, section):
    proc = _run("--workload", "verify-rigidity", "--seed", "0", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "exact", "--seed", "0", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip().startswith("{")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
