"""The wickstar benchmark.

    python3 perfbench/run.py --workload disk-cold --seed 1 --seconds 40 --trace 0

Runs one workload (or ``all`` of them, one after another) in this
process and this thread: a closed loop with one caller, repeating the
workload's fixed pass of operations until ``--seconds`` have passed and
the tail percentile has at least ten samples beyond it.  Every output is
checked against a reference that does not come from the code under test.

Set-up is timed apart from the workload, in fresh interpreters that
import ``wickstar`` and ``wickstar.cli`` and make one tiny CLI call.
Every time is scaled to the host's speed at the moment it was taken,
measured by ``reference_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes under the span recorder (``spans.py``) and
prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the machine and
version facts, goes to ``.bench_out/``; traced runs also write their
spans there.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads (here and in set-up children)
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ["disk-cold", "point-sweep", "exact", "verify-rigidity"]
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
# measuring stops here even if the tail still lacks samples, so a run
# ends well inside its time limit on a slow machine
MAX_MEASURE_S = 120.0
# Shared hosts change speed in phases lasting seconds to minutes (up to
# 2.5x on a 2-vCPU VM), and process CPU time slows with them, so raw
# walls of the same code spread by 15-50 % between runs.  Every timing is
# therefore scaled to the host's speed at the time: reference_s() is
# timed before and after each stretch of about SEGMENT_S of measured
# work, and the stretch's times are multiplied by REFERENCE_S over the
# mean of the two.  Reported times are seconds on a host where the
# reference takes REFERENCE_S; the raw times go to the result file.
SEGMENT_S = 0.1
REFERENCE_S = 0.01

SETUP_CHILD = r"""
import contextlib, io, time
t0 = time.perf_counter()
import wickstar, wickstar.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = wickstar.cli.main(["star", "eval", "--surface", "disk",
        "--f", '{"type":"bipoly","coeffs":[[1,0,[1,0]]]}',
        "--g", '{"type":"bipoly","coeffs":[[1,0,[1,0]]]}',
        "--hbar", "0.5", "--point", "0.25", "--mode", "exact-finite"])
print(repr(t1 - t0), code)
"""

PER_LAYER_SPANS = {
    "pm.polydisk_s": "pm.polydisk",
    "pm.pullback_s": "pm.pullback",
    "pm.composed_s": "pm.composed",
    "functions.bipoly_s": "functions.bipoly",
    "functions.jet_s": "functions.jet",
    "functions.entire_s": "functions.entire",
    "star.cn_s": "star.cn",
    "rigidity.invariant_dimension_s": "rigidity.invariant_dimension",
    "rigidity.svd_s": "rigidity.svd",
    "rigidity.lstsq_s": "rigidity.lstsq",
    "rigidity.obstruction_s": "rigidity.obstruction",
    "rigidity.elliptic_s": "rigidity.elliptic",
    "sampling.gpoints_s": "sampling.gpoints",
    "sphere.s": "sphere",
    "surfaces.s": "surfaces",
}
PER_LAYER_COUNTS = ["pm.tower_builds", "functions.bipoly_mul_calls",
                    "functions.jet_mul_calls", "star.calls", "exact.qc_ops",
                    "sphere.gamma_hat_calls"]


class Tally:
    """Outcome counts of the checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tail_checked = 0
        self.tail_miss = 0
        self.converged_claims = 0
        self.false_converged = 0
        self.known_defects = 0
        self.failures = []

    def add(self, op, out) -> None:
        verdict = op.check(out)
        self.attempted += 1
        self.failed += verdict.failed
        self.tail_checked += verdict.tail_checked
        self.tail_miss += verdict.tail_miss
        self.false_converged += verdict.false_converged
        self.known_defects += verdict.known_defect
        self.converged_claims += bool(getattr(out, "converged", False)) and verdict.tail_checked
        if verdict.failed and len(self.failures) < 20:
            detail = ("".join(traceback.format_exception_only(type(out), out)).strip()
                      if isinstance(out, BaseException) else repr(out)[:300])
            self.failures.append({"op": op.label, "outcome": detail})

    def ratios(self) -> dict:
        return {
            "error_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "tail_miss_ratio": self.tail_miss / self.tail_checked if self.tail_checked else 0.0,
            "false_converged_ratio": (self.false_converged / self.converged_claims
                                      if self.converged_claims else 0.0),
            "verify_defect_ratio": self.known_defects / self.attempted if self.attempted else 0.0,
        }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pin_cpu() -> int:
    """Keep this process and its set-up children on one CPU of those
    allowed, so that the reference and the work it scales run on the same
    CPU; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _setup_child(extra: list) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", SETUP_CHILD], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return wall, float(fields[0]), proc.stderr


def _numpy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the top-level numpy package, from the
    ``-X importtime`` log; 0 when numpy was not imported."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def _scaled_setup_child(extra: list) -> tuple:
    """A set-up child's wall and import time, scaled to reference speed,
    and its raw wall."""
    before = reference_s()
    wall, import_s, log = _setup_child(extra)
    scale = 2 * REFERENCE_S / (before + reference_s())
    return wall * scale, import_s * scale, _numpy_import_s(log) * scale, wall


def measure_setup(layers: bool) -> dict:
    children = [_scaled_setup_child([]) for _ in range(SETUP_REPEATS)]
    out = {"setup_s": statistics.median(c[0] for c in children),
           "setup_walls": [c[0] for c in children],
           "raw_setup_walls": [c[3] for c in children]}
    if layers:
        runs = [_scaled_setup_child(["-X", "importtime"]) for _ in range(SETUP_REPEATS)]
        out["cli.import_s"] = statistics.median(r[1] for r in runs)
        out["cli.import_numpy_s"] = statistics.median(r[2] for r in runs)
    return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


_svd = numpy.linalg.svd    # bound here, so that the span recorder never wraps it
_WALK = None                # a pseudo-random cycle through 4 MB, built on first use
_DOC = json.dumps({f"k{i}": [i, str(i) * 3, {"x": i / 7}] for i in range(60)})
_KEY = re.compile(r'"k(\d+)": \[')
_POLY = {(i, j): complex(i + 1, j - 1) / 7 for i in range(6) for j in range(6)}


def _walk_cycle():
    global _WALK
    if _WALK is None:
        # successor under a full-period LCG mod 2**20 (uint32 arithmetic
        # wraps mod 2**32, which keeps the residue mod 2**20)
        nxt = numpy.arange(1 << 20, dtype=numpy.uint32)
        nxt *= numpy.uint32(1103515245)
        nxt += numpy.uint32(12345)
        nxt &= numpy.uint32((1 << 20) - 1)
        _WALK = memoryview(nxt)
    return _WALK


def reference_s() -> float:
    """Wall time of a fixed computation that never calls wickstar: a
    measure of the host's current speed.  Its parts load the machine as
    the program does in different ways: interpreted complex arithmetic
    with small numpy calls, a walk through memory that misses the caches,
    a mix of library code (fractions, json, re, sort), and products of
    sparse bivariate polynomials kept in dicts, the program's main work."""
    walk = _walk_cycle()
    t0 = time.perf_counter()
    acc, seen = 0j, {}
    for i in range(2000):
        z = complex(i % 97, i % 13) / 50
        acc += z * z.conjugate() / (1 + abs(z))
        seen[i & 255] = (acc, i)
    a, m = numpy.linspace(0.0, 1.0, 32), numpy.eye(6) + 0.01
    for _ in range(40):
        a = numpy.sqrt(a * a + 1e-3)
        a = a / a.sum()
        _svd(m)
    j = 0
    for _ in range(10000):
        j = walk[j]
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    for _ in range(6):
        json.dumps(json.loads(_DOC), sort_keys=True)
        sum(int(hit.group(1)) for hit in _KEY.finditer(_DOC))
    sorted(str(x) for x in range(800))
    for _ in range(9):
        prod = {}
        for (i, j), a in _POLY.items():
            for (i2, j2), b in _POLY.items():
                prod[i + i2, j + j2] = prod.get((i + i2, j + j2), 0) + a * b
    return time.perf_counter() - t0


def run_pass(ops, recorder=None) -> tuple:
    """One pass: the raw and the speed-scaled latency of each operation,
    and the outputs."""
    clock = time.perf_counter
    raw, scaled, outputs = [], [], []
    before, stretch, stretch_s = reference_s(), [], 0.0
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = recorder.run_op(op.run) if recorder is not None else op.run()
        except Exception as exc:  # noqa: BLE001 - an op's failure is a result
            out = exc
        dt = clock() - t0
        outputs.append(out)
        stretch.append(dt)
        stretch_s += dt
        if stretch_s >= SEGMENT_S or i == len(ops) - 1:
            after = reference_s()
            scale = 2 * REFERENCE_S / (before + after)
            raw += stretch
            scaled += [x * scale for x in stretch]
            before, stretch, stretch_s = after, [], 0.0
    return raw, scaled, outputs


def quantile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure(workload, seconds: float, traced: bool) -> dict:
    """Repeat the workload's pass; returns the scaled and raw pass walls,
    the scaled latencies of the untraced passes and the tally (and the
    recorder for a traced run)."""
    from spans import Recorder

    ops = workload.ops
    tally = Tally()
    _, _, outputs = run_pass(ops)            # warm-up, untimed
    for op, out in zip(ops, outputs):
        op.check(out)                        # fixes the byte-identity references
    recorder = Recorder() if traced else None
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    latencies = []                           # of all untraced passes
    start = time.perf_counter()
    k = 0
    while True:
        with_spans = traced and k % 2 == 1
        if with_spans:
            recorder.install()
        try:
            raw, scaled, outputs = run_pass(ops, recorder if with_spans else None)
        finally:
            if with_spans:
                recorder.uninstall()
        walls[with_spans].append(sum(scaled))
        raw_walls[with_spans].append(sum(raw))
        if not with_spans:
            latencies += scaled
        for op, out in zip(ops, outputs):
            tally.add(op, out)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            break
        if elapsed >= seconds and (walls[True] if traced else
                                   len(latencies) >= workload.min_samples):
            break
    return {"walls": walls[False], "traced_walls": walls[True],
            "raw_walls": raw_walls[False], "raw_traced_walls": raw_walls[True],
            "latencies": latencies, "tally": tally, "recorder": recorder}


def end_to_end(workload, m: dict, setup: dict) -> dict:
    wall = statistics.median(m["walls"])
    lat = sorted(m["latencies"])
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(workload.ops) / wall, "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (quantile(lat, workload.tail_q) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(m: dict, setup: dict) -> dict:
    from workloads import SUITE_NAMES

    rec = m["recorder"]
    n = len(m["traced_walls"])
    out = {}
    for metric, span in PER_LAYER_SPANS.items():
        out[metric] = (rec.total.get(span, 0.0) / n, "s")
    out["star.self_s"] = (rec.self_time.get("star", 0.0) / n, "s")
    out["cli.self_s"] = (rec.self_time.get("cli", 0.0) / n, "s")
    for suite in SUITE_NAMES:
        out[f"suites.{suite}_s"] = (rec.total.get(f"suites.{suite}", 0.0) / n, "s")
    for name in PER_LAYER_COUNTS:
        out[name] = (rec.counts.get(name, 0) / n, "count")
    lookups = rec.counts.get("pm.polydisk_lookups", 0)
    builds = rec.counts.get("pm.tower_builds", 0)
    out["pm.polydisk_cache_hit_ratio"] = (1 - builds / lookups if lookups else 0.0, "ratio")
    results = rec.counts.get("star.results", 0)
    out["star.terms_mean"] = (rec.counts.get("star.terms", 0) / results if results else 0.0,
                              "terms")
    out["star.converged_ratio"] = (rec.counts.get("star.converged", 0) / results
                                   if results else 0.0, "ratio")
    out["cli.import_s"] = (setup["cli.import_s"], "s")
    out["cli.import_numpy_s"] = (setup["cli.import_numpy_s"], "s")
    untraced = statistics.median(m["walls"])
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (statistics.median(m["traced_walls"]) - untraced, "s")
    for name, value in m["tally"].ratios().items():
        out[f"check.{name}"] = (value, "ratio")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool, setup: dict,
                 env: dict) -> dict:
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    workload = WORKLOADS[name](seed)
    prepare_s = time.perf_counter() - t0
    m = measure(workload, seconds, traced)
    tally = m["tally"]
    metrics = per_layer(m, setup) if traced else end_to_end(workload, m, setup)

    print(f"# workload {name} seed {seed} trace {int(traced)}: {len(workload.ops)} ops per pass, "
          f"{len(m['walls'])} untraced + {len(m['traced_walls'])} traced passes, "
          f"tail = p{workload.tail_q * 100:g}")
    for metric, (value, unit) in metrics.items():
        print(f"{name:16s} {metric:34s} {value:.6g} {unit}")
    ratios = tally.ratios()
    print(f"{name:16s} {'error_ratio':34s} {ratios['error_ratio']:.6g} ratio "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    print(f"{name:16s} {'tail_miss_ratio':34s} {ratios['tail_miss_ratio']:.6g} ratio "
          f"({tally.tail_miss} misses / {tally.tail_checked} truncated results)")
    for failure in tally.failures:
        print(f"# FAILED {failure['op']}: {failure['outcome']}", file=sys.stderr)

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env, "prepare_s": prepare_s,
        "ops_per_pass": len(workload.ops), "tail_percentile": workload.tail_q * 100,
        "reference_s": REFERENCE_S, "setup_walls": setup["setup_walls"],
        "raw_setup_walls": setup["raw_setup_walls"],
        "pass_walls": m["walls"], "traced_pass_walls": m["traced_walls"],
        "raw_pass_walls": m["raw_walls"], "raw_traced_pass_walls": m["raw_traced_walls"],
        "attempted": tally.attempted, "failed": tally.failed,
        "tail_checked": tally.tail_checked, "tail_miss": tally.tail_miss,
        "ratios": ratios, "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n",
                                                 encoding="utf-8")
    if traced:
        m["recorder"].write_spans(OUT_DIR / f"spans-{stem}.jsonl")
        if m["recorder"].missing:
            print(f"# entry points not found: {', '.join(m['recorder'].missing)}")
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wickstar" / "__init__.py").is_file():
        print(f"error: no wickstar sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import mpmath  # noqa: F401 - the references need it
        import wickstar
        import wickstar.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if Path(wickstar.__file__).resolve().parent != SRC / "wickstar":
        print(f"error: imported wickstar from {wickstar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    env = environment()
    env["pinned_cpu"] = pin_cpu()
    print("# " + json.dumps(env, sort_keys=True))
    setup = measure_setup(layers=bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), setup, env)
    print(json.dumps({"correct": result["failed"] == 0 and result["attempted"] > 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so that peak_rss_mb is its
    own; the result line names each metric ``<workload>.<metric>``."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
