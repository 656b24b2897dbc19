"""Command-line front end.

Subcommands:

* ``star eval``  -- evaluate one of the three star products at points.
* ``verify``     -- run the registered verification suites and emit a
  JSON report (byte-identical for a fixed seed unless --timing is on).
* ``rigidity``   -- run an invariance / obstruction experiment from a
  JSON spec file (or one of the bundled named specs).

Exit codes: 0 success / all checks pass, 1 check failures, 2 input or
domain errors, 3 non-convergence, 4 internal errors.  All inputs and
outputs are UTF-8 JSON; complex numbers serialize as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from importlib import resources

from .errors import DomainError, WickstarError
from .functions import BiPoly, entire_from_json, json_complex, json_field
from .peschl_minda import ComposedP, ComposedQ, PolyDisk
from .rigidity import (elliptic_invariant_indices, invariant_dimension,
                       obstruction_check)
from .sphere import MoebiusMap
from .star import StarConfig, star_annulus, star_disk, star_punctured
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGED = 3
EXIT_INTERNAL = 4


def _cpair(x) -> list:
    x = complex(x)
    return [x.real, x.imag]


def _parse_complex(text: str) -> complex:
    """A finite number or [re, im], read as :func:`json_complex` reads the
    operands."""
    v = json.loads(text)
    return json_complex([v, 0] if type(v) in (int, float) else v)


def disk_function_from_json(obj: dict):
    """{"type":"bipoly","coeffs":[[i,j,[re,im]],...]} or a composed form
    {"type":"composed-p"|"composed-q","g":{entire-function}}."""
    if not isinstance(obj, dict):
        raise DomainError(f"a disk function is a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "bipoly":
        d = {}
        for term in json_field(obj, "coeffs", list):
            if not (isinstance(term, list) and len(term) == 3
                    and all(type(k) is int and k >= 0 for k in term[:2])):
                raise DomainError("a bipoly term is [i, j, [re, im]] with integers "
                                  f"i, j >= 0, got {term!r}")
            i, j, pair = term
            d[(i, j)] = json_complex(pair)
        return PolyDisk(BiPoly(d))
    if kind == "composed-p":
        return ComposedP(entire_from_json(json_field(obj, "g", dict)))
    if kind == "composed-q":
        return ComposedQ(entire_from_json(json_field(obj, "g", dict)))
    raise DomainError(f"unknown disk function type {kind!r}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_star_eval(args) -> int:
    cfg = StarConfig(max_terms=args.max_terms, tol=args.tol, mode=args.mode)
    h = _parse_complex(args.hbar)
    points = [_parse_complex(p) for p in args.point]
    if args.surface == "disk":
        f = disk_function_from_json(json.loads(args.f))
        g = disk_function_from_json(json.loads(args.g))
        out = star_disk(f, g, h, points, cfg)
    else:
        f = entire_from_json(json.loads(args.f))
        g = entire_from_json(json.loads(args.g))
        if args.surface == "annulus":
            out = star_annulus(f, g, h, points, cfg)
        else:
            out = star_punctured(f, g, h, points, cfg)
    results = list(zip(points, out))
    body = {"surface": args.surface, "results": [
        {"point": _cpair(p), "value": _cpair(r.value),
         "terms_used": r.terms_used, "tail_estimate": float(r.tail_estimate),
         "converged": bool(r.converged), "stop_reason": r.stop_reason}
        for p, r in results]}
    print(json.dumps(body, indent=2))
    if any(not r.converged for _, r in results):
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    report = run_suites(names=names, seed=args.seed, timing=args.timing)
    print(json.dumps(report, indent=2))
    if all(c["status"] == "pass" for c in report["checks"]):
        return EXIT_OK
    return EXIT_CHECK_FAILED


def _load_experiment_spec(name_or_path: str) -> dict:
    """The spec at a path, else the bundled spec of that name; one that
    cannot be found or read (a directory, say) is an input error."""
    try:
        if os.path.exists(name_or_path):
            with open(name_or_path, encoding="utf-8") as fh:
                return json.load(fh)
        ref = resources.files("wickstar").joinpath("specs", f"{name_or_path}.json")
        return json.loads(ref.read_text(encoding="utf-8"))
    except (FileNotFoundError, ModuleNotFoundError):
        raise DomainError(f"experiment spec {name_or_path!r} is neither a "
                          "file nor a bundled spec name")
    except OSError as exc:
        raise DomainError(f"cannot read experiment spec {name_or_path!r}: "
                          f"{exc.strerror or exc}")


def _two_hyperbolic_generators():
    """z -> 2z and its conjugate by z -> z + 1, z -> 2z - 1, on H."""
    return [MoebiusMap(2, 0, 0, 1, domain="H"), MoebiusMap(2, -1, 0, 1, domain="H")]


# the keys each experiment kind reads, besides "experiment"
_SPEC_KEYS = {
    "invariant-dimension": ("degree",),
    "elliptic-indices": ("n_fold", "degree"),
    "obstruction": ("degree",),
}


def cmd_rigidity(args) -> int:
    spec = _load_experiment_spec(args.spec)
    if not isinstance(spec, dict):
        raise DomainError("an experiment spec is a JSON object")
    kind = spec.get("experiment")
    if kind not in _SPEC_KEYS:
        raise DomainError(f"unknown experiment kind {kind!r}")
    unknown = sorted(set(spec) - {"experiment", *_SPEC_KEYS[kind]})
    if unknown:
        raise DomainError(f"unknown spec key(s) {', '.join(map(repr, unknown))} for "
                          f"experiment {kind!r}, which reads "
                          f"{', '.join(_SPEC_KEYS[kind])}")
    if kind == "invariant-dimension":
        degree = json_field(spec, "degree", int, 3)
        cert = invariant_dimension(_two_hyperbolic_generators(), degree)
        body = {"experiment": kind, "dimension": cert.dimension,
                "dimension_bounds": list(cert.bounds), "rank": cert.rank,
                "prime": cert.prime, "basis_size": cert.basis_size}
    elif kind == "elliptic-indices":
        n_fold = json_field(spec, "n_fold", int)
        degree = json_field(spec, "degree", int, 2)
        kept = elliptic_invariant_indices(n_fold, degree)
        body = {"experiment": kind, "n_fold": n_fold,
                "invariant_indices": [list(k) for k in kept]}
    else:
        rep = obstruction_check(json_field(spec, "degree", int))
        body = {"experiment": kind, "residuals": rep.residuals,
                "verdict": rep.verdict}
    print(json.dumps(body, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so :func:`main` can be called repeatedly in-process."""
    parser = argparse.ArgumentParser(
        prog="wickstar",
        description="Star products on the disk, annuli and the punctured "
                    "disk: evaluation, verification and rigidity experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_star = sub.add_parser("star", help="star-product operations")
    star_sub = p_star.add_subparsers(dest="star_command", required=True)
    p_eval = star_sub.add_parser("eval", help="evaluate a product at points")
    p_eval.add_argument("--surface", required=True,
                        choices=["disk", "annulus", "punctured"])
    p_eval.add_argument("--f", required=True, help="first operand, JSON")
    p_eval.add_argument("--g", required=True, help="second operand, JSON")
    p_eval.add_argument("--hbar", required=True,
                        help="deformation parameter, number or [re, im]")
    p_eval.add_argument("--point", required=True, action="append",
                        help="evaluation point (repeatable), number or [re, im]")
    p_eval.add_argument("--max-terms", type=int, default=StarConfig.max_terms)
    p_eval.add_argument("--tol", type=float, default=StarConfig.tol)
    p_eval.add_argument("--mode", default=StarConfig.mode,
                        choices=["exact-finite", "truncated"])
    # a value, not an option: every number _parse_complex reads, -1e-3 too
    p_eval._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", action="append",
                          help=f"suite name (repeatable); available: "
                               f"{', '.join(sorted(SUITES))}")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--timing", action="store_true",
                          help="record wall-clock times (breaks byte-identical "
                               "reports on purpose)")

    p_rig = sub.add_parser("rigidity", help="run a rigidity experiment")
    p_rig.add_argument("--spec", required=True,
                       help="experiment spec file, or a bundled name: "
                            "two-hyperbolic-d3 (invariant dimension, certified "
                            "by the rank of the difference system mod a prime), "
                            "elliptic-N2-d2, annulus-punctured-obstruction")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handlers are read when main runs, not when the parser was built,
    # so a handler replaced since (a tracer's wrapper) is the one that runs
    handlers = {"star": cmd_star_eval, "verify": cmd_verify, "rigidity": cmd_rigidity}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "kind": "domain"}))
        return EXIT_DOMAIN
    except WickstarError as exc:
        print(json.dumps({"error": str(exc), "kind": "internal"}))
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}",
                          "kind": "internal"}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
