"""Span recorder for the traced benchmark run.

The recorder wraps wickstar's entry points from outside -- module
functions in every wickstar namespace that imported them, methods on
their classes, and numpy's SVD and least-squares calls -- and restores
the originals on ``uninstall``.  Nothing in the program changes.

Per layer it keeps, in memory:

* inclusive seconds and self seconds (span minus the time its child
  spans cover);
* counters of calls that are too hot for a span (QC arithmetic) or that
  count work (polynomial multiplications, tower builds);
* the spans themselves, with their parent span and the operation they
  belong to, for the coarse layers.  Hot layers (``functions.*``,
  ``star.cn``, ``sphere``, ``surfaces``, ``sampling.other``) are only
  aggregated, so a traced run stays small in memory.

A call into a layer from inside the same layer (``BiPoly.pow`` calling
``BiPoly.__mul__``, a tower method calling another) adds to the
counters but opens no second span, so inclusive times never double.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy

# (module, class, methods, span, counter); counter may be None
METHODS = [
    ("functions", "BiPoly", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                             "pow", "wirtinger", "eval", "eval_diag", "eval_jet",
                             "swap_conj"), "functions.bipoly", None),
    ("functions", "BiPoly", ("__mul__", "__rmul__"), "functions.bipoly",
     "functions.bipoly_mul_calls"),
    ("functions", "Jet", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                          "reciprocal", "__truediv__", "__rtruediv__", "exp"),
     "functions.jet", None),
    ("functions", "Jet", ("__mul__", "__rmul__"), "functions.jet", "functions.jet_mul_calls"),
    ("functions", "PolyFn", ("derivative", "eval", "eval_jet"), "functions.entire", None),
    ("functions", "ExpFn", ("derivative", "eval"), "functions.entire", None),
    ("functions", "SeriesFn", ("derivative", "eval"), "functions.entire", None),
    ("peschl_minda", "PolyDisk", ("pm_with_bound", "pm_bar_with_bound", "pm_sequence",
                                  "pm_bar_sequence"), "pm.polydisk", None),
    ("peschl_minda", "PolyDisk", ("pm_poly", "pm_bar_poly"), "pm.polydisk",
     "pm.polydisk_lookups"),
    ("peschl_minda", "MoebiusPullback", ("pm_with_bound", "pm_bar_with_bound",
                                         "pm_sequence", "pm_bar_sequence"), "pm.pullback", None),
    ("peschl_minda", "ComposedP", ("pm_with_bound", "pm_bar_with_bound", "pm_sequence",
                                   "pm_bar_sequence"), "pm.composed", None),
    ("peschl_minda", "ComposedQ", ("pm_with_bound", "pm_bar_with_bound", "pm_sequence",
                                   "pm_bar_sequence"), "pm.composed", None),
    ("sphere", "MoebiusMap", ("apply", "apply_point", "compose", "inverse"), "sphere", None),
    ("surfaces", "AnnulusElement", ("value",), "surfaces", None),
    ("surfaces", "PuncturedElement", ("value",), "surfaces", None),
]

# (module, functions, span, counter)
FUNCTIONS = [
    ("functions", ("moebius_jet",), "functions.jet", None),
    ("peschl_minda", ("pm_bipoly", "pm_bar_bipoly"), "pm.polydisk", "pm.tower_builds"),
    ("star", ("star_disk", "star_annulus", "star_punctured", "star_disk_poly_exact",
              "star_disk_poly_truncated", "star_annulus_poly", "star_punctured_poly",
              "star_hbar_profile"), "star", "star.calls"),
    ("star", ("c_sequence", "c_n", "c_n_direct", "_c_stream", "_c_divisor"), "star.cn", None),
    ("rigidity", ("invariant_dimension",), "rigidity.invariant_dimension", None),
    ("rigidity", ("elliptic_invariant_indices",), "rigidity.elliptic", None),
    ("rigidity", ("obstruction_check",), "rigidity.obstruction", None),
    ("sampling", ("sample_gpoints",), "sampling.gpoints", None),
    ("sampling", ("rng_for", "sample_disk", "sample_annulus", "sample_punctured",
                  "sample_half_plane", "sample_omega_points"), "sampling.other", None),
    ("sphere", ("gamma_hat",), "sphere", "sphere.gamma_hat_calls"),
    ("sphere", ("moebius_apply", "t_gamma_omega", "psi_omega_to_g", "psi_g_to_omega",
                "danielewski_chart", "covering_disk_to_annulus", "covering_disk_to_punctured",
                "covering_half_to_annulus", "moebius_fixed_points", "moebius_multiplier_at",
                "annulus_deck_multiplier"), "sphere", None),
    ("surfaces", ("chart_f_R", "chart_f_0", "transport_T", "iso_psi", "lift_to_disk",
                  "z2_involution", "gamma_hat_invariant", "scaling_kernel",
                  "translation_kernel"), "surfaces", None),
    ("suites", ("run_suites",), "suites.run", None),
    ("cli", ("cmd_star_eval", "cmd_verify", "cmd_rigidity"), "cli", None),
]

QC_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__")

NUMPY = [("svd", "rigidity.svd"), ("lstsq", "rigidity.lstsq")]

# layers recorded as aggregates only
AGGREGATE_ONLY = ("functions.", "star.cn", "sphere", "surfaces", "sampling.other")


def _star_result(rec: "Recorder", out) -> None:
    if hasattr(out, "terms_used") and hasattr(out, "converged"):
        rec.counts["star.results"] += 1
        rec.counts["star.terms"] += out.terms_used
        rec.counts["star.converged"] += bool(out.converged)


class Recorder:
    """Install after importing wickstar and wickstar.cli: only loaded
    modules are patched."""

    def __init__(self):
        self.total = defaultdict(float)   # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []                   # (id, parent, op, name, start, end)
        self.missing = []                 # entry points this version lacks
        self.op = 0
        self._stack = []                  # [name, start, child seconds, id]
        self._next_id = 1
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, name: str, counter: str | None = None, inspect=None):
        rec, stack, clock = self, self._stack, time.perf_counter
        keep = not name.startswith(AGGREGATE_ONLY)

        def traced(*args, **kwargs):
            if counter is not None:
                rec.counts[counter] += 1
            if stack and stack[-1][0] == name:
                out = fn(*args, **kwargs)
            else:
                span_id = rec._next_id
                rec._next_id += 1
                frame = [name, clock(), 0.0, span_id]
                stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - frame[1]
                    rec.total[name] += dur
                    rec.self_time[name] += dur - frame[2]
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[2] += dur
                    if keep:
                        rec.spans.append((span_id, parent[3] if parent else 0, rec.op,
                                          name, frame[1], end))
            if inspect is not None:
                inspect(rec, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count_only(self, fn, counter: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_op(self, call):
        """Run one benchmark operation as the root span of its own id."""
        self.op += 1
        return self.wrap(call, "op")()

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def _patch_method(self, cls, attr, make):
        fn = getattr(cls, attr, None)
        if fn is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._set(cls, attr, make(fn))

    def _patch_function(self, module, attr, make):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = make(fn)
        # rebind every wickstar namespace that imported the same object
        for mod in _wickstar_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapped)

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, True, mapping[key]))
        mapping[key] = value

    def install(self) -> None:
        self.missing = []
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _wickstar_modules()}
        for modname, clsname, attrs, name, counter in METHODS:
            cls = getattr(mods.get(modname), clsname, None)
            if cls is None:
                self.missing.append(f"{modname}.{clsname}")
                continue
            for attr in attrs:
                self._patch_method(cls, attr,
                                   lambda fn, name=name, c=counter: self.wrap(fn, name, c))
        for modname, attrs, name, counter in FUNCTIONS:
            mod = mods.get(modname)
            if mod is None:
                self.missing.append(modname)
                continue
            inspect = _star_result if name == "star" else None
            for attr in attrs:
                self._patch_function(mod, attr,
                                     lambda fn, name=name, c=counter, i=inspect:
                                     self.wrap(fn, name, c, i))
        suites = mods.get("suites")
        for key, fn in list(getattr(suites, "SUITES", {}).items()):
            wrapped = self.wrap(fn, f"suites.{key}")
            self._set_item(suites.SUITES, key, wrapped)
            for attr, value in list(vars(suites).items()):
                if value is fn:
                    self._set(suites, attr, wrapped)
        qc = getattr(mods.get("exact"), "QC", None)
        for attr in QC_METHODS if qc is not None else ():
            self._patch_method(qc, attr, lambda fn: self.count_only(fn, "exact.qc_ops"))
        for attr, name in NUMPY:
            self._set(numpy.linalg, attr, self.wrap(getattr(numpy.linalg, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            elif had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


def _wickstar_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "wickstar" or key.startswith("wickstar."))
            and key != "wickstar.__main__"]

