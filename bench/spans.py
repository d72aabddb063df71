"""Per-layer spans for the benchmark's traced runs.

Run as a script, this is a traced stand-in for the ``difflie`` console
script::

    python3 bench/spans.py SPANS_OUT <difflie arguments...>

It imports the package, wraps the public functions of each module listed in
TARGETS (rebinding every name that refers to them, so ``from .x import f``
copies are wrapped too), runs ``difflie.cli.main`` and writes the recorded
spans to SPANS_OUT as JSON when the call ends.  A span is
``[id, parent, layer, start_ns, end_ns, extra]``; spans of one job share the
file.  ``summarize`` turns the span files of one pass into the per-layer
metrics.
"""

import importlib
import json
import os
import sys
import time
from math import comb

# (module, attribute, layer, kind): kind "span" records a timed span,
# "count" only counts calls (hot leaves, where a span would cost more than
# the work it measures).
TARGETS = [
    ("cohomology", "ce_differential", "cohomology.build", "span"),
    ("cohomology", "do_differential", "cohomology.build", "span"),
    ("cohomology", "delta_matrix", "cohomology.build", "span"),
    ("cohomology", "difflie_differential", "cohomology.build", "span"),
    ("cohomology", "CochainComplexSpec.__init__", "cohomology.spec", "span"),
    ("cohomology", "ce_apply", "cohomology.apply", "span"),
    ("cohomology", "delta_apply", "cohomology.apply", "span"),
    ("cohomology", "twist_bridge_residual", "cohomology.twist_bridge",
     "span"),
    ("linalg", "Matrix.rref", "linalg.elim", "span"),
    ("linalg", "Matrix.solve", "linalg.solve", "count"),
    ("linalg", "Matrix.__mul__", "linalg.matmul", "span"),
    ("linalg", "Matrix.matvec", "linalg.matvec", "count"),
    ("linalg", "homology_dim", "linalg.homology", "span"),
    ("multilinear", "AltMap.evaluate", "multilinear.evaluate", "count"),
    ("multilinear", "GradedSymMap.evaluate", "multilinear.evaluate",
     "count"),
    ("nr", "circ_bar", "nr.circ_bar", "span"),
    ("nr", "graded_circ_bar", "nr.circ_bar", "span"),
    ("permutations", "shuffles", "permutations.shuffles", "span"),
    ("linfty", "key_formula_check", "linfty.key_formula", "span"),
    ("linfty", "AbsoluteStructure.bracket", "linfty.bracket", "span"),
    ("linfty", "DerivedBrackets.bracket", "linfty.bracket", "span"),
    ("linfty", "mc_check_absolute", "linfty.mc", "span"),
    ("linfty", "mc_residual_formal", "linfty.mc", "span"),
    ("linfty", "twist_l1_formal", "linfty.twist_l1", "span"),
    ("linfty", "morphism_residual", "linfty.morphism", "span"),
    ("homotopy", "residual_tables", "homotopy.tables", "span"),
    ("homotopy", "linfty_residual", "homotopy.linfty_residual", "span"),
    ("homotopy", "homotopy_diff_residual", "homotopy.diff_residual", "span"),
    ("deformations", "deformation_residuals", "deformations.residuals",
     "span"),
    ("deformations", "apply_formal_iso", "deformations.iso", "span"),
    ("deformations", "rigidify_step", "deformations.rigidify", "span"),
    ("extensions", "build_extension", "extensions.build", "span"),
    ("extensions", "AbelianExtension.__init__", "extensions.validate",
     "span"),
    ("extensions", "extract_cocycle", "extensions.extract", "span"),
    ("extensions", "classify", "extensions.classify", "span"),
    ("liealg", "jacobi_residual", "liealg.axioms", "span"),
    ("liealg", "weighted_derivation_residual", "liealg.axioms", "span"),
    ("liealg", "rep_residuals", "liealg.axioms", "span"),
    ("liealg", "difflie_from_json", "liealg.json", "span"),
    ("liealg", "difflie_to_json", "liealg.json", "span"),
    ("liealg", "rep_from_json", "liealg.json", "span"),
    ("liealg", "rep_to_json", "liealg.json", "span"),
    ("liealg", "altmap_from_json", "liealg.json", "span"),
    ("liealg", "altmap_to_json", "liealg.json", "span"),
    ("cli", "main", "cli.main", "span"),
]

BUILD = "cohomology.build"


class Recorder:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.build_depth = 0
        self.shuffle_blocks = set()

    def wrap(self, fn, layer, kind):
        if kind == "count":
            counts = self.counts
            counts.setdefault(layer, 0)

            def counted(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)
            return counted

        rec = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            if layer == "cohomology.apply" and rec.build_depth:
                # column-by-column calls inside a build belong to the build
                return fn(*args, **kwargs)
            if layer == "linalg.matmul" and not hasattr(args[1], "cols"):
                return fn(*args, **kwargs)  # Matrix * scalar is a scale
            if layer == BUILD:
                rec.build_depth += 1
            sid = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            span = [sid, parent, layer, clock(), 0, None]
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if layer == BUILD:
                    rec.build_depth -= 1
            span[5] = rec.extra(layer, args, out)
            return out
        return spanned

    def extra(self, layer, args, out):
        """Counts computed from shapes and results, outside the timed
        interval."""
        if layer == BUILD and not self.build_depth:
            nnz = sum(1 for row in out.data for x in row if x != 0)
            return {"outer": 1, "cells": out.rows * out.cols, "nnz": nnz}
        if layer == "linalg.elim":
            return {"cells": args[0].rows * args[0].cols}
        if layer == "linalg.matmul":
            a, b = args[0], args[1]
            return {"madds": a.rows * a.cols * b.cols}
        if layer == "nr.circ_bar":
            f = args[0]
            if hasattr(out, "space"):
                keys = comb(out.space.dim + out.arity - 1, out.arity)
            elif f.arity == 0 or out.arity > f.src_dim:
                keys = 0
            else:
                keys = comb(f.src_dim, out.arity)
            return {"keys": keys, "nonzero": len(out.coeffs)}
        if layer == "permutations.shuffles":
            self.shuffle_blocks.add(tuple(args[0]))
        return None

    def dump(self, path):
        """Write the spans to path; the file appears only once complete."""
        with open(path + ".part", "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "distinct_shuffle_blocks": len(self.shuffle_blocks)},
                      fh, separators=(",", ":"))
        os.replace(path + ".part", path)


def install(rec):
    """Wrap every target and rebind each name that refers to it in every
    loaded module of the package."""
    mods = {name: importlib.import_module("difflie." + name)
            for name in {t[0] for t in TARGETS}}
    for mod_name, attr, layer, kind in TARGETS:
        owner = mods[mod_name]
        parts = attr.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        orig = getattr(owner, parts[-1])
        wrapped = rec.wrap(orig, layer, kind)
        setattr(owner, parts[-1], wrapped)
        if len(parts) == 1:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("difflie"):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from the span files of one pass

TIMES = {
    "cohomology.build_s": "cohomology.build",
    "cohomology.d2_check_s": "cohomology.spec",
    "cohomology.apply_s": "cohomology.apply",
    "cohomology.twist_bridge_s": "cohomology.twist_bridge",
    "linalg.elim_s": "linalg.elim",
    "linalg.matmul_s": "linalg.matmul",
    "linalg.homology_s": "linalg.homology",
    "nr.circ_bar_s": "nr.circ_bar",
    "permutations.shuffles_s": "permutations.shuffles",
    "linfty.key_formula_s": "linfty.key_formula",
    "linfty.bracket_s": "linfty.bracket",
    "linfty.mc_s": "linfty.mc",
    "linfty.twist_l1_s": "linfty.twist_l1",
    "linfty.morphism_s": "linfty.morphism",
    "homotopy.tables_s": "homotopy.tables",
    "homotopy.linfty_residual_s": "homotopy.linfty_residual",
    "homotopy.diff_residual_s": "homotopy.diff_residual",
    "deformations.residuals_s": "deformations.residuals",
    "deformations.iso_s": "deformations.iso",
    "deformations.rigidify_s": "deformations.rigidify",
    "extensions.build_s": "extensions.build",
    "extensions.validate_s": "extensions.validate",
    "extensions.extract_s": "extensions.extract",
    "extensions.classify_s": "extensions.classify",
    "liealg.axioms_s": "liealg.axioms",
    "liealg.json_s": "liealg.json",
    "cli.self_s": "cli.main",
}

SPAN_COUNTS = {
    "cohomology.spec_builds": "cohomology.spec",
    "cohomology.apply_calls": "cohomology.apply",
    "linalg.elim_calls": "linalg.elim",
    "linalg.matmul_calls": "linalg.matmul",
    "nr.circ_bar_calls": "nr.circ_bar",
    "permutations.shuffles_calls": "permutations.shuffles",
    "linfty.bracket_calls": "linfty.bracket",
    "homotopy.tuples": "homotopy.linfty_residual",
    "deformations.residuals_calls": "deformations.residuals",
    "deformations.rigidify_steps": "deformations.rigidify",
    "liealg.axioms_calls": "liealg.axioms",
}

CALL_COUNTS = {
    "linalg.solve_calls": "linalg.solve",
    "linalg.matvec_calls": "linalg.matvec",
    "multilinear.evaluate_calls": "multilinear.evaluate",
}

UNITS = {name: "s" for name in TIMES}
UNITS.update({name: "count" for name in SPAN_COUNTS})
UNITS.update({name: "count" for name in CALL_COUNTS})
UNITS.update({
    "cohomology.build_calls": "count",
    "cohomology.build_cells": "count",
    "cohomology.build_nnz_ratio": "ratio",
    "linalg.elim_cells": "count",
    "linalg.matmul_madds": "count",
    "nr.circ_bar_keys": "count",
    "nr.circ_bar_nonzero_ratio": "ratio",
    "permutations.shuffles_repeat_ratio": "ratio",
})


def summarize(paths):
    """Per-layer metrics summed over the span files of one pass.  A layer's
    time is its self time: span durations minus the part covered by child
    spans."""
    self_ns = {}
    n_spans = {}
    sums = {}
    calls = {}
    shuffles_distinct = 0
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        spans = data["spans"]
        layer_of = [s[2] for s in spans]
        for sid, parent, layer, start, end, extra in spans:
            dur = end - start
            self_ns[layer] = self_ns.get(layer, 0) + dur
            if parent >= 0:
                pl = layer_of[parent]
                self_ns[pl] = self_ns.get(pl, 0) - dur
            n_spans[layer] = n_spans.get(layer, 0) + 1
            for key, val in (extra or {}).items():
                k = layer + "." + key
                sums[k] = sums.get(k, 0) + val
        for layer, n in data["counts"].items():
            calls[layer] = calls.get(layer, 0) + n
        shuffles_distinct += data["distinct_shuffle_blocks"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: self_ns.get(layer, 0) / 1e9 for name, layer in TIMES.items()}
    out.update({name: n_spans.get(layer, 0)
                for name, layer in SPAN_COUNTS.items()})
    out.update({name: calls.get(layer, 0)
                for name, layer in CALL_COUNTS.items()})
    cells = sums.get(BUILD + ".cells", 0)
    out["cohomology.build_calls"] = sums.get(BUILD + ".outer", 0)
    out["cohomology.build_cells"] = cells
    out["cohomology.build_nnz_ratio"] = ratio(sums.get(BUILD + ".nnz", 0),
                                              cells)
    out["linalg.elim_cells"] = sums.get("linalg.elim.cells", 0)
    out["linalg.matmul_madds"] = sums.get("linalg.matmul.madds", 0)
    keys = sums.get("nr.circ_bar.keys", 0)
    out["nr.circ_bar_keys"] = keys
    out["nr.circ_bar_nonzero_ratio"] = ratio(
        sums.get("nr.circ_bar.nonzero", 0), keys)
    n_shuffles = n_spans.get("permutations.shuffles", 0)
    out["permutations.shuffles_repeat_ratio"] = \
        1 - ratio(shuffles_distinct, n_shuffles) if n_shuffles else 0.0
    return out


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    rec = Recorder()
    install(rec)
    from difflie import cli
    try:
        code = cli.main(cli_args)
    finally:
        rec.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
