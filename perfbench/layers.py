"""Outside-in layer trace: timing wrappers around the public functions of rtm.

``install`` replaces each traced function with a wrapper in every namespace
the pipeline looks it up from, so the program runs its own code unchanged and
only pays one clock read on entry and one on exit per call.  Counts are
computed by ``layer_metrics`` after the last stage, from references the
wrappers keep, so they add nothing to the timed spans or to the stage times.
"""

from __future__ import annotations

import collections
import functools
import importlib
from time import perf_counter

# (module, attribute, span).  Each attribute is patched in the module that
# looks it up at call time: pipeline imports its callees by name, features,
# learners and stacking call module globals.
SPANS = (
    ("rtm.pipeline", "load_corpus", "corpus.load"),
    ("rtm.pipeline", "select_interpretants", "interpretants.fda"),
    ("rtm.pipeline", "build_ngram_weights", "interpretants.weights"),
    ("rtm.pipeline", "WittenBellLM", "interpretants.lm_build"),
    ("rtm.pipeline", "train_aligner", "features.aligner"),
    ("rtm.pipeline", "build_feature_matrix", "features.matrix"),
    ("rtm.features", "weighted_overlap", "features.overlap"),
    ("rtm.features", "lm_features", "features.lm"),
    ("rtm.features", "alignment_features", "features.align"),
    ("rtm.features", "length_features", "features.length"),
    ("rtm.learners", "cross_validate", "learners.cv"),
    ("rtm.learners", "fit_model", None),  # counted, not timed: it nests in cv
    ("rtm.stacking", "fit_model", None),
    ("rtm.pipeline", "average_top_k", "learners.topk_refit"),
    ("rtm.stacking", "average_top_k", "learners.topk_refit"),
    ("rtm.learners.AveragedModel", "predict", "learners.predict"),
    ("rtm.pipeline", "train_combined_stack_matrices", "stacking.train"),
    ("rtm.pipeline", "train_separate_stack_matrices", "stacking.train"),
    ("rtm.pipeline", "predict_stack_matrices", "stacking.predict"),
    ("rtm.pipeline", "metric_report", "metrics.report"),
    ("rtm.pipeline", "optimize_threshold", "metrics.threshold"),
)

CV_FAMILIES = ("rr", "rr_fs", "rr_pls", "knn", "tree", "ada")


def _cv_family(spec) -> str:
    if spec.kind == "rr" and spec.n_features is not None:
        return "rr_fs"
    if spec.kind == "rr" and spec.n_components is not None:
        return "rr_pls"
    return spec.kind


class Tracer:
    """Inclusive time per span name, plus the time covered by outermost spans."""

    def __init__(self):
        self.seconds = collections.defaultdict(float)
        self.depth = 0
        self.outermost = 0.0  # reset by the driver at each stage boundary
        self.kept = collections.defaultdict(list)  # span -> (args, result)
        self.cv_fits = collections.Counter()  # spec -> fold fits
        self.topk_specs = []
        self.ada_rounds = [0, 0]  # fitted, requested

    def _record(self, span, args, result):
        if span == "learners.cv":
            self.cv_fits[args[0]] += len(result[1])
        elif span == "learners.topk_refit":
            ranked, k = args[0], args[1]
            self.topk_specs.extend(spec for spec, _ in ranked[:k])
        elif span is None and args[0].kind == "ada":
            self.ada_rounds[0] += len(result.inner.stumps)
            self.ada_rounds[1] += args[0].n_estimators
        elif span in ("corpus.load", "interpretants.fda", "interpretants.lm_build",
                      "features.matrix", "stacking.train"):
            self.kept[span].append((args, result))

    def wrap(self, span, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
                self._record(span, args, result)
                return result
            name = span
            if span == "learners.cv":
                name = f"learners.cv_{_cv_family(args[0])}"
            self.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.depth -= 1
                self.seconds[name] += elapsed
                if self.depth == 0:
                    self.outermost += elapsed
            self._record(span, args, result)
            return result

        return traced


def _owner(path: str):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


def install() -> Tracer:
    """Patch every traced function; a missing one raises AttributeError."""
    tracer = Tracer()
    for owner_path, attr, span in SPANS:
        owner = _owner(owner_path)
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr)))
    return tracer


def _ngrams(tokens, max_order):
    return {tuple(tokens[i : i + n]) for n in range(1, max_order + 1)
            for i in range(len(tokens) - n + 1)}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced run (layers that did not run read 0)."""
    s = tracer.seconds
    out = {
        "corpus.load_s": s["corpus.load"],
        "interpretants.fda_s": s["interpretants.fda"],
        "interpretants.weights_s": s["interpretants.weights"],
        "interpretants.lm_build_s": s["interpretants.lm_build"],
        "features.aligner_s": s["features.aligner"],
        "features.overlap_s": s["features.overlap"],
        "features.lm_s": s["features.lm"],
        "features.align_s": s["features.align"],
        "features.length_s": s["features.length"],
        **{f"learners.cv_{fam}_s": s[f"learners.cv_{fam}"] for fam in CV_FAMILIES},
        "learners.topk_refit_s": s["learners.topk_refit"],
        "learners.predict_s": s["learners.predict"],
        "stacking.train_s": s["stacking.train"],
        "stacking.predict_s": s["stacking.predict"],
        "metrics.report_s": s["metrics.report"],
        "metrics.threshold_s": s["metrics.threshold"],
    }

    (_, corpus), = tracer.kept["corpus.load"][:1]
    (fda_args, selection), = tracer.kept["interpretants.fda"]
    _, task_texts, fda_cfg = fda_args
    task_grams = set().union(*(_ngrams(t.tokens, fda_cfg.max_order) for t in task_texts))
    covered = set().union(*(_ngrams(corpus.sentences[i].tokens, fda_cfg.max_order)
                            for i in selection.selected_indices))
    (_, lm), = tracer.kept["interpretants.lm_build"]
    task_tokens = [tok for t in task_texts for tok in t.tokens]
    out["corpus.sentences"] = len(corpus.sentences)
    out["corpus.task_tokens"] = len(task_tokens)
    out["interpretants.task_ngrams"] = len(task_grams)
    # base: distinct task n-grams of orders 1..fda_max_order
    out["interpretants.coverage"] = len(task_grams & covered) / len(task_grams)
    # base: task tokens (train and test texts plus targets)
    out["interpretants.lm_oov_rate"] = sum(
        not lm.in_vocab(tok) for tok in task_tokens) / len(task_tokens)

    matrices = tracer.kept["features.matrix"]
    rows = [row for (row_list, _), _ in matrices for row in row_list]
    train_matrix = matrices[0][1]
    out["features.rows"] = len(rows)
    out["features.target_tokens_mean"] = sum(len(tgt) for _, tgt in rows) / len(rows)
    out["features.ms_per_row"] = 1000.0 * s["features.matrix"] / len(rows)
    out["features.constant_columns"] = int(
        (train_matrix.max(axis=0) == train_matrix.min(axis=0)).sum())

    fits = sum(tracer.cv_fits.values())
    topk = set(tracer.topk_specs)
    out["learners.cv_fits"] = fits
    # base: all CV fold fits; useful = fits of specs that made the top k
    out["learners.topk_fit_share"] = sum(
        n for spec, n in tracer.cv_fits.items() if spec in topk) / fits
    out["learners.ada_rounds_fitted"] = tracer.ada_rounds[0]
    out["learners.ada_rounds_requested"] = tracer.ada_rounds[1]
    out["stacking.oof_fits"] = sum(len(model.oof_audit)
                                   for _, model in tracer.kept["stacking.train"])
    return out
