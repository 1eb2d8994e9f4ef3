"""Stacked two-row architectures and linear prediction combiners.

Instances here come as row pairs: for discriminative attributes the rows are
w1->attribute and w2->attribute; for paired intensity runs they are the tweet
against two different word sets.  A base model predicts the instance gold per
row, then a final model learns on concat(features_a, features_b) plus five
combination features of the two base predictions.

Base predictions for the training instances are produced out-of-fold (7-fold
by default, folds assigned at instance level so both rows of an instance sit
in the same fold) to keep the stack features free of leakage, through the
fold shares and held-out loop of cross-validation (``learners.held_out``); the
audit trail of which model scored which rows is kept on the returned model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import N_FEATURES
from .learners import (
    AveragedModel,
    ModelSpec,
    TrainedModel,
    _Share,
    average_top_k,
    fit_model,
    fold_indices,
    grid_search,
    held_out,
)

N_COMBO = 5
N_STACK_FEATURES = 2 * N_FEATURES + N_COMBO


@dataclass(frozen=True)
class StackConfig:
    base_spec: ModelSpec = ModelSpec("rr", alpha=1.0)
    final_specs: tuple[ModelSpec, ...] = (ModelSpec("rr", alpha=1.0),)
    top_k: int = 1
    folds: int = 7
    seed: int = 0


@dataclass
class OofAuditRecord:
    """The int32 indices of the rows one fold's base model trained on and scored."""

    side: str
    fold: int
    train_rows: np.ndarray
    scored_rows: np.ndarray


@dataclass
class StackModel:
    mode: str  # "combined" | "separate"
    bases: dict[str, TrainedModel]
    final: AveragedModel
    cv_table: list[tuple[ModelSpec, float]]
    oof_audit: list[OofAuditRecord] = field(default_factory=list)


def combo_features(y1, y2) -> np.ndarray:
    """The five combination features of two predictions.

    (y1, y2, |y1 - y2|, (y1 + y2) / 2, sqrt(y1 * y2)); negative inputs are
    clamped to 0 inside the square root only.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    gm = np.sqrt(np.maximum(y1, 0.0) * np.maximum(y2, 0.0))
    return np.stack([y1, y2, np.abs(y1 - y2), (y1 + y2) / 2.0, gm], axis=-1)


def _row_groups(mode: str, feats_a, feats_b) -> list[tuple[str, tuple, int]]:
    """(base model key, side matrices, audit row offset) per base model.

    ``combined`` is one group holding both sides; ``separate`` is one group per
    side.  Audit rows number side a's rows 0..n-1 and side b's rows n..2n-1.
    """
    if mode == "combined":
        return [("combined", (feats_a, feats_b), 0)]
    return [("a", (feats_a,), 0), ("b", (feats_b,), len(feats_a))]


def _oof_group(key, sides, offset, gold, folds, cfg: StackConfig, audit):
    """Out-of-fold predictions per side and the refit base model of one row
    group.  Folds are drawn over instances, so every row of an instance sits in
    the same fold; a fold is a share of row indices into the group's matrix."""
    n, m = len(gold), len(sides)
    # row s*n + i is side s of instance i
    rows = np.asarray(sides[0] if m == 1 else np.vstack(sides), dtype=float)
    row_gold = np.tile(gold, m)
    shares = (_Share([cfg.base_spec], rows, row_gold,
                     np.concatenate([np.setdiff1d(np.arange(n), test) + s * n for s in range(m)]),
                     np.concatenate([test + s * n for s in range(m)]))
              for test in folds)  # built as held_out asks: one share alive at a time
    oof = np.empty(len(rows))
    for f, (share, predictions) in enumerate(held_out(cfg.base_spec, shares)):
        oof[share.test] = predictions
        audit.append(OofAuditRecord(key, f, (share.train + offset).astype(np.int32),
                                    (share.test + offset).astype(np.int32)))
    return fit_model(cfg.base_spec, rows, row_gold), np.split(oof, m)


def _train_stack(mode: str, feats_a, feats_b, gold, cfg: StackConfig) -> StackModel:
    """Each row group's out-of-fold predictions and base model, then the final
    model on both sides' features and the combination features."""
    gold = np.asarray(gold, dtype=float)
    if len(gold) < 2 or len(feats_a) != len(gold) or len(feats_b) != len(gold):
        raise ValueError("need >= 2 instances with matching row matrices")
    folds = fold_indices(len(gold), cfg.folds, cfg.seed)
    bases, yhat, audit = {}, [], []
    for key, sides, offset in _row_groups(mode, feats_a, feats_b):
        bases[key], side_yhat = _oof_group(key, sides, offset, gold, folds, cfg, audit)
        yhat.extend(side_yhat)
    final_X = np.hstack([feats_a, feats_b, combo_features(*yhat)])
    assert final_X.shape[1] == N_STACK_FEATURES
    ranked = grid_search(list(cfg.final_specs), final_X, gold, cfg.folds, cfg.seed)
    final = average_top_k(ranked, min(cfg.top_k, len(ranked)), final_X, gold)
    return StackModel(mode, bases, final, ranked, audit)


def train_combined_stack_matrices(feats_a, feats_b, gold, cfg: StackConfig) -> StackModel:
    """One shared base model over all 2n rows, then the final model."""
    return _train_stack("combined", feats_a, feats_b, gold, cfg)


def train_separate_stack_matrices(feats_a, feats_b, gold, cfg: StackConfig) -> StackModel:
    """Two per-side base models of ``cfg.base_spec``, each trained only on its
    own row population."""
    return _train_stack("separate", feats_a, feats_b, gold, cfg)


def predict_stack_matrices(model: StackModel, feats_a, feats_b) -> np.ndarray:
    """Apply base model(s), combination features and the final model."""
    yhat = [
        model.bases[key].predict(side)
        for key, sides, _ in _row_groups(model.mode, feats_a, feats_b)
        for side in sides
    ]
    final_X = np.hstack([feats_a, feats_b, combo_features(*yhat)])
    return model.final.predict(final_X)


@dataclass(frozen=True)
class LinearCombiner:
    """a*x + b over the difference or mean of the two per-row predictions."""

    mode: str  # "difference" | "mean"
    a: float
    b: float

    def predict(self, y1, y2) -> np.ndarray:
        return self.a * _combine(y1, y2, self.mode) + self.b


def _combine(y1, y2, mode: str) -> np.ndarray:
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if mode == "difference":
        return y1 - y2
    if mode == "mean":
        return (y1 + y2) / 2.0
    raise ValueError(f"unknown combiner mode {mode!r}")


def fit_linear_combiner(y1, y2, gold, mode: str = "difference") -> LinearCombiner:
    """Least-squares fit of gold on the combined prediction statistic.

    A constant statistic gets slope 0 and intercept mean(gold).
    """
    x = _combine(y1, y2, mode)
    gold = np.asarray(gold, dtype=float)
    if len(x) < 2 or len(x) != len(gold):
        raise ValueError("need >= 2 aligned points")
    var = float(np.mean((x - x.mean()) ** 2))
    if var == 0.0:
        return LinearCombiner(mode, 0.0, float(gold.mean()))
    a = float(np.mean((x - x.mean()) * (gold - gold.mean()))) / var
    return LinearCombiner(mode, a, float(gold.mean() - a * x.mean()))
