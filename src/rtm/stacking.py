"""Stacked two-row architectures and linear prediction combiners.

Instances here come as row pairs: for discriminative attributes the rows are
w1->attribute and w2->attribute; for paired intensity runs they are the tweet
against two different word sets.  A base model predicts the instance gold per
row, then a final model learns on concat(features_a, features_b) plus five
combination features of the two base predictions.

Base predictions for the training instances are produced out-of-fold (7-fold
by default, folds assigned at instance level so both rows of an instance sit
in the same fold) to keep the stack features free of leakage; the audit trail
of which model scored which rows is kept on the returned model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import N_FEATURES
from .learners import (
    AveragedModel,
    ModelSpec,
    TrainedModel,
    average_top_k,
    fit_model,
    fold_indices,
    grid_search,
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
    """Which rows one fold's base model trained on and which rows it scored."""

    side: str
    fold: int
    train_rows: tuple[int, ...]
    scored_rows: tuple[int, ...]


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


def _oof_predict_combined(feats_a, feats_b, gold, cfg, audit):
    """Out-of-fold base predictions with one shared model for both rows."""
    n = len(gold)
    rows = np.vstack([feats_a, feats_b])  # row i and row n+i belong to instance i
    row_gold = np.concatenate([gold, gold])
    yhat = np.empty(2 * n)
    for f, test_inst in enumerate(fold_indices(n, cfg.folds, cfg.seed)):
        test_rows = np.concatenate([test_inst, test_inst + n])
        train_inst = np.setdiff1d(np.arange(n), test_inst)
        train_rows = np.concatenate([train_inst, train_inst + n])
        model = fit_model(cfg.base_spec, rows[train_rows], row_gold[train_rows])
        yhat[test_rows] = model.predict(rows[test_rows])
        audit.append(
            OofAuditRecord("combined", f, tuple(train_rows.tolist()), tuple(test_rows.tolist()))
        )
    return yhat[:n], yhat[n:]


def _oof_predict_side(feats, gold, cfg, side, offset, audit):
    """Out-of-fold predictions for one row population with its own base model."""
    n = len(gold)
    yhat = np.empty(n)
    for f, test_idx in enumerate(fold_indices(n, cfg.folds, cfg.seed)):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        model = fit_model(cfg.base_spec, feats[train_idx], gold[train_idx])
        yhat[test_idx] = model.predict(feats[test_idx])
        audit.append(
            OofAuditRecord(
                side,
                f,
                tuple((train_idx + offset).tolist()),
                tuple((test_idx + offset).tolist()),
            )
        )
    return yhat


def _fit_final(feats_a, feats_b, yhat_a, yhat_b, gold, cfg):
    final_X = np.hstack([feats_a, feats_b, combo_features(yhat_a, yhat_b)])
    assert final_X.shape[1] == N_STACK_FEATURES
    ranked = grid_search(list(cfg.final_specs), final_X, gold, cfg.folds, cfg.seed)
    return average_top_k(ranked, min(cfg.top_k, len(ranked)), final_X, gold), ranked


def train_combined_stack_matrices(feats_a, feats_b, gold, cfg: StackConfig) -> StackModel:
    """One shared base model over all 2n rows, then the final model."""
    gold = np.asarray(gold, dtype=float)
    if len(gold) < 2 or len(feats_a) != len(gold) or len(feats_b) != len(gold):
        raise ValueError("need >= 2 instances with matching row matrices")
    audit: list[OofAuditRecord] = []
    yhat_a, yhat_b = _oof_predict_combined(feats_a, feats_b, gold, cfg, audit)
    base = fit_model(
        cfg.base_spec, np.vstack([feats_a, feats_b]), np.concatenate([gold, gold])
    )
    final, ranked = _fit_final(feats_a, feats_b, yhat_a, yhat_b, gold, cfg)
    return StackModel("combined", {"combined": base}, final, ranked, audit)


def train_separate_stack_matrices(feats_a, feats_b, gold, cfg: StackConfig) -> StackModel:
    """Two per-side base models of ``cfg.base_spec``, each trained only on its
    own row population."""
    gold = np.asarray(gold, dtype=float)
    if len(gold) < 2 or len(feats_a) != len(gold) or len(feats_b) != len(gold):
        raise ValueError("need >= 2 instances with matching row matrices")
    n = len(gold)
    audit: list[OofAuditRecord] = []
    yhat_a = _oof_predict_side(feats_a, gold, cfg, "a", 0, audit)
    yhat_b = _oof_predict_side(feats_b, gold, cfg, "b", n, audit)
    bases = {
        "a": fit_model(cfg.base_spec, feats_a, gold),
        "b": fit_model(cfg.base_spec, feats_b, gold),
    }
    final, ranked = _fit_final(feats_a, feats_b, yhat_a, yhat_b, gold, cfg)
    return StackModel("separate", bases, final, ranked, audit)


def predict_stack_matrices(model: StackModel, feats_a, feats_b) -> np.ndarray:
    """Apply base model(s), combination features and the final model."""
    if model.mode == "combined":
        base = model.bases["combined"]
        yhat_a = base.predict(feats_a)
        yhat_b = base.predict(feats_b)
    else:
        yhat_a = model.bases["a"].predict(feats_a)
        yhat_b = model.bases["b"].predict(feats_b)
    final_X = np.hstack([feats_a, feats_b, combo_features(yhat_a, yhat_b)])
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
