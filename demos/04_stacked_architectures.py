"""Stacked prediction over paired rows: combined vs separate base models.

Discriminative-attribute instances arrive as two rows (w1 -> attribute,
w2 -> attribute).  A base model predicts the instance gold per row; the final
model then learns on both rows' features plus five combination features of
the two base predictions.  Base predictions for training data are produced
out-of-fold, and the model keeps an audit trail proving it.
"""

import numpy as np

from rtm import ModelSpec, combo_features, fit_linear_combiner
from rtm.features import N_FEATURES
from rtm.stacking import (
    StackConfig,
    predict_stack_matrices,
    train_combined_stack_matrices,
    train_separate_stack_matrices,
)

print("combination features of (0.2, 0.8):", combo_features(0.2, 0.8).round(4).tolist())
print("  -> [y1, y2, |y1-y2|, mean, sqrt(y1*y2)]\n")

# synthetic paired task: each row has a bimodal "overlap level" echoed across
# the first 8 feature columns (as correlated overlap features are in real
# runs); gold = 1 iff the two rows sit in different modes
rng = np.random.default_rng(21)
n = 300
feats_a = rng.normal(size=(n, N_FEATURES)) * 0.2
feats_b = rng.normal(size=(n, N_FEATURES)) * 0.2
mode_a = rng.integers(0, 2, n)
mode_b = rng.integers(0, 2, n)
feats_a[:, :8] += mode_a[:, None]
feats_b[:, :8] += mode_b[:, None]
gold = (mode_a != mode_b).astype(float)
tr = slice(0, 240)
te = slice(240, None)

cfg = StackConfig(
    base_spec=ModelSpec("rr", alpha=1.0),
    final_specs=(ModelSpec("knn", k=5), ModelSpec("rr", alpha=1.0),
                 ModelSpec("tree", min_leaf=3, n_estimators=100, seed=2)),
    top_k=1,
    folds=7,
    seed=4,
)

for name, train_fn in (
    ("combined", train_combined_stack_matrices),
    ("separate", train_separate_stack_matrices),
):
    model = train_fn(feats_a[tr], feats_b[tr], gold[tr], cfg)
    preds = predict_stack_matrices(model, feats_a[te], feats_b[te])
    acc = np.mean((preds >= 0.5) == (gold[te] == 1.0))
    touched = sum(len(r.scored_rows) for r in model.oof_audit)
    print(f"{name:9} stack: final model {model.cv_table[0][0].label():12} "
          f"held-out acc {acc:.3f}  (OOF rows scored: {touched})")

# Linear prediction combiners: instead of a second learning step, fit a*x+b
# to the difference or mean of the two per-row predictions.
y1 = rng.uniform(size=200)
y2 = np.clip(y1 - 0.3 + rng.normal(0, 0.05, 200), 0, 1)
target = 2.0 * (y1 - y2) + 0.1
for mode in ("difference", "mean"):
    combiner = fit_linear_combiner(y1, y2, target, mode)
    print(f"\n{mode} combiner: a={combiner.a:.3f} b={combiner.b:.3f}")
