"""Base learners, 7-fold CV ranking and top-k model averaging.

Every learner is ranked by cross-validated MAE on the training set; the final
predictor averages the best k of them, which is more robust than trusting the
single CV winner.
"""

import numpy as np

from rtm import ModelSpec, average_top_k, cross_validate, grid_search

rng = np.random.default_rng(7)
n, d = 250, 10
X = rng.normal(size=(n, d))
y = 1.5 * X[:, 0] - 0.8 * X[:, 3] + 0.1 * X[:, 5] ** 2 + rng.normal(0, 0.2, n)
X_train, y_train = X[:200], y[:200]
X_test, y_test = X[200:], y[200:]

grid = [
    ModelSpec("rr", alpha=0.1),
    ModelSpec("rr", alpha=10.0),
    ModelSpec("rr", alpha=1.0, n_features=4),   # recursive feature elimination
    ModelSpec("rr", alpha=1.0, n_components=3), # PLS projection
    ModelSpec("knn", k=5),
    ModelSpec("tree", min_leaf=3, n_estimators=100, seed=1),
    ModelSpec("ada", n_estimators=60, seed=1),
    ModelSpec("const"),                          # mean baseline for reference
]

ranked = grid_search(grid, X_train, y_train, folds=7, seed=3)
print("CV ranking (7-fold MAE):")
for rank, (spec, score) in enumerate(ranked, start=1):
    print(f"  {rank}. {spec.label():24} {score:.4f}")

for k in (1, 3):
    ensemble = average_top_k(ranked, k, X_train, y_train)
    mae = np.mean(np.abs(ensemble.predict(X_test) - y_test))
    print(f"\ntop-{k} average, held-out MAE: {mae:.4f}")

spec = ranked[0][0]
mean_mae, fold_scores = cross_validate(spec, X_train, y_train, folds=7, seed=3)
print(f"\nwinner {spec.label()} fold MAEs:", [round(s, 4) for s in fold_scores])
