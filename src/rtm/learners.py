"""Base regression learners, feature selection, PLS and model ranking.

All learners are implemented directly on numpy so that the contracts the rest
of the package relies on hold exactly: deterministic output under a fixed
seed, documented tie-breaking (lowest training index for KNN distance ties,
stable ordering in grid ranking) and a shared standardization step.

Learner kinds:

* ``rr``    ridge regression, closed form, unpenalized intercept
* ``knn``   k-nearest neighbours on standardized features
* ``tree``  extremely randomized trees (uniform random feature + cut)
* ``ada``   AdaBoost.R2 with exponential loss over depth-1 stumps
* ``const`` training-mean baseline

Each ModelSpec may add preprocessing: recursive feature elimination down to
``n_features`` columns and/or a NIPALS PLS projection to ``n_components``
scores (FS first, then PLS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STD_FLOOR = 1e-12


class Scaler:
    """Per-column standardization with the training mean and population std."""

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        self.std_ = np.maximum(X.std(axis=0), STD_FLOOR)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean_) / self.std_


@dataclass(frozen=True)
class ModelSpec:
    """A learner kind plus its hyperparameters and preprocessing choices."""

    kind: str
    alpha: float | None = None  # rr penalty
    k: int | None = None  # knn neighbours
    min_leaf: int = 1
    n_estimators: int = 500
    n_features: int | None = None  # FS: keep this many columns
    n_components: int | None = None  # PLS: project to this many scores
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("rr", "knn", "tree", "ada", "const"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.kind == "rr" and (self.alpha is None or self.alpha < 0):
            raise ValueError("rr needs alpha >= 0")
        if self.kind == "knn" and (self.k is None or self.k < 1):
            raise ValueError("knn needs k >= 1")

    def label(self) -> str:
        parts = [self.kind]
        if self.kind == "rr":
            parts.append(f"alpha={self.alpha:g}")
        elif self.kind == "knn":
            parts.append(f"k={self.k}")
        elif self.kind == "tree":
            parts.append(f"leaf={self.min_leaf},trees={self.n_estimators}")
        elif self.kind == "ada":
            parts.append(f"rounds={self.n_estimators}")
        name = "{}({})".format(parts[0], ",".join(parts[1:]))
        if self.n_features is not None:
            name += f"+fs{self.n_features}"
        if self.n_components is not None:
            name += f"+pls{self.n_components}"
        return name


# ---------------------------------------------------------------------------
# Inner learners.  Each operates on the already-standardized design matrix.


def _ridge_coefs(Z: np.ndarray, y_centered: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return np.linalg.lstsq(Z, y_centered, rcond=None)[0]
    d = Z.shape[1]
    return np.linalg.solve(Z.T @ Z + alpha * np.eye(d), Z.T @ y_centered)


class _Ridge:
    def __init__(self, Z, y, spec):
        self.intercept = float(np.mean(y))
        self.coefs = _ridge_coefs(Z, y - self.intercept, spec.alpha)

    def predict(self, Z):
        return Z @ self.coefs + self.intercept


# Block predictions so each block's temporaries stay near this many bytes.
_BLOCK_BYTES = 16 << 20


def _row_blocks(n_rows: int, bytes_per_row: int):
    """Slices covering ``range(n_rows)``, each within the block byte budget."""
    step = max(1, _BLOCK_BYTES // max(1, bytes_per_row))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


class _Knn:
    def __init__(self, Z, y, spec):
        self.Z = Z
        self.y = np.asarray(y, dtype=float)
        self.k = min(spec.k, len(y))

    def predict(self, Z):
        out = np.empty(len(Z))
        # each row's distances reduce on their own, so blocking changes no bit
        for rows in _row_blocks(len(Z), 8 * self.Z.size):
            d2 = ((Z[rows, None, :] - self.Z[None, :, :]) ** 2).sum(axis=2)
            # stable argsort: equal distances resolve to the lower training index
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[rows] = self.y[nearest].mean(axis=1)
        return out


class _Const:
    def __init__(self, Z, y, spec):
        self.value = float(np.mean(y))

    def predict(self, Z):
        return np.full(len(Z), self.value)


def _grow_preorder(ZY, y, min_leaf, rng, nodes) -> int:
    """Append one tree to ``nodes`` in depth-first preorder; returns its depth.

    ``ZY`` is the design matrix with ``y`` as its last column, so one min/max
    pass gives both the cut ranges and the constant-target test.  The RNG
    draws (feature, then cut, up to 10 tries per node) come in the same order
    as a recursive left-first grow.  ``lo + (hi - lo) * random()`` is how
    ``Generator.uniform`` computes its draw.
    """
    feature, cut, left, right, value = nodes
    min_rows = max(2, 2 * min_leaf)  # a node splits only if both children can hold min_leaf
    stack = [(np.arange(len(y)), -1, 1)]  # (rows, parent awaiting a right child, level)
    depth = 0
    while stack:
        idx, parent, level = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        depth = max(depth, level)
        n = len(idx)
        split = None
        if n >= min_rows:
            rows = ZY.take(idx, axis=0)
            lo = np.minimum.reduce(rows)
            hi = np.maximum.reduce(rows)
            if lo[-1] != hi[-1]:
                candidates = (hi > lo)[:-1].nonzero()[0]
                for _ in range(10 if candidates.size else 0):
                    feat = int(candidates[rng.integers(candidates.size)])
                    a, b = lo[feat], hi[feat]
                    c = a + (b - a) * rng.random()
                    if c <= a:
                        c = np.nextafter(a, b)
                    mask = rows[:, feat] < c
                    if min_leaf <= np.count_nonzero(mask) <= n - min_leaf:
                        split = feat, float(c), mask
                        break
        if split is None:
            # leaf: both children point back at it, so a descent stays put
            feature.append(-1)
            cut.append(math.inf)
            left.append(node)
            right.append(node)
            # np.mean's arithmetic (pairwise sum, one division); a row is its own mean
            value.append(float(y[idx[0]]) if n == 1 else float(y[idx].sum() / n))
            continue
        feat, c, mask = split
        feature.append(feat)
        cut.append(c)
        left.append(node + 1)  # preorder: the left child comes next
        right.append(-1)
        value.append(math.nan)
        stack.append((idx[~mask], node, level + 1))
        stack.append((idx[mask], -1, level + 1))
    return depth


class _ExtraTrees:
    """Totally randomized trees: uniform random feature, uniform random cut.

    All trees live in one set of flat node arrays (``feature``, ``cut``,
    ``left``, ``right``, ``value``), each tree numbered in depth-first
    preorder from ``roots[t]``.  A row goes left when ``row[feature] < cut``.
    Leaves have ``feature == -1`` and point both children at themselves.
    """

    def __init__(self, Z, y, spec):
        y = np.asarray(y, dtype=float)
        ZY = np.column_stack([Z, y])
        seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_estimators)
        nodes = ([], [], [], [], [])
        roots, self.depth = [], 0
        for s in seeds:
            roots.append(len(nodes[0]))
            depth = _grow_preorder(ZY, y, spec.min_leaf, np.random.default_rng(s), nodes)
            self.depth = max(self.depth, depth)
        self.roots = np.asarray(roots, dtype=np.intp)
        self.feature = np.asarray(nodes[0], dtype=np.intp)
        self.cut = np.asarray(nodes[1], dtype=float)
        self.left = np.asarray(nodes[2], dtype=np.intp)
        self.right = np.asarray(nodes[3], dtype=np.intp)
        self.value = np.asarray(nodes[4], dtype=float)

    def predict(self, Z):
        Z = np.ascontiguousarray(Z, dtype=float)
        n_trees = len(self.roots)
        total = np.zeros(len(Z))
        flat = Z.ravel()
        for rows in _row_blocks(len(Z), 64 * n_trees):
            # (tree, row) positions descend all trees at once, one level a step
            offsets = np.arange(rows.start, rows.stop)[None, :] * Z.shape[1]
            node = np.repeat(self.roots[:, None], offsets.shape[1], axis=1)
            for _ in range(self.depth - 1):
                go_left = flat[offsets + self.feature[node]] < self.cut[node]
                node = np.where(go_left, self.left[node], self.right[node])
            leaf = self.value[node]
            for t in range(n_trees):  # tree order, as a sequential sum
                total[rows] += leaf[t]
        return total / n_trees


class _Stump:
    __slots__ = ("feature", "cut", "left", "right")

    def predict(self, Z):
        if self.feature is None:
            return np.full(len(Z), self.left)
        return np.where(Z[:, self.feature] <= self.cut, self.left, self.right)


class _StumpScan:
    """Weighted least-squares depth-1 stumps over columns presorted once.

    ``fit(w)`` scans every split between distinct sorted values of every
    column, feature by feature and left to right, and keeps a split only if
    both sides carry weight and its SSE beats the best so far by more than
    1e-15.  The cumulative sums run along each sorted column, so each split's
    sums and SSE are the ones a per-column scalar scan computes.
    """

    def __init__(self, Z, y):
        n = len(y)
        self.y = y
        self.order = np.argsort(Z.T, axis=1, kind="stable")  # (feature, rank)
        self.ys = y[self.order]
        zs = np.take_along_axis(Z.T, self.order, axis=1)
        # split after rank i of feature j, in (feature, split) scan order
        self.feat, split = np.nonzero(zs[:, :-1] < zs[:, 1:])
        self.pos = self.feat * n + split
        self.last = self.feat * n + (n - 1)
        self.cuts = (zs[self.feat, split] + zs[self.feat, split + 1]) / 2.0

    def fit(self, w):
        y = self.y
        best = _Stump()
        best.feature, best.cut = None, None
        best.left = best.right = float(np.average(y, weights=w))
        total_w = w.sum()
        total_wy = (w * y).sum()
        best_sse = (w * y * y).sum() - total_wy**2 / total_w
        wv = w[self.order]
        wy = wv * self.ys
        cw = np.cumsum(wv, axis=1).ravel()
        cwy = np.cumsum(wy, axis=1).ravel()
        cwyy = np.cumsum(wy * self.ys, axis=1).ravel()
        # Boosting can drive weights to exactly 0, and a side without weight
        # has no mean (Drucker, ICML 1997), so such splits are never candidates.
        # Each side's sums are differences of one column's running sums: a
        # side of zero weights sums to exactly 0, and so does one whose weight
        # is lost to rounding, so no kept split divides by 0.
        lw = cw[self.pos]
        rw = cw[self.last] - lw
        live = np.flatnonzero((lw > 0.0) & (rw > 0.0))
        pos, last, lw, rw = self.pos[live], self.last[live], lw[live], rw[live]
        lwy, lwyy = cwy[pos], cwyy[pos]
        rwy = cwy[last] - lwy
        rwyy = cwyy[last] - lwyy
        # float_power is C pow per element, as in scalar ``x**2``; an array
        # ``x**2`` multiplies, which differs in the last bit for ~0.1% of x
        sse = (lwyy - np.float_power(lwy, 2) / lw) + (rwyy - np.float_power(rwy, 2) / rw)
        # A split is kept only if it beats the best so far by 1e-15, and the
        # best stays within 1e-15 of the running minimum, so every kept split
        # is a strict running-minimum record.  Walk only those.
        running = np.fmin.accumulate(np.concatenate(([best_sse], sse[:-1])))
        records = np.flatnonzero(sse < running)
        k = -1
        best_sse = float(best_sse)
        for j, value in zip(records.tolist(), sse[records].tolist()):
            if value < best_sse - 1e-15:
                k, best_sse = j, value
        if k >= 0:
            best.feature = int(self.feat[live[k]])
            best.cut = float(self.cuts[live[k]])
            best.left = float(lwy[k] / lw[k])
            best.right = float(rwy[k] / rw[k])
        return best


class _AdaBoostR2:
    """Drucker's AdaBoost.R2 with exponential loss and weighted-median output."""

    def __init__(self, Z, y, spec):
        y = np.asarray(y, dtype=float)
        n = len(y)
        w = np.full(n, 1.0 / n)
        self.stumps: list[_Stump] = []
        self.alphas: list[float] = []
        scan = _StumpScan(Z, y)
        for _ in range(spec.n_estimators):
            stump = scan.fit(w)
            err = np.abs(stump.predict(Z) - y)
            d = err.max()
            if d <= 1e-15:
                self.stumps.append(stump)
                self.alphas.append(1.0)
                break
            loss = 1.0 - np.exp(-err / d)
            avg_loss = float((w * loss).sum())
            if avg_loss >= 0.5:
                if not self.stumps:
                    self.stumps.append(stump)
                    self.alphas.append(1.0)
                break
            beta = avg_loss / (1.0 - avg_loss)
            self.stumps.append(stump)
            self.alphas.append(math.log(1.0 / beta))
            w = w * beta ** (1.0 - loss)
            w /= w.sum()

    def predict(self, Z):
        preds = np.stack([s.predict(Z) for s in self.stumps])  # (rounds, n)
        alphas = np.asarray(self.alphas)
        order = np.argsort(preds, axis=0, kind="stable")
        cum = np.cumsum(alphas[order], axis=0)
        pick = np.argmax(cum >= 0.5 * alphas.sum(), axis=0)
        cols = np.arange(preds.shape[1])
        return preds[order[pick, cols], cols]


_INNER = {"rr": _Ridge, "knn": _Knn, "tree": _ExtraTrees, "ada": _AdaBoostR2, "const": _Const}


# ---------------------------------------------------------------------------
# Preprocessing.


def select_features(X: np.ndarray, y: np.ndarray, m: int, inner_alpha: float = 1.0) -> tuple[int, ...]:
    """Recursive feature elimination down to ``m`` columns.

    Repeatedly fits ridge on the standardized remaining columns and drops the
    one with the smallest absolute coefficient (ties drop the higher index).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not 1 <= m <= X.shape[1]:
        raise ValueError(f"m must be in [1, {X.shape[1]}]")
    remaining = list(range(X.shape[1]))
    while len(remaining) > m:
        sub = X[:, remaining]
        Z = Scaler(sub).transform(sub)
        coefs = np.abs(_ridge_coefs(Z, y - y.mean(), inner_alpha))
        # last occurrence of the minimum -> ties drop the higher index
        drop = len(coefs) - 1 - int(np.argmin(coefs[::-1]))
        del remaining[drop]
    return tuple(remaining)


class PlsProjection:
    """NIPALS PLS1: sequence of weight/loading vectors on standardized X."""

    def __init__(self, Z: np.ndarray, y: np.ndarray, n_components: int):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        Xk = np.array(Z, dtype=float)
        yk = np.asarray(y, dtype=float) - float(np.mean(y))
        self.y_mean = float(np.mean(y))
        W, P, Q = [], [], []
        for _ in range(min(n_components, Z.shape[1])):
            w = Xk.T @ yk
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                break
            w = w / nw
            t = Xk @ w
            tt = float(t @ t)
            if tt < 1e-12:
                break
            p = Xk.T @ t / tt
            q = float(yk @ t) / tt
            Xk = Xk - np.outer(t, p)
            yk = yk - q * t
            W.append(w)
            P.append(p)
            Q.append(q)
        if not W:
            raise ValueError("no PLS component could be extracted (constant input)")
        self.W = np.column_stack(W)
        self.P = np.column_stack(P)
        self.Q = np.asarray(Q)

    @property
    def n_components(self) -> int:
        return self.W.shape[1]

    def transform(self, Z: np.ndarray) -> np.ndarray:
        Zk = np.array(Z, dtype=float)
        scores = np.empty((len(Zk), self.n_components))
        for k in range(self.n_components):
            t = Zk @ self.W[:, k]
            scores[:, k] = t
            Zk -= np.outer(t, self.P[:, k])
        return scores

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Regression through the projection: y_mean + scores @ q."""
        return self.y_mean + self.transform(Z) @ self.Q


# ---------------------------------------------------------------------------
# The trained-model wrapper.


class TrainedModel:
    """A fitted spec: scaler + optional FS/PLS + the inner learner."""

    def __init__(self, spec: ModelSpec, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-d with one row per target")
        if len(y) < 2:
            raise ValueError("need at least 2 training rows")
        self.spec = spec
        self.n_features_in = X.shape[1]
        self.selected: tuple[int, ...] | None = None
        if spec.n_features is not None:
            # clamp so grid presets written for the full manifest stay valid
            self.selected = select_features(X, y, min(spec.n_features, X.shape[1]))
            X = X[:, self.selected]
        self.scaler = Scaler(X)
        Z = self.scaler.transform(X)
        self.pls: PlsProjection | None = None
        if spec.n_components is not None:
            self.pls = PlsProjection(Z, y, spec.n_components)
            Z = self.pls.transform(Z)
        self.inner = _INNER[spec.kind](Z, y, spec)

    def _design(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_in:
            raise ValueError(f"expected {self.n_features_in} feature columns")
        if self.selected is not None:
            X = X[:, self.selected]
        Z = self.scaler.transform(X)
        if self.pls is not None:
            Z = self.pls.transform(Z)
        return Z

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.inner.predict(self._design(X))


def fit_model(spec: ModelSpec, X, y) -> TrainedModel:
    return TrainedModel(spec, X, y)


# ---------------------------------------------------------------------------
# Cross-validation, grid search, top-k averaging.


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then contiguous split; fold sizes differ by at most 1."""
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}]")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def cross_validate(
    spec: ModelSpec, X, y, folds: int = 7, seed: int = 0
) -> tuple[float, list[float]]:
    """Mean held-out MAE over a seeded contiguous fold split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    parts = fold_indices(len(y), folds, seed)
    scores = []
    for i, test_idx in enumerate(parts):
        train_idx = np.concatenate([p for j, p in enumerate(parts) if j != i])
        model = fit_model(spec, X[train_idx], y[train_idx])
        scores.append(float(np.mean(np.abs(model.predict(X[test_idx]) - y[test_idx]))))
    return float(np.mean(scores)), scores


def grid_search(
    specs: list[ModelSpec], X, y, folds: int = 7, seed: int = 0
) -> list[tuple[ModelSpec, float]]:
    """Cross-validate every spec and rank ascending; ties keep grid order."""
    if not specs:
        raise ValueError("empty grid")
    scored = [(spec, cross_validate(spec, X, y, folds, seed)[0]) for spec in specs]
    return sorted(scored, key=lambda pair: pair[1])  # stable -> grid order on ties


class AveragedModel:
    """Unweighted mean of the top-k ranked specs, each refit on all data."""

    def __init__(self, ranked: list[tuple[ModelSpec, float]], k: int, X, y):
        if not 1 <= k <= len(ranked):
            raise ValueError(f"k must be in [1, {len(ranked)}]")
        self.members = [fit_model(spec, X, y) for spec, _ in ranked[:k]]

    def predict(self, X) -> np.ndarray:
        return np.mean([m.predict(X) for m in self.members], axis=0)


def average_top_k(ranked, k: int, X, y) -> AveragedModel:
    return AveragedModel(ranked, k, X, y)


# Default hyperparameter grids.  The ranges below are the package defaults;
# "small" is a fast preset for tests and demos.

def default_grid(seed: int = 0) -> list[ModelSpec]:
    specs: list[ModelSpec] = []
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        specs.append(ModelSpec("rr", alpha=alpha, seed=seed))
        specs.append(ModelSpec("rr", alpha=alpha, n_features=8, seed=seed))
        specs.append(ModelSpec("rr", alpha=alpha, n_features=16, seed=seed))
        specs.append(ModelSpec("rr", alpha=alpha, n_components=2, seed=seed))
        specs.append(ModelSpec("rr", alpha=alpha, n_components=4, seed=seed))
        specs.append(ModelSpec("rr", alpha=alpha, n_components=8, seed=seed))
    for k in (1, 3, 5, 9, 15):
        specs.append(ModelSpec("knn", k=k, seed=seed))
        specs.append(ModelSpec("knn", k=k, n_components=4, seed=seed))
    for min_leaf in (1, 3, 5):
        specs.append(ModelSpec("tree", min_leaf=min_leaf, seed=seed))
    specs.append(ModelSpec("ada", seed=seed))
    return specs


def small_grid(seed: int = 0) -> list[ModelSpec]:
    return [
        ModelSpec("rr", alpha=0.1, seed=seed),
        ModelSpec("rr", alpha=1.0, seed=seed),
        ModelSpec("rr", alpha=10.0, seed=seed),
        ModelSpec("rr", alpha=1.0, n_features=8, seed=seed),
        ModelSpec("knn", k=3, seed=seed),
        ModelSpec("knn", k=5, seed=seed),
        ModelSpec("tree", min_leaf=3, n_estimators=80, seed=seed),
    ]
