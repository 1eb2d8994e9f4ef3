"""Flat-array extra-trees and the presorted stump scan against references.

The references below are the recursive tree grow/predict and the scalar
per-split stump scan that ``rtm.learners`` used before.  The current code
must reproduce them bit for bit: the same nodes, RNG draws, stumps and
predictions.
"""

import math
import warnings

import numpy as np
import pytest

import rtm.learners
from rtm.learners import ModelSpec, _AdaBoostR2, _ExtraTrees, _Knn, _StumpScan

# ---------------------------------------------------------------------------
# Reference implementations.


class RefNode:
    __slots__ = ("feature", "cut", "left", "right", "value")

    def __init__(self, value=None, feature=None, cut=None, left=None, right=None):
        self.value = value
        self.feature = feature
        self.cut = cut
        self.left = left
        self.right = right


def ref_grow_tree(Z, y, idx, min_leaf, min_split, rng):
    n = len(idx)
    targets = y[idx]
    if n < min_split or n < 2 * min_leaf or targets.min() == targets.max():
        return RefNode(value=float(targets.mean()))
    rows = Z[idx]
    lo = rows.min(axis=0)
    hi = rows.max(axis=0)
    candidates = np.flatnonzero(hi > lo)
    if candidates.size == 0:
        return RefNode(value=float(y[idx].mean()))
    for _ in range(10):
        feat = int(candidates[rng.integers(candidates.size)])
        cut = rng.uniform(lo[feat], hi[feat])
        if cut <= lo[feat]:
            cut = np.nextafter(lo[feat], hi[feat])
        mask = rows[:, feat] < cut
        n_left = int(mask.sum())
        if min_leaf <= n_left <= n - min_leaf:
            left = ref_grow_tree(Z, y, idx[mask], min_leaf, min_split, rng)
            right = ref_grow_tree(Z, y, idx[~mask], min_leaf, min_split, rng)
            return RefNode(feature=feat, cut=float(cut), left=left, right=right)
    return RefNode(value=float(y[idx].mean()))


def ref_tree_predict(node, Z, idx, out):
    if node.value is not None:
        out[idx] = node.value
        return
    mask = Z[idx, node.feature] < node.cut
    ref_tree_predict(node.left, Z, idx[mask], out)
    ref_tree_predict(node.right, Z, idx[~mask], out)


def ref_forest(Z, y, spec, min_split=2):
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_estimators)
    idx = np.arange(len(y))
    return [ref_grow_tree(Z, y, idx, spec.min_leaf, min_split, np.random.default_rng(s))
            for s in seeds]


def ref_forest_predict(trees, Z):
    total = np.zeros(len(Z))
    idx = np.arange(len(Z))
    out = np.empty(len(Z))
    for tree in trees:
        ref_tree_predict(tree, Z, idx, out)
        total += out
    return total / len(trees)


def ref_knn_predict(Ztrain, y, k, Z):
    d2 = ((Z[:, None, :] - Ztrain[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return y[nearest].mean(axis=1)


def ref_preorder(node):
    """(feature, cut, value) per node, depth-first left-first; -1/inf/nan fill."""
    if node.value is not None:
        return [(-1, math.inf, node.value)]
    return ([(node.feature, node.cut, math.nan)]
            + ref_preorder(node.left) + ref_preorder(node.right))


def ref_fit_stump(Z, y, w):
    """(feature, cut, left, right) of the scalar weighted least-squares scan;
    splits with a zero-weight side are skipped."""
    feature, cut = None, None
    left = right = float(np.average(y, weights=w))
    total_w = w.sum()
    total_wy = (w * y).sum()
    base_sse = (w * y * y).sum() - total_wy**2 / total_w
    best_sse = base_sse
    for j in range(Z.shape[1]):
        order = np.argsort(Z[:, j], kind="stable")
        zv = Z[order, j]
        wv = w[order]
        wy = wv * y[order]
        cw = np.cumsum(wv)
        cwy = np.cumsum(wy)
        cwyy = np.cumsum(wy * y[order])
        splits = np.flatnonzero(zv[:-1] < zv[1:])
        for i in splits:
            lw, lwy, lwyy = cw[i], cwy[i], cwyy[i]
            rw = cw[-1] - lw
            rwy = cwy[-1] - lwy
            rwyy = cwyy[-1] - lwyy
            if not (lw > 0 and rw > 0):
                continue  # a side without weight has no mean
            sse = (lwyy - lwy**2 / lw) + (rwyy - rwy**2 / rw)
            if sse < best_sse - 1e-15:
                best_sse = sse
                feature = j
                cut = float((zv[i] + zv[i + 1]) / 2.0)
                left = float(lwy / lw)
                right = float(rwy / rw)
    return feature, cut, left, right


def ref_stump_predict(stump, Z):
    feature, cut, left, right = stump
    if feature is None:
        return np.full(len(Z), left)
    return np.where(Z[:, feature] <= cut, left, right)


def ref_adaboost(Z, y, rounds, learning_rate=1.0):
    """Stumps and alphas of the AdaBoost.R2 loop over the scalar scan."""
    n = len(y)
    w = np.full(n, 1.0 / n)
    stumps, alphas = [], []
    for _ in range(rounds):
        stump = ref_fit_stump(Z, y, w)
        err = np.abs(ref_stump_predict(stump, Z) - y)
        d = err.max()
        if d <= 1e-15:
            stumps.append(stump)
            alphas.append(1.0)
            break
        loss = 1.0 - np.exp(-err / d)
        avg_loss = float((w * loss).sum())
        if avg_loss >= 0.5:
            if not stumps:
                stumps.append(stump)
                alphas.append(1.0)
            break
        beta = avg_loss / (1.0 - avg_loss)
        stumps.append(stump)
        alphas.append(learning_rate * math.log(1.0 / beta))
        w = w * beta ** ((1.0 - loss) * learning_rate)
        w /= w.sum()
    return stumps, alphas


# ---------------------------------------------------------------------------
# Inputs and comparison helpers.


def bits(values):
    """Exact identity of floats, NaNs and signed zeros included."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def design(seed, n=48, d=6):
    """Columns: continuous, tied (few levels), constant, duplicate, coarse."""
    gen = np.random.default_rng(seed)
    Z = gen.normal(size=(n, d))
    Z[:, 1] = gen.integers(0, 3, size=n)
    Z[:, 2] = 0.5
    Z[:, 3] = Z[:, 1]
    Z[:, 4] = np.round(Z[:, 4], 1)
    y = Z[:, 0] - Z[:, 1] + gen.normal(0.0, 0.3, n)
    return Z, y, gen.normal(size=(17, d))


def flat_preorder(forest, t):
    stop = forest.roots[t + 1] if t + 1 < len(forest.roots) else len(forest.feature)
    span = range(forest.roots[t], stop)
    return [(int(forest.feature[i]), float(forest.cut[i]), float(forest.value[i])) for i in span]


def descend(forest, Z):
    """(tree, row) -> leaf index, walking the flat arrays one row at a time."""
    leaves = np.empty((len(forest.roots), len(Z)), dtype=int)
    for t, root in enumerate(forest.roots):
        for r, row in enumerate(Z):
            node = root
            while forest.feature[node] >= 0:
                node = forest.left[node] if row[forest.feature[node]] < forest.cut[node] else forest.right[node]
            leaves[t, r] = node
    return leaves


# ---------------------------------------------------------------------------
# Tests.


@pytest.mark.parametrize("min_leaf", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_forest_matches_recursive_reference(min_leaf, seed):
    Z, y, Zq = design(seed)
    spec = ModelSpec("tree", min_leaf=min_leaf, n_estimators=25, seed=seed)
    forest = _ExtraTrees(Z, y, spec)
    trees = ref_forest(Z, y, spec)
    for t, tree in enumerate(trees):
        got = flat_preorder(forest, t)
        want = ref_preorder(tree)
        assert [bits(node) for node in got] == [bits(node) for node in want]
    for rows in (Zq, Z, Zq[:1], np.vstack([Z[:5], Zq])):
        assert bits(forest.predict(rows).tolist()) == bits(ref_forest_predict(trees, rows).tolist())


def test_forest_retry_path_and_small_splits():
    # large leaves and a coarse column force the 10-try retries; the reference's
    # min_split below 2 * min_leaf never changes a tree
    Z, y, Zq = design(7, n=30)
    Z[:, 0] = np.round(Z[:, 0])
    for min_leaf, min_split in ((5, 2), (6, 2), (2, 3)):
        spec = ModelSpec("tree", min_leaf=min_leaf, n_estimators=30, seed=3)
        forest = _ExtraTrees(Z, y, spec)
        trees = ref_forest(Z, y, spec, min_split)
        for t, tree in enumerate(trees):
            assert [bits(node) for node in flat_preorder(forest, t)] == [bits(node) for node in ref_preorder(tree)]
        assert bits(forest.predict(Zq).tolist()) == bits(ref_forest_predict(trees, Zq).tolist())
        # a leaf big enough to split exists only where all 10 tries failed
        sizes = np.bincount(descend(forest, Z).ravel(), minlength=len(forest.feature))
        assert sizes.max() >= 2 * min_leaf


def test_forest_constant_target_and_columns():
    Z, _, Zq = design(2)
    y = np.full(len(Z), 0.25)
    spec = ModelSpec("tree", n_estimators=5, seed=1)
    forest = _ExtraTrees(Z, y, spec)
    assert np.array_equal(forest.feature, np.full(5, -1))
    assert bits(forest.predict(Zq).tolist()) == bits(ref_forest_predict(ref_forest(Z, y, spec), Zq).tolist())
    Zc = np.ones((10, 2))
    yc = np.arange(10.0)
    forest = _ExtraTrees(Zc, yc, spec)
    assert np.array_equal(forest.value, np.full(5, 4.5))


@pytest.mark.parametrize("seed", [0, 3])
def test_stump_scan_matches_scalar_reference(seed):
    Z, y, _ = design(seed)
    scan = _StumpScan(Z, y)
    gen = np.random.default_rng(seed + 10)
    for w in (np.full(len(y), 1.0 / len(y)), gen.random(len(y)), gen.random(len(y)) ** 8):
        w = w / w.sum()
        s = scan.fit(w)
        assert bits((s.feature, s.cut, s.left, s.right)) == bits(ref_fit_stump(Z, y, w))
    uniform = np.full(len(y), 1.0 / len(y))
    yc = np.full(len(y), 1.5)
    s = _StumpScan(Z, yc).fit(uniform)
    assert bits((s.feature, s.cut, s.left, s.right)) == bits(ref_fit_stump(Z, yc, uniform))
    Zc = np.ones_like(Z)  # no column has a split
    s = _StumpScan(Zc, y).fit(uniform)
    assert bits((s.feature, s.cut, s.left, s.right)) == bits(ref_fit_stump(Zc, y, uniform))


def test_stump_scan_skips_zero_weight_sides():
    Z, y, _ = design(1)
    w = np.random.default_rng(2).random(len(y))
    w[Z[:, 0] > np.median(Z[:, 0])] = 0.0  # column 0 can isolate zero-weight rows
    w[:3] = 1e-30  # and rows whose weight the running sums lose
    w /= w.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _StumpScan(Z, y).fit(w)
    assert bits((s.feature, s.cut, s.left, s.right)) == bits(ref_fit_stump(Z, y, w))
    left = Z[:, s.feature] <= s.cut
    assert w[left].sum() > 0.0 and w[~left].sum() > 0.0
    assert np.isfinite([s.left, s.right]).all()


def test_adaboost_500_rounds_matches_scalar_reference():
    # An outlier keeps the average loss small, so beta and the weights shrink
    # fast: within 500 rounds some rows weigh ~1e-23, which the running sums
    # lose, so some split sides sum to exactly 0.  Those splits are skipped:
    # every stump is finite, no floating-point warning is raised, and the scan
    # still picks the reference's stumps.
    gen = np.random.default_rng(5)
    Z = gen.normal(size=(40, 4))
    Z[:, 3] = np.round(Z[:, 3])
    y = np.clip(0.5 + 0.3 * Z[:, 0] + gen.normal(0.0, 0.1, 40), 0.0, 1.0)
    y[0] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref_stumps, ref_alphas = ref_adaboost(Z, y, 500)
        model = _AdaBoostR2(Z, y, ModelSpec("ada", n_estimators=500))
    assert len(ref_stumps) == 500
    got = [(s.feature, s.cut, s.left, s.right) for s in model.stumps]
    assert [bits(s) for s in got] == [bits(s) for s in ref_stumps]
    assert bits(model.alphas) == bits(ref_alphas)
    assert all(np.isfinite([s.left, s.right]).all() for s in model.stumps)
    assert all(math.isfinite(a) for a in model.alphas)


def test_predictions_cross_row_blocks_unchanged(monkeypatch):
    Z, y, Zq = design(4)
    Zq = np.vstack([Zq, Z, Zq[:1]])  # 66 rows, a tie-heavy KNN query set
    spec = ModelSpec("tree", n_estimators=20, seed=4)
    forest = _ExtraTrees(Z, y, spec)
    knn = _Knn(Z, y, ModelSpec("knn", k=5))
    # 3 query rows per tree block, 7 per KNN block
    monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", 64 * 20 * 3)
    assert bits(forest.predict(Zq).tolist()) == bits(ref_forest_predict(ref_forest(Z, y, spec), Zq).tolist())
    monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", 8 * Z.size * 7)
    assert bits(knn.predict(Zq).tolist()) == bits(ref_knn_predict(Z, y, 5, Zq).tolist())
