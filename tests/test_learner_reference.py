"""The presorted stump scan, KNN, RFE, PLS, the forest grower and the
stacked out-of-fold fits against references.

The references below are the scalar per-split stump scan, which squares by
product as the presorted scan does, the unblocked KNN that ``rtm.learners``
used before, the NIPALS fit that deflated out of place, the level-wise
grower whose level step held every row array at once and the stack's base
fits on per-fold copies of the rows; the current code must reproduce them
bit for bit (the grower's level records dtypes included, a stack as pickled).
The RFE reference rescales and re-solves the remaining columns at each step,
and the downdated path must drop the same columns in the same order.  The
forest's other tests walk each tree breadth-first from its root, route the
training rows down the flat node arrays and check what every node holds,
that the keyed draws are uniform, that any split into blocks gives the same
trees, and that ``predict`` averages per-tree walks.
"""

import collections
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rtm.learners
import rtm.stacking
from rtm.features import N_FEATURES
from rtm.learners import (_DRAWS, _TRIES, RFE_TIE, ModelSpec, PlsProjection, Scaler,
                          _AdaBoostR2, _elimination_order, _ExtraTrees, _grow_level_wise,
                          _keyed, _Knn, _starts, _StumpScan, fit_model, fold_indices)
from rtm.stacking import (OofAuditRecord, StackConfig, _oof_group, predict_stack_matrices,
                          train_combined_stack_matrices, train_separate_stack_matrices)

from conftest import traced_peak

# ---------------------------------------------------------------------------
# Reference implementations.


def ref_knn_neighbours(Ztrain, k, Z):
    d2 = ((Z[:, None, :] - Ztrain[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def ref_knn_predict(Ztrain, y, k, Z):
    return y[ref_knn_neighbours(Ztrain, k, Z)].mean(axis=1)


def ref_fit_stump(Z, y, w, square=lambda v: v * v):
    """(feature, cut, left, right) of the scalar weighted least-squares scan;
    splits with a zero-weight side are skipped.  ``square`` squares every
    sum, the baseline's included."""
    feature, cut = None, None
    left = right = float(np.average(y, weights=w))
    total_w = w.sum()
    total_wy = (w * y).sum()
    base_sse = (w * y * y).sum() - square(total_wy) / total_w
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
            sse = (lwyy - square(lwy) / lw) + (rwyy - square(rwy) / rw)
            if sse < best_sse - 1e-15:
                best_sse = sse
                feature = j
                cut = float((zv[i] + zv[i + 1]) / 2.0)
                left = float(lwy / lw)
                right = float(rwy / rw)
    return feature, cut, left, right


def as_scanned(stump):
    """The reference's stump as ``_StumpScan.fit`` returns it: the constant
    stump's None feature and cut become -1 and inf."""
    feature, cut, left, right = stump
    return (-1, math.inf, left, right) if feature is None else stump


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


def ref_elimination_order(X, y, m):
    """Per-step RFE: each step standardizes the remaining columns, solves
    alpha-1 ridge on them and drops the highest index among the columns
    whose |coefficient| is within ``RFE_TIE * max`` of the smallest."""
    remaining, dropped = list(range(X.shape[1])), []
    while len(remaining) > m:
        sub = X[:, remaining]
        Z = Scaler(sub).transform(sub)
        c = np.abs(np.linalg.solve(Z.T @ Z + np.eye(len(remaining)), Z.T @ (y - y.mean())))
        dropped.append(remaining.pop(int(np.flatnonzero(c <= c.min() + RFE_TIE * c.max())[-1])))
    return dropped


def ref_draw_splits(Z, rows, counts, keys, min_leaf):
    """(feature, cut) of each node, drawn from its key; feature -1 makes a leaf.

    ``rows`` holds the nodes' row indices one segment after another.  Draw
    ``j`` of a node picks column ``h % d`` and ``u`` in [0, 1) from the hash
    of (key, j), and a column constant in the node is rejected, so the
    feature is uniform over the node's non-constant columns.  Among its
    first ``_TRIES`` non-constant draws, the first whose cut
    ``lo + (hi - lo) * u`` (at least ``nextafter(lo, hi)``) leaves
    ``min_leaf`` rows on both sides wins.  Every node must hold two distinct
    rows, so some column varies in it and its draws find one.  Nodes still
    searching get more draws a round as their rows shrink, never more
    (draw, row) pairs than the first round had; the draws are keyed, so this
    changes no result.
    """
    n_nodes, d = len(counts), Z.shape[1]
    feature = np.full(n_nodes, -1, dtype=np.intp)
    cut = np.full(n_nodes, math.inf)
    tries = np.zeros(n_nodes, dtype=np.intp)
    live = np.arange(n_nodes)  # nodes still searching
    draw, n_draws = 0, _DRAWS
    budget = _DRAWS * len(rows)
    while live.size:
        starts = _starts(counts)
        row_node = np.repeat(np.arange(live.size), counts)
        h = _keyed(keys[live], np.arange(draw, draw + n_draws)[:, None])  # (draw, node)
        feat = (h % np.uint64(d)).astype(np.intp)
        u = (_keyed(h, 0) >> np.uint64(11)) * (1.0 / (1 << 53))
        # (draw, row) values; ``take`` on flat indices gathers much faster than 2-d indexing
        vals = Z.ravel().take(rows * d + feat.take(row_node, axis=1))
        lo = np.minimum.reduceat(vals, starts, axis=1)
        hi = np.maximum.reduceat(vals, starts, axis=1)
        c = lo + (hi - lo) * u
        c = np.where(c <= lo, np.nextafter(lo, hi), c)
        n_left = np.add.reduceat(vals < c.take(row_node, axis=1), starts, axis=1, dtype=np.intp)
        varies = hi > lo
        ok = (varies & (tries[live] + np.cumsum(varies, axis=0) <= _TRIES)
              & (n_left >= min_leaf) & (n_left <= counts - min_leaf))
        won = ok.any(axis=0)
        first = ok.argmax(axis=0)[won]
        feature[live[won]] = feat[first, won]
        cut[live[won]] = c[first, won]
        tries[live] += varies.sum(axis=0)
        keep = ~won & (tries[live] < _TRIES)
        rows = rows[keep[row_node]]
        live, counts = live[keep], counts[keep]
        draw += n_draws
        n_draws = max(_DRAWS, min(2 * n_draws, budget // max(1, len(rows))))
    return feature, cut


def ref_grow_level_wise(Z, y, row_id, min_leaf, seed, trees, first):
    """Grow the given trees together, one level per step.

    ``row_id`` numbers the distinct rows of ``Z``; a node whose rows all have
    one id has no split and is a leaf, as is a node whose target is constant.

    Each open node is a segment of one row-index array, and every draw is
    keyed by (seed, tree, level, the node's position in its tree's level),
    so a tree comes out the same whichever trees grow beside it.  Returns a
    ``(feature, cut, value, left)`` record per level.  Node ids are final:
    they count from ``first`` level by level, each level in (tree, position)
    order.  A split node's right child is ``left + 1``; a leaf is its own
    ``left``.  Features and node ids are int32, so the levels' records add
    little to a later level's draws.
    """
    n = len(y)
    min_rows = max(2, 2 * min_leaf)  # a node splits only if both children can hold min_leaf
    tree = np.arange(trees.start, trees.stop)
    pos = np.zeros(len(tree), dtype=np.intp)
    counts = np.full(len(tree), n)
    rows = np.tile(np.arange(n), len(tree))
    seed_key = np.uint64(seed % (1 << 64))
    levels = []
    while tree.size:
        level = len(levels)
        starts = _starts(counts)
        yr, ids = y[rows], row_id[rows]
        constant = np.minimum.reduceat(yr, starts) == np.maximum.reduceat(yr, starts)
        one_row = np.minimum.reduceat(ids, starts) == np.maximum.reduceat(ids, starts)
        value = np.add.reduceat(yr, starts) / counts
        searching = (counts >= min_rows) & ~constant & ~one_row
        search = np.flatnonzero(searching)
        row_node = np.repeat(np.arange(len(counts)), counts)
        feature = np.full(len(counts), -1, dtype=np.int32)
        cut = np.full(len(counts), math.inf)
        if search.size:
            keys = _keyed(_keyed(_keyed(seed_key, tree[search]), level), pos[search])
            feature[search], cut[search] = ref_draw_splits(
                Z, rows[searching[row_node]], counts[search], keys, min_leaf)
        split = np.flatnonzero(feature >= 0)
        value[split] = math.nan
        left = np.arange(first, first + len(counts), dtype=np.int32)
        first += len(counts)
        left[split] = first + 2 * np.arange(split.size)
        levels.append((feature, cut, value, left))
        # the rows of the split nodes, each node's left side then its right side
        sub = feature[row_node] >= 0
        rows, row_node = rows[sub], row_node[sub]
        right = ~(Z[rows, feature[row_node]] < cut[row_node])
        order = np.argsort(2 * row_node + right, kind="stable")
        rows = rows[order]
        n_left = np.bincount(row_node[~right], minlength=len(counts))[split]
        counts = np.column_stack([n_left, counts[split] - n_left]).ravel()
        tree = np.repeat(tree[split], 2)
        rank = np.arange(split.size) - np.searchsorted(tree[::2], tree[::2])
        pos = (2 * rank[:, None] + np.arange(2)).ravel()
    return levels


def ref_pls(Z, y, n_components):
    """(W, P, Q) of the NIPALS fit that deflates out of place, as
    ``PlsProjection.__init__`` did."""
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    Xk = np.array(Z, dtype=float)
    yk = np.asarray(y, dtype=float) - float(np.mean(y))
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
    return np.column_stack(W), np.column_stack(P), np.asarray(Q)


def ref_oof_group(key, sides, offset, gold, folds, cfg, audit):
    """``stacking._oof_group`` as a loop of its own: each fold's rows copied
    out of the stacked sides and fitted without a share."""
    n = len(gold)
    rows = np.vstack(sides)  # row s*n + i is side s of instance i
    row_gold = np.tile(gold, len(sides))
    oof = np.empty(len(rows))
    for f, test_inst in enumerate(folds):
        train_inst = np.setdiff1d(np.arange(n), test_inst)
        train_rows = np.concatenate([train_inst + s * n for s in range(len(sides))])
        test_rows = np.concatenate([test_inst + s * n for s in range(len(sides))])
        model = fit_model(cfg.base_spec, rows[train_rows], row_gold[train_rows])
        oof[test_rows] = model.predict(rows[test_rows])
        audit.append(OofAuditRecord(key, f, (train_rows + offset).astype(np.int32),
                                    (test_rows + offset).astype(np.int32)))
    return fit_model(cfg.base_spec, rows, row_gold), np.split(oof, len(sides))


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


def rfe_design(seed, n=60):
    """Columns 0-3 random; 4 and 5 constant; 6 and 9 copies of 0; 7 a scaled
    copy of 3 (equal once standardized); 8 the sum of 1 and twice 2
    (collinear); 10 and 11 a pair of equal columns that y does not use; 12
    weak."""
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 13))
    X[:, 4], X[:, 5] = 0.1, 3.0
    X[:, 6] = X[:, 9] = X[:, 0]
    X[:, 7] = 2.0 * X[:, 3] - 1.0
    X[:, 8] = X[:, 1] + 2.0 * X[:, 2]
    X[:, 11] = X[:, 10]
    y = X[:, 0] - 0.5 * X[:, 1] + 0.3 * X[:, 3] + 0.05 * X[:, 12] + gen.normal(0.0, 0.2, n)
    return X, y


def twins(X):
    """Pairs (i, j), i < j, of columns equal once standardized."""
    Z = Scaler(X).transform(X)
    d = X.shape[1]
    return [(i, j) for i in range(d) for j in range(i + 1, d)
            if np.abs(Z[:, i] - Z[:, j]).max() <= 1e-12 * max(1.0, np.abs(Z[:, i]).max())]


def assert_twins_drop_higher_first(X, path):
    pairs = twins(X)
    assert pairs
    for i, j in pairs:
        if i in path:
            assert j in path and path.index(j) < path.index(i), (i, j, path)


def descend(forest, Z):
    """(tree, row) -> leaf index, walking the flat arrays one row at a time."""
    leaves = np.empty((len(forest.roots), len(Z)), dtype=int)
    for t, root in enumerate(forest.roots):
        for r, row in enumerate(Z):
            node = root
            while forest.feature[node] >= 0:
                go_left = row[forest.feature[node]] < forest.cut[node]
                node = forest.left[node] + (0 if go_left else 1)
            leaves[t, r] = node
    return leaves


# ---------------------------------------------------------------------------
# Tests.


def breadth_first(forest, root):
    """The nodes of the tree at ``root``, breadth-first, left child first."""
    queue = collections.deque([root])
    while queue:
        node = queue.popleft()
        yield node
        if forest.feature[node] >= 0:
            queue += [forest.left[node], forest.left[node] + 1]


def node_rows(forest, Z):
    """(training rows, level) of each node, routed down the flat arrays.

    Also checks the layout: a leaf's ``left`` is the leaf itself, a split
    node's right child is ``left + 1``, and walking every tree from its root
    reaches each node exactly once, from exactly one root.
    """
    assert not hasattr(forest, "right")  # derived as left + 1
    reach = [None] * len(forest.feature)
    level = np.zeros(len(forest.feature), dtype=int)
    for root in forest.roots:
        assert reach[root] is None
        reach[root] = np.arange(len(Z))
        for node in breadth_first(forest, root):
            feat, left = forest.feature[node], forest.left[node]
            if feat < 0:
                assert left == node
                continue
            right = left + 1
            assert reach[left] is None and reach[right] is None
            idx = reach[node]
            go_left = Z[idx, feat] < forest.cut[node]
            reach[left], reach[right] = idx[go_left], idx[~go_left]
            level[[left, right]] = level[node] + 1
    assert all(idx is not None for idx in reach)
    return reach, level


def tree_bits(forest):
    """Each tree's (feature, cut, value) bits, node by node breadth-first."""
    return [[(int(forest.feature[node]), float(forest.cut[node]).hex(),
              float(forest.value[node]).hex()) for node in breadth_first(forest, root)]
            for root in forest.roots]


@pytest.mark.parametrize("min_leaf", [1, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_forest_nodes_hold_their_rows(min_leaf, seed):
    Z, y, _ = design(seed)
    forest = _ExtraTrees(Z, y, ModelSpec("tree", min_leaf=min_leaf, n_estimators=25, seed=seed))
    reach, level = node_rows(forest, Z)
    for node, idx in enumerate(reach):
        feat = forest.feature[node]
        if feat < 0:
            assert len(idx) >= min_leaf
            assert forest.value[node] == pytest.approx(y[idx].mean(), rel=1e-12, abs=1e-15)
        else:
            assert len(idx) >= 2 * min_leaf
            assert Z[idx, feat].min() < forest.cut[node] <= Z[idx, feat].max()
            assert math.isnan(forest.value[node])
    assert forest.depth == level.max() + 1


def test_forest_retry_path_and_small_splits():
    # large leaves and a coarse column make draws fail; a node stops after 10
    # failed non-constant tries, so some leaf keeps 2 * min_leaf rows or more
    Z, y, _ = design(7, n=30)
    Z[:, 0] = np.round(Z[:, 0])
    for min_leaf in (2, 5, 6):
        forest = _ExtraTrees(Z, y, ModelSpec("tree", min_leaf=min_leaf, n_estimators=30, seed=3))
        reach, _ = node_rows(forest, Z)
        sizes = [len(idx) for node, idx in enumerate(reach) if forest.feature[node] < 0]
        assert min(sizes) >= min_leaf
        assert max(sizes) >= 2 * min_leaf


def test_forest_constant_target_and_columns():
    Z, _, Zq = design(2)
    y = np.full(len(Z), 0.25)
    spec = ModelSpec("tree", n_estimators=5, seed=1)
    forest = _ExtraTrees(Z, y, spec)
    assert np.array_equal(forest.feature, np.full(5, -1))
    assert np.array_equal(forest.predict(Zq), np.full(len(Zq), 0.25))
    Zc = np.ones((10, 2))
    yc = np.arange(10.0)
    forest = _ExtraTrees(Zc, yc, spec)
    assert np.array_equal(forest.value, np.full(5, 4.5))
    forest = _ExtraTrees(np.empty((10, 0)), yc, spec)  # no column at all
    assert np.array_equal(forest.feature, np.full(5, -1))
    assert np.array_equal(forest.predict(np.empty((3, 0))), np.full(3, 4.5))


def test_forest_duplicate_rows_become_leaves():
    # two distinct rows, each repeated, with a varying target: only columns 0
    # and 7 of 41 vary, so most draws hit constant columns; once a node holds
    # copies of one row it has no split at all and must end as a leaf.  Some
    # copies hold -0.0 where others hold 0.0: no draw can split them, so they
    # count as one row
    gen = np.random.default_rng(8)
    Z = np.zeros((40, 41))
    Z[20:, [0, 7]] = 1.0
    Z[::3, [5, 9]] = -0.0
    y = gen.normal(size=40)
    forest = _ExtraTrees(Z, y, ModelSpec("tree", n_estimators=50, seed=8))
    assert set(forest.feature.tolist()) <= {-1, 0, 7}
    for node, idx in enumerate(node_rows(forest, Z)[0]):
        if forest.feature[node] < 0:
            assert len(np.unique(Z[idx], axis=0)) == 1
            assert forest.value[node] == pytest.approx(y[idx].mean(), rel=1e-12)
    assert forest.depth == 2


def test_forest_root_draws_are_uniform():
    # with min_leaf 1 every draw on a varying column splits, so the root's
    # feature is uniform over the 5 varying columns (column 2 is constant)
    # and its cut is uniform within the column's range
    Z, y, _ = design(6)
    n_trees = 3000
    forest = _ExtraTrees(Z, y, ModelSpec("tree", n_estimators=n_trees, seed=6))
    feat = forest.feature[forest.roots]
    counts = np.bincount(feat, minlength=Z.shape[1])
    assert counts[2] == 0
    varying = np.delete(counts, 2)
    expected = n_trees / len(varying)
    chi2 = ((varying - expected) ** 2 / expected).sum()
    assert chi2 < 20.0  # 4 degrees of freedom: P(chi2 > 20) ~ 5e-4
    lo, hi = Z.min(axis=0)[feat], Z.max(axis=0)[feat]
    u = np.sort((forest.cut[forest.roots] - lo) / (hi - lo))
    grid = np.arange(1, n_trees + 1) / n_trees
    ks = max(np.abs(grid - u).max(), np.abs(grid - 1.0 / n_trees - u).max())
    assert ks < 0.04  # 1.63 / sqrt(3000) ~ 0.03 is the 1% critical value


def test_forest_same_for_any_split_into_blocks(monkeypatch):
    Z, y, Zq = design(5)
    spec = ModelSpec("tree", min_leaf=2, n_estimators=23, seed=5)
    real_blocks = rtm.learners._row_blocks
    per_tree = []
    monkeypatch.setattr(rtm.learners, "_row_blocks",
                        lambda n, size: per_tree.append(size) or real_blocks(n, size))
    whole = _ExtraTrees(Z, y, spec)
    assert len(real_blocks(23, per_tree[0])) == 1
    want = tree_bits(whole)
    assert len(want) == 23
    for trees_per_block in (1, 7):
        monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", trees_per_block * per_tree[0])
        blocks = [len(range(23)[trees]) for trees in real_blocks(23, per_tree[0])]
        assert blocks[0] == trees_per_block and len(blocks) == -(-23 // trees_per_block)
        forest = _ExtraTrees(Z, y, spec)
        assert tree_bits(forest) == want
        assert bits(forest.predict(Zq).tolist()) == bits(whole.predict(Zq).tolist())
        assert forest.depth == whole.depth


def test_forest_predict_is_mean_of_tree_walks(monkeypatch):
    Z, y, Zq = design(4)
    Zq = np.vstack([Zq, Z, Zq[:1]])
    forest = _ExtraTrees(Z, y, ModelSpec("tree", n_estimators=20, seed=4))
    total = np.zeros(len(Zq))
    for leaves in descend(forest, Zq):  # tree order, as a sequential sum
        total += forest.value[leaves]
    want = bits((total / len(forest.roots)).tolist())
    assert bits(forest.predict(Zq).tolist()) == want
    monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", 64 * 20 * 3)  # 3 query rows a block
    assert bits(forest.predict(Zq).tolist()) == want


def grower_case(case):
    """(Z, y) for the grower's reference tests.

    ``mixed``: ``design``'s continuous, tied, constant, duplicate and coarse
    columns, plus copies of rows, some holding -0.0 where the original holds
    0.0.  ``adjacent``: a column of two adjacent floats beside a constant
    one, so each root cut is the higher value, reached by rounding up or by
    ``nextafter``.
    """
    if case == "adjacent":
        hi = np.nextafter(1.0, 2.0)
        assert 1.0 + (hi - 1.0) * 0.75 == hi  # a draw with u > 1/2 rounds up to hi
        Z = np.column_stack([np.where(np.arange(30) % 2, 1.0, hi), np.full(30, 3.0)])
        return Z, np.random.default_rng(11).normal(size=30)
    Z, y, _ = design(9, n=40)
    Z[::3, 5] = 0.0
    copies = Z[:10].copy()
    copies[:, 5] = np.where(copies[:, 5] == 0.0, -0.0, copies[:, 5])
    Z = np.vstack([Z, copies, Z[20:25]])
    return Z, np.concatenate([y, y[:10] + 0.25, y[20:25]])


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("case", ["mixed", "adjacent"])
@pytest.mark.parametrize("min_leaf", range(1, 7))
def test_grower_equals_reference(case, min_leaf, monkeypatch):
    # Each block's level records are the reference's (node ids from 0), and
    # the forest's joined fields are the reference's records with each
    # block's ids after the earlier blocks', for blocks of 1, 7 and all trees.
    Z, y = grower_case(case)
    row_id = np.unique(Z, axis=0, return_inverse=True)[1].ravel()
    spec = ModelSpec("tree", min_leaf=min_leaf, n_estimators=23, seed=min_leaf)
    per_tree = 8 * len(y) * (3 * _DRAWS + 4)
    for trees_per_block in (1, 7, 23):
        monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", trees_per_block * per_tree)
        records, first = [], 0
        for trees in rtm.learners._row_blocks(23, per_tree):
            assert trees.stop - trees.start <= trees_per_block
            want = ref_grow_level_wise(Z, y, row_id, min_leaf, spec.seed, trees, first)
            got = _grow_level_wise(Z, y, row_id, min_leaf, spec.seed, trees)
            assert len(got) == len(want)
            for got_record, want_record in zip(got, want):
                assert_same_arrays(got_record[:3], want_record[:3])
                assert_same_arrays([got_record[3] + np.int32(first)], [want_record[3]])
            first += sum(len(record[0]) for record in want)
            records += want
        forest = _ExtraTrees(Z, y, spec)
        assert_same_arrays([forest.feature, forest.cut, forest.value, forest.left],
                           [np.concatenate(field) for field in zip(*records)])
    if case == "adjacent":
        assert (forest.feature[forest.roots] == 0).all()
        assert (forest.cut[forest.roots] == Z[:, 0].max()).all()


@pytest.mark.parametrize("seed", [0, 3])
def test_stump_scan_matches_scalar_reference(seed):
    Z, y, _ = design(seed)
    scan = _StumpScan(Z, y)
    gen = np.random.default_rng(seed + 10)
    for w in (np.full(len(y), 1.0 / len(y)), gen.random(len(y)), gen.random(len(y)) ** 8):
        w = w / w.sum()
        assert bits(scan.fit(w)) == bits(as_scanned(ref_fit_stump(Z, y, w)))
    uniform = np.full(len(y), 1.0 / len(y))
    yc = np.full(len(y), 1.5)
    assert bits(_StumpScan(Z, yc).fit(uniform)) == bits(as_scanned(ref_fit_stump(Z, yc, uniform)))
    Zc = np.ones_like(Z)  # no column has a split
    s = _StumpScan(Zc, y).fit(uniform)
    assert bits(s) == bits(as_scanned(ref_fit_stump(Zc, y, uniform)))
    assert s[:2] == (-1, math.inf)


def _mirrored_ties(seed, scale=1.0):
    """Ten rows; a column, its negation and its reverse; y near 1000.  The
    negated column's splits tie the column's in exact arithmetic, and each
    SSE is a difference of terms near 1e6, so rounding alone ranks them."""
    g = np.random.default_rng(seed)
    x = g.permutation(10).astype(float)
    Z = np.column_stack([x, -x, x[::-1]])
    y = (g.normal(size=10) + 1000.0) * scale
    w = g.random(10)
    return Z, y, w / w.sum()


# Seeds of _mirrored_ties where squaring by C pow picks another stump than
# squaring by product.
POW_DECIDES = (4181, 16174, 18951, 21141)


def test_stump_scan_matches_reference_where_squaring_decides():
    # On POW_DECIDES, C pow (``v**2`` on a numpy scalar) and the product pick
    # different stumps, and on the other seeds rounding alone ranks the tied
    # splits, so the scan must square by product as the reference does,
    # raising nothing on the way (2**-510 scales the squares to ~1e-301).
    for seed in POW_DECIDES:
        Z, y, w = _mirrored_ties(seed)
        powered = ref_fit_stump(Z, y, w, square=lambda v: v**2)
        assert bits(powered) != bits(ref_fit_stump(Z, y, w)), seed
    with np.errstate(all="raise"):
        for seed, scale in [(s, 1.0) for s in POW_DECIDES + tuple(range(200))] + [(3, 2.0**-510)]:
            Z, y, w = _mirrored_ties(seed, scale)
            s = _StumpScan(Z, y).fit(w)
            assert bits(s) == bits(as_scanned(ref_fit_stump(Z, y, w))), seed


def test_stump_scan_skips_zero_weight_sides():
    Z, y, _ = design(1)
    w = np.random.default_rng(2).random(len(y))
    w[Z[:, 0] > np.median(Z[:, 0])] = 0.0  # column 0 can isolate zero-weight rows
    w[:3] = 1e-30  # and rows whose weight the running sums lose
    w /= w.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        feature, cut, left_mean, right_mean = s = _StumpScan(Z, y).fit(w)
    assert bits(s) == bits(as_scanned(ref_fit_stump(Z, y, w)))
    left = Z[:, feature] <= cut
    assert w[left].sum() > 0.0 and w[~left].sum() > 0.0
    assert np.isfinite([left_mean, right_mean]).all()


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
    assert ([bits(s) for s in model.stumps.tolist()]
            == [bits(as_scanned(s)) for s in ref_stumps])
    assert bits(model.alphas.tolist()) == bits(ref_alphas)
    assert np.isfinite(model.stumps["left"]).all() and np.isfinite(model.stumps["right"]).all()
    assert np.isfinite(model.alphas).all()


def test_adaboost_fit_holds_no_array_per_split():
    # 20 rounds on a 5,000 x 87 design, 10 columns integer-valued: the scan
    # keeps each column's int32 sort, its targets in that order and one
    # boolean per split, and computes a cut only for each round's winner.
    # Holding each split's position, column and cut read 18.5x the design.
    g = np.random.default_rng(14)
    Z = g.normal(size=(5000, 87))
    Z[:, :10] = np.round(Z[:, :10])
    y = g.random(5000)
    spec = ModelSpec("ada", n_estimators=20)
    _AdaBoostR2(Z[:50], y[:50], spec)  # warm up: no one-time allocation in the peak
    model, peak = traced_peak(_AdaBoostR2, Z, y, spec)
    assert peak <= 16 * Z.nbytes
    assert len(model.stumps) == 20


def test_predictions_cross_row_blocks_unchanged(monkeypatch):
    Z, y, Zq = design(4)
    Zq = np.vstack([Zq, Z, Zq[:1]])  # 66 rows, a tie-heavy KNN query set
    knn = _Knn(Z, y, ModelSpec("knn", k=5))
    real_blocks = rtm.learners._row_blocks
    calls = []
    monkeypatch.setattr(rtm.learners, "_row_blocks",
                        lambda n, size: calls.append((n, size)) or real_blocks(n, size))
    # a query row's screen and its partitioned copy cost 16 bytes per
    # training row, held to a quarter of the budget: 7 query rows a block
    screen_row = 4 * 16 * len(Z)
    monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", screen_row * 7)
    assert bits(knn.predict(Zq).tolist()) == bits(ref_knn_predict(Z, y, 5, Zq).tolist())
    # predict's query blocks hold 8 bytes per neighbour to a sixteenth of
    # the budget (33 rows), and each is screened 7 rows at a time
    assert calls[0] == (66, 16 * 8 * 5)
    assert [n for n, size in calls if size == screen_row] == [33, 33]
    assert [len(range(33)[rows]) for rows in real_blocks(33, screen_row)] == [7] * 4 + [5]


@st.composite
def knn_cases(draw):
    """(training rows, query rows, k) with exact and near distance ties,
    columns scaled by 2**500 or 2**-500, and maybe a NaN cell."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, r = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    c = draw(st.sampled_from([1, 2, 3, 5, 9, 16, 87]))
    k = n if draw(st.booleans()) else draw(st.integers(1, n))
    # quarter steps: any two values differ by 0 or at least 1/4, so no
    # square of a 2**-500 column underflows
    A = gen.integers(-16, 17, size=(n, c)) / 4.0
    Z = gen.integers(-16, 17, size=(r, c)) / 4.0
    if draw(st.booleans()):
        A[:, 0], Z[:, 0] = gen.normal(size=n), gen.normal(size=r)
    if draw(st.booleans()):  # duplicate training rows, queried at distance 0
        A[gen.integers(0, n, n // 2)] = A[gen.integers(0, n, n // 2)]
        Z[: min(r, n)] = A[gen.integers(0, n, min(r, n))]
    if draw(st.booleans()) and n > 1:
        # near ties: a row one ulp from another, and a row mirrored across a
        # query, whose distance ties the first's before rounding
        i, j, *m = gen.choice(n, min(n, 3), replace=False)
        A[i, 0] = A[i, 0] or 0.25  # a step from 0 would be subnormal
        A[j] = A[i]
        A[j, 0] = np.nextafter(A[i, 0], np.inf)
        A[m] = 2 * Z[0] - A[i]
    scale = np.array([draw(st.sampled_from([1.0, 2.0**500, 2.0**-500])) for _ in range(c)])
    scale[0] = max(scale[0], 1.0)  # column 0's ulp steps stay normal when squared
    A, Z = A * scale, Z * scale
    nan = draw(st.sampled_from([None, "train", "query"]))
    if nan is not None:
        M = A if nan == "train" else Z
        M[gen.integers(0, len(M)), gen.integers(0, c)] = np.nan
    return A, Z, k, nan is None


@settings(max_examples=150, deadline=None)
@given(knn_cases(), st.sampled_from([1, 4096, 16 << 20]))
def test_knn_neighbours_equal_stable_argsort(case, block_bytes):
    # The screen and its bound may only narrow the candidates: the order is
    # the stable argsort of the exact distances, for any block size.
    A, Z, k, finite = case
    knn = _Knn(A, np.zeros(len(A)), ModelSpec("knn", k=k))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise" if finite else "ignore"):
        mp.setattr(rtm.learners, "_BLOCK_BYTES", block_bytes)
        want = ref_knn_neighbours(A, k, Z)
        got = knn.neighbours(Z, k)
    assert got.dtype == np.intp and got.tolist() == want.tolist()


def test_knn_distance_blocks_stay_within_budget():
    # 900 queries against 600 training rows of 87 columns: each block's
    # Gram screen and its partitioned copy are held to 4 MiB together (the
    # 16 MiB blocks before held ~16.5 MiB at their peak).
    gen = np.random.default_rng(8)
    knn = _Knn(gen.normal(size=(600, 87)), gen.random(600), ModelSpec("knn", k=5))
    Zq = gen.normal(size=(900, 87))
    _, peak = traced_peak(knn.predict, Zq)
    assert peak < 5 << 20


def test_knn_every_row_a_candidate_stays_within_budget():
    # At k == len(train) every training row is a candidate: the candidates
    # are taken in row groups sized by their count, and predict orders the
    # neighbours of one query block at a time (before: 18.4 MiB).
    gen = np.random.default_rng(8)
    knn = _Knn(gen.normal(size=(600, 87)), gen.random(600), ModelSpec("knn", k=600))
    Zq = gen.normal(size=(900, 87))
    pred, peak = traced_peak(knn.predict, Zq)
    assert peak < 5 << 20
    assert pred == pytest.approx(np.full(900, knn.y.mean()), rel=1e-12)


# ---------------------------------------------------------------------------
# Recursive feature elimination.


@pytest.mark.parametrize("case", ["random", "rank_two"])
def test_pls_equals_out_of_place_reference(case, monkeypatch):
    # In-place deflation by row blocks gives the reference's W, P and Q bit
    # for bit, early stop included (the rank-two design stops after two).
    g = np.random.default_rng(12)
    X = g.normal(size=(300, 12))
    if case == "rank_two":
        X[:, 2:] = np.arange(10.0)
    else:
        X[:, 9] = X[:, 0]
    y = X[:, 0] - 0.5 * X[:, 1] + g.normal(0.0, 0.1, 300)
    Z = Scaler(X).transform(X)
    monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", 16 * 8 * 12 * 70)  # 70 rows a block
    pls = PlsProjection(Z, y, 8)
    assert pls.n_components == (2 if case == "rank_two" else 8)
    assert_same_arrays([pls.W, pls.P, pls.Q], list(ref_pls(Z, y, 8)))


def test_pls_fit_holds_one_copy_of_the_design():
    # A 15,000 x 87 design: the fit copies it once and deflates the copy in
    # place, 1 MiB of outer product at a time.  Deflating out of place held
    # the design's copy, the outer product and the new copy at once (3.0x).
    g = np.random.default_rng(13)
    Z = g.normal(size=(15000, 87))
    Z[:, :10] = np.round(Z[:, :10])
    y = (Z[:, 0] > 0).astype(float)
    pls, peak = traced_peak(PlsProjection, Z, y, 8)
    assert peak <= 1.5 * Z.nbytes
    assert_same_arrays([pls.W, pls.P, pls.Q], list(ref_pls(Z, y, 8)))


@pytest.mark.parametrize("seed", range(6))
def test_rfe_path_equals_per_step_reference(seed):
    X, y = rfe_design(seed)
    path = _elimination_order(X, y, 1)
    assert path == ref_elimination_order(X, y, 1)
    assert len(set(path)) == 12
    assert_twins_drop_higher_first(X, path)
    # the path to m' is a prefix of the path to any m < m'
    for m in (2, 5, 12, 13):
        assert _elimination_order(X, y, m) == path[: 13 - m], m


def test_rfe_constant_target_drops_from_the_last_column():
    # every coefficient is 0, so all tie and each step drops the highest index
    X, _ = rfe_design(1)
    assert _elimination_order(X, np.full(len(X), 2.0), 3) == list(range(12, 2, -1))


def test_rfe_refuses_m_outside_the_columns():
    X, y = rfe_design(2)
    for m in (0, 14):
        with pytest.raises(ValueError, match=r"m must be in \[1, 13\]"):
            _elimination_order(X, y, m)



# ---------------------------------------------------------------------------
# Stacked out-of-fold fits.


def stack_sides(n, seed=0):
    """Two sides of ``n`` instances with an integer-valued column and a
    column both sides share, and their gold."""
    gen = np.random.default_rng(seed)
    a, b = gen.normal(size=(2, n, N_FEATURES))
    a[:, 0], b[:, 0] = np.round(3 * a[:, 0]), np.round(3 * b[:, 0])
    b[:, 7] = a[:, 7]
    return a, b, a[:, 1] - b[:, 2] + gen.normal(0.0, 0.1, n)


STACK_BASES = {"rr1": ModelSpec("rr", alpha=1.0), "rr0": ModelSpec("rr", alpha=0.0),
               "knn5": ModelSpec("knn", k=5), "const": ModelSpec("const")}
TRAIN_STACK = {"combined": train_combined_stack_matrices,
               "separate": train_separate_stack_matrices}


@pytest.mark.parametrize("n", [42, 300])
@pytest.mark.parametrize("mode", list(TRAIN_STACK))
@pytest.mark.parametrize("base", list(STACK_BASES))
def test_stack_equals_copying_oof_reference(base, mode, n, monkeypatch):
    # The fold shares' base fits give the pickled stack of per-fold copies
    # byte for byte: base models, final model, CV table and audit records.
    a, b, gold = stack_sides(n)
    cfg = StackConfig(base_spec=STACK_BASES[base], top_k=2, folds=7, seed=5,
                      final_specs=(ModelSpec("rr", alpha=1.0), ModelSpec("knn", k=3)))
    model = TRAIN_STACK[mode](a, b, gold, cfg)
    monkeypatch.setattr(rtm.stacking, "_oof_group", ref_oof_group)
    want = TRAIN_STACK[mode](a, b, gold, cfg)
    assert len(model.oof_audit) == 7 * (1 if mode == "combined" else 2)
    assert pickle.dumps(model) == pickle.dumps(want)
    qa, qb, _ = stack_sides(30, seed=1)
    assert (bits(predict_stack_matrices(model, qa, qb).tolist())
            == bits(predict_stack_matrices(want, qa, qb).tolist()))


def test_combined_oof_holds_no_copy_of_a_fold():
    # 5000 instances x 41 columns a side, 7 folds: each fold's training rows
    # are gathered once, into the base fit's design, and one fold share lives
    # at a time (12.4 MiB).  Copying them out of the stacked rows first, then
    # again inside a share-less fit, held 13.8 MiB.
    a, b, gold = stack_sides(5000)
    cfg = StackConfig(base_spec=ModelSpec("rr", alpha=1.0), folds=7, seed=0)
    # warm up first, so the peak holds no one-time allocation of a first call
    _oof_group("combined", (a[:50], b[:50]), 0, gold[:50], fold_indices(50, 7, 0), cfg, [])
    folds = fold_indices(len(gold), cfg.folds, cfg.seed)
    (_, oof), peak = traced_peak(_oof_group, "combined", (a, b), 0, gold, folds, cfg, [])
    assert peak < 13 * 2**20
    assert len(oof) == 2 and all(side.shape == (5000,) for side in oof)
