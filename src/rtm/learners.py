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


def _count_blocks(counts, bytes_per_item: int):
    """Slices of consecutive rows, row ``i`` holding ``counts[i]`` items, each
    slice's items within the block byte budget (a row over it is alone)."""
    cap = max(1, _BLOCK_BYTES // max(1, bytes_per_item))
    ends = np.cumsum(counts)
    blocks, start = [], 0
    while start < len(ends):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + cap, side="right")))
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff of float64."""
    mu = m * np.finfo(float).eps / 2
    return mu / (1 - mu)


class _Knn:
    """k nearest neighbours by squared Euclidean distance.

    ``neighbours`` screens with the Gram form ``|b|^2 + |a|^2 - 2 b.a`` (one
    matrix product a block) and keeps as candidates the training rows whose
    screened distance lies within a rounding bound of the row's k-th
    screened value.  Only the candidates' distances are computed exactly, as
    the sum of squared differences along the column axis; a sort by
    (distance, index) of those gives the stable order of all distances:
    ties to the lower training index, NaN last.
    """

    def __init__(self, Z, y, spec):
        self.Z = Z
        self.y = np.asarray(y, dtype=float)
        self.k = min(spec.k, len(y))

    def neighbours(self, Z, k):
        """Each query row's ``k`` nearest training rows, nearest first."""
        A = self.Z
        n, c = A.shape
        nearest = np.empty((len(Z), k), dtype=np.intp)
        # With b.b, a.a and b.a each within gamma_c of exact (Higham 2002,
        # section 3.1; any summation order) and two rounded additions, a
        # screened value is within gamma_{c+2} (|b| + |a|)^2 of the exact
        # distance; so is the exact sum (one rounded difference, square and
        # c - 1 additions per column).  A row more than twice their sum past
        # the k-th screened value therefore has k rows strictly nearer.
        # ``reach`` doubles that again for the rounding of the bound itself,
        # and its absolute term covers products lost to underflow.  The
        # screen only picks candidates, so its overflow, underflow and
        # inf - inf are ignored: a row with a non-finite screened value or
        # bound takes every training row, and any floating-point error is
        # raised by the exact sums below under the caller's errstate.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            a2 = np.einsum("ij,ij->i", A, A)
            a_max = np.sqrt(a2.max())
        # A block's screen and its partitioned copy, 8n bytes a row each,
        # are held to a quarter of the budget (4 MiB) together.
        for rows in _row_blocks(len(Z), 4 * 16 * n):
            B = Z[rows]
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                b2 = np.einsum("ij,ij->i", B, B)
                screen = B @ A.T
                screen *= -2.0
                screen += b2[:, None]
                screen += a2
                reach = (8 * _gamma(c + 4) * (np.sqrt(b2) + a_max) ** 2
                         + 8 * (c + 1) * np.finfo(float).smallest_subnormal)
                limit = np.partition(screen, k - 1, axis=1)[:, k - 1] + reach
                every = ~(np.isfinite(limit) & np.isfinite(screen).all(axis=1))
                candidate = (screen <= limit[:, None]) | every[:, None]
            del screen
            # Row groups sized by their candidate counts hold the candidates'
            # indices, distances and order (at most 64 bytes a candidate at
            # once) to 2 MiB and two (candidates, columns) temporaries to
            # another 2 MiB, so this phase stays within the screen's 4 MiB.
            out = nearest[rows]
            for group in _count_blocks(candidate.sum(axis=1), 8 * 64):
                qi, ti = np.nonzero(candidate[group])
                d2 = np.empty(len(qi))
                for part in _row_blocks(len(qi), 8 * 16 * c):
                    diff = B[group][qi[part]]
                    diff -= A[ti[part]]
                    d2[part] = np.square(diff, out=diff).sum(axis=1)
                del diff
                # nonzero lists each row's candidates by index and lexsort is
                # stable, so equal distances keep the lower training index first
                ranked = ti[np.lexsort((d2, qi))]
                starts = np.searchsorted(qi, np.arange(group.stop - group.start))
                out[group] = ranked[starts[:, None] + np.arange(k)]
            del candidate  # before the next block's screen
        return nearest

    def average(self, nearest):
        """Mean target of the first ``k`` columns of a neighbour order."""
        return self.y[nearest[:, : self.k]].mean(axis=1)

    def predict(self, Z):
        pred = np.empty(len(Z))
        # query blocks hold each neighbour order to a sixteenth of the budget
        for rows in _row_blocks(len(Z), 16 * 8 * self.k):
            pred[rows] = self.average(self.neighbours(Z[rows], self.k))
        return pred


class _Const:
    def __init__(self, Z, y, spec):
        self.value = float(np.mean(y))

    def predict(self, Z):
        return np.full(len(Z), self.value)


_DRAWS = 2  # (feature, cut) draws a node gets in its first search round
_TRIES = 10  # non-constant draws a node may try before it becomes a leaf


def _keyed(h, v):
    """A SplitMix64 step (Steele, Lea & Flood, OOPSLA 2014) folding ``v`` into
    the uint64 hash ``h``; vectorized, and a pure function of its inputs."""
    z = (h ^ np.asarray(v, dtype=np.uint64)) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _starts(counts):
    """Offsets of consecutive segments of the given lengths."""
    return np.concatenate(([0], np.cumsum(counts[:-1])))


def _draw_splits(Z, rows, counts, keys, min_leaf):
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
    flat = Z.ravel()
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
        at = feat.take(row_node, axis=1)
        at += rows * d
        vals = flat.take(at)
        del at
        lo = np.minimum.reduceat(vals, starts, axis=1)
        hi = np.maximum.reduceat(vals, starts, axis=1)
        c = lo + (hi - lo) * u
        c = np.where(c <= lo, np.nextafter(lo, hi), c)
        if min_leaf == 1:
            # a cut is above its node's lowest value, which goes left, so the
            # draw splits exactly when the highest value goes right
            fits = c <= hi
        else:
            n_left = np.add.reduceat(vals < c.take(row_node, axis=1), starts, axis=1,
                                     dtype=np.intp)
            fits = (n_left >= min_leaf) & (n_left <= counts - min_leaf)
        del vals
        varies = hi > lo
        ok = varies & (tries[live] + np.cumsum(varies, axis=0) <= _TRIES) & fits
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


def _grow_level_wise(Z, y, row_id, min_leaf, seed, trees):
    """Grow the given trees together, one level per step.

    ``row_id`` numbers the distinct rows of ``Z``; a node whose rows all have
    one id has no split and is a leaf, as is a node whose target is constant.

    Each open node is a segment of one row-index array, and every draw is
    keyed by (seed, tree, level, the node's position in its tree's level),
    so a tree comes out the same whichever trees grow beside it.  Returns a
    ``(feature, cut, value, left)`` record per level.  Node ids count from 0
    level by level, each level in (tree, position) order.  A split node's
    right child is ``left + 1``; a leaf is its own ``left``.  Features and
    node ids are int32, so the levels' records add little to a later level's
    draws.

    A level step holds the open rows and their node numbers (8 bytes a row
    each) and, one at a time, the rows' targets and ids for the node stats,
    the split search's (draw, row) values and flat indices, and the
    partition's values, sides and sort order; the search reads the open rows
    themselves when every node searches.
    """
    n, d = len(y), Z.shape[1]
    flat = Z.ravel()
    min_rows = max(2, 2 * min_leaf)  # a node splits only if both children can hold min_leaf
    tree = np.arange(trees.start, trees.stop)
    pos = np.zeros(len(tree), dtype=np.intp)
    counts = np.full(len(tree), n)
    rows = np.tile(np.arange(n), len(tree))
    seed_key = np.uint64(seed % (1 << 64))
    levels, first = [], 0
    while tree.size:
        level = len(levels)
        starts = _starts(counts)
        yr = y[rows]
        constant = np.minimum.reduceat(yr, starts) == np.maximum.reduceat(yr, starts)
        value = np.add.reduceat(yr, starts) / counts
        del yr
        ids = row_id[rows]
        one_row = np.minimum.reduceat(ids, starts) == np.maximum.reduceat(ids, starts)
        del ids
        searching = (counts >= min_rows) & ~constant & ~one_row
        search = np.flatnonzero(searching)
        row_node = np.repeat(np.arange(len(counts)), counts)
        feature = np.full(len(counts), -1, dtype=np.int32)
        cut = np.full(len(counts), math.inf)
        if search.size:
            keys = _keyed(_keyed(_keyed(seed_key, tree[search]), level), pos[search])
            feature[search], cut[search] = _draw_splits(
                Z, rows if search.size == len(counts) else rows[searching[row_node]],
                counts[search], keys, min_leaf)
        split = np.flatnonzero(feature >= 0)
        value[split] = math.nan
        left = np.arange(first, first + len(counts), dtype=np.int32)
        first += len(counts)
        left[split] = first + 2 * np.arange(split.size)
        levels.append((feature, cut, value, left))
        # the rows of the split nodes, each node's left side then its right side
        sub = feature.take(row_node) >= 0
        rows, row_node = rows[sub], row_node[sub]
        del sub
        at = rows * d
        at += feature.take(row_node)
        right = ~(flat.take(at) < cut.take(row_node))
        del at
        order = np.argsort(2 * row_node + right, kind="stable")
        rows = rows[order]
        del order
        n_left = np.bincount(row_node[~right], minlength=len(counts))[split]
        del row_node, right
        counts = np.column_stack([n_left, counts[split] - n_left]).ravel()
        tree = np.repeat(tree[split], 2)
        rank = np.arange(split.size) - np.searchsorted(tree[::2], tree[::2])
        pos = (2 * rank[:, None] + np.arange(2)).ravel()
    return levels


def _joined(records):
    """The ``(feature, cut, value, left)`` records' fields, each joined into
    one array.  ``records`` is emptied, so each field's parts are freed once
    it is joined: the join holds one joined field beyond the records."""
    if len(records) == 1:
        return records.pop()
    fields = [list(f) for f in zip(*records)]
    records.clear()
    return tuple(np.concatenate(fields.pop(0)) for _ in range(4))


def _forest_blocks(Z, y, spec):
    """Grow the forest of ``spec`` one block of trees at a time.

    Yields each block's tree count, depth and joined ``(feature, cut, value,
    left)`` node fields, node ids counting from 0 in every block.  A block
    keeps each level's working set within ``_BLOCK_BYTES``; the keyed draws
    make the trees the same for any split into blocks.
    """
    Z = np.ascontiguousarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    # -0.0 and 0.0 are one row here, as they are to a column's min and max
    row_id = (np.unique(Z, axis=0, return_inverse=True)[1].ravel() if Z.shape[1]
              else np.zeros(len(y), dtype=np.intp))
    # per tree and level: row indices, node ids, sides, keys, and the
    # columns, values and cuts of _DRAWS candidates
    for trees in _row_blocks(spec.n_estimators, 8 * len(y) * (3 * _DRAWS + 4)):
        levels = _grow_level_wise(Z, y, row_id, spec.min_leaf, spec.seed, trees)
        depth = len(levels)
        yield trees.stop - trees.start, depth, _joined(levels)


class _ExtraTrees:
    """Totally randomized trees: uniform random feature, uniform random cut.

    All trees live in one set of flat node arrays (``feature``, ``cut``,
    ``value``, ``left``), tree ``t`` rooted at ``roots[t]``; node ids and
    features are int32.  A row goes to ``left`` when ``row[feature] < cut``
    and to ``left + 1`` otherwise.  A leaf has ``feature == -1`` and is its
    own ``left``.  The trees grow in blocks (``_forest_blocks``) whose level
    steps each hold the working set ``_grow_level_wise`` describes; the
    forest joins the blocks' fields one field at a time.  A CV fold holds at
    most one block of a forest: its ``_FoldForest`` scores each block as a
    forest of its own (``of_block``) and drops it.
    """

    def __init__(self, Z, y, spec):
        self._join(_forest_blocks(Z, y, spec))

    @classmethod
    def of_block(cls, block):
        """The forest of one block that ``_forest_blocks`` yields."""
        forest = cls.__new__(cls)
        forest._join([block])
        return forest

    def _join(self, blocks):
        records, roots, self.depth, first = [], [], 0, 0
        for n_trees, depth, block in blocks:
            np.add(block[3], first, out=block[3])  # its ids follow the earlier blocks'
            roots.append(np.arange(first, first + n_trees, dtype=np.int32))
            self.depth = max(self.depth, depth)
            first += len(block[0])
            records.append(block)
            del block  # so the join below frees each field's parts
        self.roots = np.concatenate(roots)
        self.feature, self.cut, self.value, self.left = _joined(records)

    def predict(self, Z):
        Z = np.ascontiguousarray(Z, dtype=float)
        return self.add_leaf_values(Z, np.zeros(len(Z))) / len(self.roots)

    def add_leaf_values(self, Z, total):
        """Add to ``total`` each row's leaf value in every tree, in tree
        order (a sequential sum); ``Z`` is C-contiguous float64."""
        n_trees = len(self.roots)
        flat = Z.ravel()
        for rows in _row_blocks(len(Z), 64 * n_trees):
            # (tree, row) positions descend all trees at once, one level a step
            offsets = np.arange(rows.start, rows.stop)[None, :] * Z.shape[1]
            # node ids are cast to intp once a level: numpy casts an int32
            # index array on every lookup, and each level makes three
            node = np.repeat(self.roots[:, None], offsets.shape[1], axis=1).astype(np.intp)
            for _ in range(self.depth - 1):
                feature = self.feature[node]
                go_right = ~(flat[offsets + feature] < self.cut[node]) & (feature >= 0)
                node = (self.left[node] + go_right).astype(np.intp)
            leaf = self.value[node]
            for t in range(n_trees):  # tree order, as a sequential sum
                total[rows] += leaf[t]
        return total


class _FoldForest:
    """The forest a CV fold scores its held-out rows with, never stored.

    ``predict`` grows the forest one block at a time, adds each block's leaf
    values to the rows' running totals in tree order (the sum
    ``_ExtraTrees.predict`` makes, so the bits are its) and drops the block
    before the next one grows; it holds the training rows and at most one
    block of trees.
    """

    def __init__(self, Z, y, spec):
        self._Z, self._y, self._spec = Z, y, spec

    def predict(self, Z):
        Z = np.ascontiguousarray(Z, dtype=float)
        total = np.zeros(len(Z))
        for block in _forest_blocks(self._Z, self._y, self._spec):
            _ExtraTrees.of_block(block).add_leaf_values(Z, total)
            del block  # before the next block grows
        return total / self._spec.n_estimators


class _StumpScan:
    """Weighted least-squares depth-1 stumps over columns presorted once.

    ``fit(w)`` scans every split between distinct sorted values of every
    column, feature by feature and left to right, and keeps a split only if
    both sides carry weight and its SSE beats the best so far by more than
    1e-15.  The scan holds, for the columns that have a split, each one's
    stable argsort ``order`` (int32 while it fits), the targets in that
    order and the (column, rank) grid ``gaps`` of the ranks a split follows;
    no array with one entry per split.  The running sums run along each
    sorted column, so each split's sums and SSE are the ones a per-column
    scalar scan computes; every square is a product ``x * x``.  Only the
    winning split's cut is computed, from the design ``Z`` the scan keeps.
    """

    def __init__(self, Z, y):
        self.Z, self.y = Z, y
        order = np.argsort(Z.T, axis=1, kind="stable")  # (feature, rank)
        zs = np.take_along_axis(Z.T, order, axis=1)
        gaps = np.zeros(zs.shape, dtype=bool)  # none follows the last rank
        np.less(zs[:, :-1], zs[:, 1:], out=gaps[:, :-1])
        del zs
        self.columns = np.flatnonzero(gaps.any(axis=1))
        self.gaps = gaps[self.columns]
        self.order = order[self.columns].astype(np.int32 if len(y) < 2**31 else np.intp)
        self.ys = y[self.order]

    def fit(self, w):
        """(feature, cut, left, right) of the best stump under weights ``w``;
        the constant stump, which splits nothing, is ``(-1, inf, mean, mean)``."""
        y = self.y
        total_w = w.sum()
        total_wy = (w * y).sum()
        mean = float(total_wy / total_w)  # np.average's quotient
        best_sse = (w * y * y).sum() - total_wy * total_wy / total_w
        # Boosting can drive weights to exactly 0, and a side without weight
        # has no mean (Drucker, ICML 1997), so such splits are never candidates.
        # Each side's sums are differences of one column's running sums: a
        # side of zero weights sums to exactly 0, and so does one whose weight
        # is lost to rounding, so no kept split divides by 0.  The right
        # side's weight, the column's last running sum minus ``c``, is > 0
        # exactly where ``c`` is below that last sum.
        wv, sides = np.take(w, self.order), []
        for power in range(3):  # the running sums of w, w*y and w*y*y
            if power:
                wv *= self.ys
            c = np.cumsum(wv, axis=1)
            if power == 0:  # the candidates, as flat (column, rank) positions
                live = np.flatnonzero(self.gaps & (c > 0.0) & (c < c[:, -1:]))
                column = live // c.shape[1]  # each candidate's row of the grid
            left = c.take(live)
            sides.append((left, c[:, -1].take(column) - left))
        del wv, c, left, column
        (lw, rw), (lwy, rwy), (lwyy, rwyy) = sides
        sse = (lwyy - lwy * lwy / lw) + (rwyy - rwy * rwy / rw)
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
        if k < 0:
            return -1, math.inf, mean, mean
        f, s = divmod(int(live[k]), self.gaps.shape[1])
        j, (a, b) = int(self.columns[f]), self.order[f, s : s + 2]
        cut = float((self.Z[a, j] + self.Z[b, j]) / 2.0)
        return j, cut, float(lwy[k] / lw[k]), float(rwy[k] / rw[k])


# one fitted AdaBoost.R2 round; a constant stump has feature -1 and cut inf
_STUMP = np.dtype([("feature", np.intp), ("cut", float), ("left", float), ("right", float)])


class _AdaBoostR2:
    """Drucker's AdaBoost.R2 with exponential loss and weighted-median output.

    ``stumps`` holds the fitted rounds as one ``_STUMP`` table and ``alphas``
    their weights."""

    def __init__(self, Z, y, spec):
        y = np.asarray(y, dtype=float)
        n = len(y)
        w = np.full(n, 1.0 / n)
        stumps, alphas = [], []
        scan = _StumpScan(Z, y)
        for _ in range(spec.n_estimators):
            stump = feature, cut, left, right = scan.fit(w)
            pred = np.where(Z[:, feature] <= cut, left, right) if feature >= 0 else left
            err = np.abs(pred - y)
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
            alphas.append(math.log(1.0 / beta))
            w = w * beta ** (1.0 - loss)
            w /= w.sum()
        self.stumps = np.array(stumps, dtype=_STUMP)
        self.alphas = np.array(alphas)

    def predict(self, Z):
        s = self.stumps
        x = np.zeros((len(s), len(Z)))  # a constant stump reads no column
        split = s["feature"] >= 0
        x[split] = Z.T[s["feature"][split]]
        preds = np.where(x <= s["cut"][:, None], s["left"][:, None], s["right"][:, None])
        order = np.argsort(preds, axis=0, kind="stable")  # (round, row)
        cum = np.cumsum(self.alphas[order], axis=0)
        pick = np.argmax(cum >= 0.5 * self.alphas.sum(), axis=0)
        cols = np.arange(preds.shape[1])
        return preds[order[pick, cols], cols]


_INNER = {"rr": _Ridge, "knn": _Knn, "tree": _ExtraTrees, "ada": _AdaBoostR2, "const": _Const}


# ---------------------------------------------------------------------------
# Preprocessing.


# RFE ties: |coefficients| within this fraction of the largest one of the
# smallest.  Different exact formulations of one step (per-step rescaling, a
# Gram-block solve, the downdate below) read up to 2.7e-11 of the largest
# apart on the synthetic workloads, up to 4000 training rows; the smallest
# gap between coefficients there was 3.9e-7 of it.  So columns equal in
# exact arithmetic tie, and rounding cannot pick which one goes.
RFE_TIE = 1e-9


def _elimination_order(X: np.ndarray, y: np.ndarray, m: int) -> list[int]:
    """The columns recursive feature elimination drops, in order, until ``m``
    are left.

    Each step fits ridge (alpha 1) on the standardized remaining columns and
    drops the one with the smallest absolute coefficient; the columns whose
    ``|c|`` lies within ``RFE_TIE * max|c|`` of the smallest are tied, and
    the highest index among them is dropped.  No step depends on ``m``, so
    the first ``d - m'`` drops of this path are the whole path down to any
    ``m' >= m``.

    A column's standardization does not depend on the others, so the full
    design is scaled once.  ``H = inv(A)``, ``A = Z'Z + I``, and the
    coefficients ``c = H b``, ``b = Z'(y - mean y)``, are computed once too.
    Dropping column ``j`` turns them into those of the remaining columns by
    one rank-1 downdate (the inverse of a principal submatrix; ``H[j, j] > 0``
    because ``A`` is positive definite), after which ``j``'s rows, columns
    and entries are 0, so it drops out of every product.  One step of
    iterative refinement a drop keeps ``c`` as close to a direct solve as
    rounding allows, where the downdates alone would drift.
    """
    d = X.shape[1]
    if not 1 <= m <= d:
        raise ValueError(f"m must be in [1, {d}]")
    Z = Scaler(X).transform(X)
    A = Z.T @ Z + np.eye(d)
    b = Z.T @ (y - y.mean())
    H = np.linalg.inv(A)
    c = H @ b
    kept = np.ones(d, dtype=bool)
    dropped = []
    for _ in range(d - m):
        c += H @ (b - A @ c)
        a = np.where(kept, np.abs(c), np.inf)
        j = int(np.flatnonzero(a <= a.min() + RFE_TIE * np.abs(c).max())[-1])
        h = H[:, j] / H[j, j]
        c -= h * c[j]
        H -= np.outer(h, H[j])
        H[j], H[:, j], A[j], A[:, j], b[j], c[j] = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        kept[j] = False
        dropped.append(j)
    return dropped


def select_features(X: np.ndarray, y: np.ndarray, m: int) -> tuple[int, ...]:
    """Recursive feature elimination down to ``m`` columns, in column order."""
    X = np.asarray(X, dtype=float)
    dropped = set(_elimination_order(X, np.asarray(y, dtype=float), m))
    return tuple(j for j in range(X.shape[1]) if j not in dropped)


def _deflate(Xk: np.ndarray, t: np.ndarray, p: np.ndarray) -> None:
    """``Xk -= np.outer(t, p)`` in place, one row block at a time, each
    block's outer product held to a sixteenth of the budget (1 MiB)."""
    for rows in _row_blocks(len(Xk), 16 * 8 * Xk.shape[1]):
        Xk[rows] -= np.outer(t[rows], p)


class PlsProjection:
    """NIPALS PLS1: sequence of weight/loading vectors on standardized X.

    Fitting and ``transform`` each copy the design once and deflate the copy
    in place (``_deflate``), which gives the bits of ``Xk - outer(t, p)``.
    """

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
            _deflate(Xk, t, p)
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

    def prefix(self, k: int) -> PlsProjection:
        """The first ``k`` components, which are the ``k``-component fit bit
        for bit: NIPALS extracts one component at a time, early stop
        included.  Each array is a contiguous copy, so a column has the
        stride a direct fit gives it (a BLAS kernel may sum differently for
        another stride)."""
        if k < 1:
            raise ValueError("n_components must be >= 1")
        head = object.__new__(PlsProjection)
        head.y_mean = self.y_mean
        head.W, head.P = (np.ascontiguousarray(M[:, :k]) for M in (self.W, self.P))
        head.Q = self.Q[:k].copy()
        return head

    def transform(self, Z: np.ndarray) -> np.ndarray:
        Zk = np.array(Z, dtype=float)
        scores = np.empty((len(Zk), self.n_components))
        for k in range(self.n_components):
            t = Zk @ self.W[:, k]
            scores[:, k] = t
            _deflate(Zk, t, self.P[:, k])
        return scores

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Regression through the projection: y_mean + scores @ q."""
        return self.y_mean + self.transform(Z) @ self.Q


# ---------------------------------------------------------------------------
# The trained-model wrapper.


class _Share:
    """What the fits of several specs on the same rows have in common.

    A share holds the whole ``X`` and ``y`` and the indices of its training
    rows and, for a CV fold, of its held-out rows; it copies no rows.  A
    fold's rows are gathered only inside the work that needs them.  Each
    piece below is built on first use and kept while the share lives (one
    fold of a ``grid_search`` or of a stack's base model, one top-k refit, or one fit):

    * the RFE elimination path, run once down to the fewest columns any spec
      keeps: ``select_features`` always ranks with alpha-1 ridge, so the path
      to 8 columns passes through the 16-column selection;
    * one NIPALS PLS per column selection, fitted to the most components any
      spec asks for; ``PlsProjection.prefix`` gives each spec its first
      components;
    * with held-out rows, the first ``max k`` columns of their stable
      neighbour order under each KNN design, whose ``[:, :k]`` prefix is the
      order for every ``k``;
    * without held-out rows (a top-k refit or one fit), the scaler and
      scaled design of each column selection, so members on one selection
      share one array.  A CV fold rebuilds them inside each fit, which gives
      the same bits and holds one fold's design at a time.

    So every piece is bit for bit the one a fit of one spec on the gathered
    rows computes.  The share holds index prefixes, never distance matrices.
    Nor does a CV fold store a forest: a tree spec fitted on it gets a
    ``_FoldForest``, which grows the forest one block at a time and scores
    the held-out rows as it goes, so a fold holds at most one block of it.
    """

    def __init__(self, specs, X, y, train=None, test=None):
        self.X, self.y, self.train, self.test = X, y, train, test
        self.y_train = y if train is None else y[train]
        d = X.shape[1]
        self._fewest = min((min(s.n_features, d) for s in specs if s.n_features is not None),
                           default=d)
        self._most_components = max(
            (s.n_components for s in specs if s.n_components is not None), default=1)
        self._most_k = min(max((s.k for s in specs if s.kind == "knn"), default=1),
                           len(self.y_train))
        self._dropped = None  # the RFE path: columns in the order dropped
        self._designs, self._pls, self._nearest = {}, {}, {}

    def _gather(self, rows, selected=None) -> np.ndarray:
        """A new array of ``X``'s ``rows`` (None: all) and ``selected`` columns."""
        if rows is None:
            return self.X.copy() if selected is None else self.X[:, selected]
        if selected is None:
            return self.X[rows]
        # the column-major layout of ``X[rows][:, selected]``, whose sums the
        # scaler's must equal, without its copy of the rows
        return self.X.T[np.ix_(selected, rows)].T

    def selection(self, n_features: int | None) -> tuple[int, ...] | None:
        if n_features is None:
            return None
        if self._dropped is None:
            self._dropped = _elimination_order(self._gather(self.train), self.y_train,
                                               self._fewest)
        d = self.X.shape[1]
        # clamp so grid presets written for the full manifest stay valid
        dropped = set(self._dropped[: d - min(n_features, d)])
        return tuple(j for j in range(d) if j not in dropped)

    def design(self, selected):
        """(scaler, scaled training design) of a column selection."""
        if selected in self._designs:
            return self._designs[selected]
        Z = self._gather(self.train, selected)
        scaler = Scaler(Z)
        Z -= scaler.mean_  # in place: the bits of ``scaler.transform``
        Z /= scaler.std_
        if self.test is None:
            Z.flags.writeable = False  # shared by every spec on this selection
            self._designs[selected] = scaler, Z
        return scaler, Z

    def pls(self, selected, n_components: int | None, Z) -> PlsProjection | None:
        """The ``n_components`` prefix of the selection's PLS, fitted on its
        scaled design ``Z`` on first use."""
        if n_components is None:
            return None
        if selected not in self._pls:
            self._pls[selected] = PlsProjection(Z, self.y_train, self._most_components)
        return self._pls[selected].prefix(n_components)

    def held_out_predictions(self, model: TrainedModel) -> np.ndarray:
        """The model's predictions for the held-out rows; KNN reads the
        shared neighbour order."""
        if model.spec.kind != "knn":
            return model.predict(self._gather(self.test))
        key = (model.selected, model.spec.n_components)
        if key not in self._nearest:
            self._nearest[key] = model.inner.neighbours(model._design(self._gather(self.test)),
                                                        self._most_k)
        return model.inner.average(self._nearest[key])


class TrainedModel:
    """A fitted spec: scaler + optional FS/PLS + the inner learner.

    ``share``, built on the same ``X`` and ``y`` for a set of specs holding
    this one, supplies the training rows and the preprocessing; without one
    the model fits all rows and builds its own.
    """

    def __init__(self, spec: ModelSpec, X: np.ndarray, y: np.ndarray,
                 share: _Share | None = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-d with one row per target")
        if share is None:
            share = _Share([spec], X, y)
        if len(share.y_train) < 2:
            raise ValueError("need at least 2 training rows")
        self.spec = spec
        self.n_features_in = X.shape[1]
        self.selected = share.selection(spec.n_features)
        self.scaler, Z = share.design(self.selected)
        self.pls = share.pls(self.selected, spec.n_components, Z)
        if self.pls is not None:
            Z = self.pls.transform(Z)
        cv_forest = spec.kind == "tree" and share.test is not None
        self.inner = (_FoldForest if cv_forest else _INNER[spec.kind])(Z, share.y_train, spec)

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


def fit_model(spec: ModelSpec, X, y, share: _Share | None = None) -> TrainedModel:
    return TrainedModel(spec, X, y, share)


# ---------------------------------------------------------------------------
# Cross-validation, grid search, top-k averaging.


def fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then contiguous split; fold sizes differ by at most 1."""
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}]")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def _fold_shares(specs, X, y, folds: int, seed: int) -> list[_Share]:
    """One share per fold: its training and held-out row indices into ``X``."""
    parts = fold_indices(len(y), folds, seed)
    return [_Share(specs, X, y, np.concatenate(parts[:i] + parts[i + 1:]), test)
            for i, test in enumerate(parts)]


def held_out(spec: ModelSpec, shares):
    """Yield each fold share of ``shares`` with the held-out predictions of
    ``spec`` fitted on the share's training rows."""
    for share in shares:
        model = fit_model(spec, share.X, share.y, share)
        predictions = share.held_out_predictions(model)
        del model  # so the next fold's fit grows without this one beside it
        yield share, predictions


def cross_validate(
    spec: ModelSpec, X, y, folds: int = 7, seed: int = 0, shares: list[_Share] | None = None
) -> tuple[float, list[float]]:
    """Mean held-out MAE over a seeded contiguous fold split.

    ``shares`` are ``grid_search``'s per-fold shares for a grid holding
    ``spec``; without them the folds are drawn here.
    """
    if shares is None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        shares = _fold_shares([spec], X, y, folds, seed)
    scores = [float(np.mean(np.abs(predictions - fold.y[fold.test])))
              for fold, predictions in held_out(spec, shares)]
    return float(np.mean(scores)), scores


def grid_search(
    specs: list[ModelSpec], X, y, folds: int = 7, seed: int = 0
) -> list[tuple[ModelSpec, float]]:
    """Cross-validate every spec and rank ascending; ties keep grid order.

    The specs' fits on each fold share that fold's work (``_Share``); each
    spec is still cross-validated by one ``cross_validate`` call.
    """
    if not specs:
        raise ValueError("empty grid")
    shares = _fold_shares(specs, np.asarray(X, dtype=float), np.asarray(y, dtype=float),
                          folds, seed)
    scored = []
    for spec in specs:
        score = cross_validate(spec, X, y, folds, seed, shares)[0]
        if not math.isfinite(score):
            raise ValueError(f"{spec.label()} has a non-finite CV MAE ({score})")
        scored.append((spec, score))
    return sorted(scored, key=lambda pair: pair[1])  # stable -> grid order on ties


class AveragedModel:
    """Unweighted mean of the top-k ranked specs, each refit on all data through one share."""

    def __init__(self, ranked: list[tuple[ModelSpec, float]], k: int, X, y):
        if not 1 <= k <= len(ranked):
            raise ValueError(f"k must be in [1, {len(ranked)}]")
        specs = [spec for spec, _ in ranked[:k]]
        share = _Share(specs, np.asarray(X, dtype=float), np.asarray(y, dtype=float))
        self.members = [fit_model(spec, share.X, share.y, share) for spec in specs]

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
