"""Evaluation metrics, thresholding, symbolic grounding and annotation scoring.

Beyond the standard correlation/error measures this implements the relative
family used throughout the package's reports:

* MAER: mean of |yhat_i - y_i| / max(|y_i|, eps)
* MRAER: same with the denominator |mean(y) - y_i| (so 1 ~ mean predictor)
* rMAER / rMRAER: each term additionally multiplied by
  f(cov term / (std(yhat) * std(y) * denom^2)) where f caps nonnegative
  arguments at eps from below and maps negative x to max(-2x, eps)

eps is the measurement-error estimate: half the mean absolute error by
default, or half the score step for discrete scales.  Denominators are capped
from below at eps; a term with zero numerator contributes 0 even when its
capped denominator is 0.  All standard deviations are population ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _pair(y_hat, y) -> tuple[np.ndarray, np.ndarray]:
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_hat.shape != y.shape or y_hat.ndim != 1:
        raise ValueError("y_hat and y must be 1-d and of equal length")
    if len(y) < 2:
        raise ValueError("need at least 2 points")
    if not (np.all(np.isfinite(y_hat)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    return y_hat, y


@dataclass(frozen=True)
class MetricConfig:
    """How to estimate the measurement error eps."""

    epsilon_mode: str = "half_mae"  # "half_mae" | "half_step"
    step_size: float | None = None

    def __post_init__(self):
        if self.epsilon_mode not in ("half_mae", "half_step"):
            raise ValueError(f"unknown epsilon_mode {self.epsilon_mode!r}")
        if self.epsilon_mode == "half_step" and (self.step_size is None or self.step_size <= 0):
            raise ValueError("half_step needs step_size > 0")


@dataclass(frozen=True)
class ScoreStats:
    """Mean and population standard deviation of a score vector."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @classmethod
    def of(cls, values) -> "ScoreStats":
        values = np.asarray(values, dtype=float)
        return cls(float(values.mean()), float(values.std()))


def _deviations(values: np.ndarray) -> np.ndarray:
    """Deviations from the mean, centered twice: the second pass removes the
    rounding error of the first mean, which on near-constant input is as large
    as the deviations themselves."""
    dev = values - values.mean()
    return dev - dev.mean()


def pearson(y_hat, y) -> float:
    y_hat, y = _pair(y_hat, y)
    dx, dy = _deviations(y_hat), _deviations(y)
    sx, sy = np.sqrt(np.mean(dx * dx)), np.sqrt(np.mean(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("undefined correlation: constant input")
    return float(np.mean(dx * dy) / (sx * sy))


def mean_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # a run of ties starts wherever adjacent sorted values differ (NaN != NaN,
    # so each NaN is its own run; -0.0 == 0.0, so they tie)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)] - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def spearman(y_hat, y) -> float:
    """Exact Spearman: Pearson over mean-rank vectors."""
    y_hat, y = _pair(y_hat, y)
    return pearson(mean_ranks(y_hat), mean_ranks(y))


def spearman_approx(y_hat, y) -> float:
    """The 1 - 6*sum(d^2)/(n(n^2-1)) shortcut; exact only without ties."""
    y_hat, y = _pair(y_hat, y)
    d = mean_ranks(y_hat) - mean_ranks(y)
    n = len(y)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def mae_rae(y_hat, y) -> tuple[float, float]:
    """(mean absolute error, MAE relative to the gold-mean predictor's MAE)."""
    y_hat, y = _pair(y_hat, y)
    mae = float(np.mean(np.abs(y_hat - y)))
    denom = float(np.mean(np.abs(y - y.mean())))
    if denom == 0.0:
        raise ValueError("RAE undefined: gold has zero dispersion")
    return mae, mae / denom


def epsilon(y_hat, y, cfg: MetricConfig = MetricConfig()) -> float:
    if cfg.epsilon_mode == "half_step":
        return cfg.step_size / 2.0
    y_hat, y = _pair(y_hat, y)
    return float(np.mean(np.abs(y_hat - y))) / 2.0


def _f_neg(x: float, eps: float) -> float:
    return max(x, eps) if x >= 0 else max(-2.0 * x, eps)


def _relative_errors(y_hat, y, cfg: MetricConfig, modulated: bool) -> tuple[float, float]:
    """(MAER, MRAER), or (rMAER, rMRAER) when ``modulated``: each error term
    of the r-variants is weighted by ``f_neg`` of its correlation term."""
    y_hat, y = _pair(y_hat, y)
    eps = epsilon(y_hat, y, cfg)
    s_hat, s_y = y_hat.std(), y.std()
    dev_hat = y_hat - y_hat.mean()
    dev_y = y - y.mean()

    def mean(denoms) -> float:
        total = 0.0
        for i in range(len(y)):
            err = abs(y_hat[i] - y[i])
            if err == 0.0:
                continue
            capped = max(denoms[i], eps)
            if capped == 0.0:
                raise ValueError("zero capped denominator with nonzero error (eps=0)")
            f = 1.0  # exact: an unweighted term keeps its bits
            if modulated:
                cov_term = dev_hat[i] * dev_y[i]
                arg = 0.0 if cov_term == 0.0 else cov_term / (s_hat * s_y * capped * capped)
                f = _f_neg(arg, eps)
            total += (err / capped) * f
        return total / len(y)

    return mean(np.abs(y)), mean(np.abs(y.mean() - y))


def maer_mraer(y_hat, y, cfg: MetricConfig = MetricConfig()) -> tuple[float, float]:
    return _relative_errors(y_hat, y, cfg, modulated=False)


def r_maer_r_mraer(y_hat, y, cfg: MetricConfig = MetricConfig()) -> tuple[float, float]:
    """Correlation-modulated MAER/MRAER (see module docstring)."""
    return _relative_errors(y_hat, y, cfg, modulated=True)


def rank_error(train_values, test_values) -> float:
    """Sum of squared normalized rank differences between two orderings."""
    train_values = np.asarray(train_values, dtype=float)
    test_values = np.asarray(test_values, dtype=float)
    if train_values.shape != test_values.shape or train_values.ndim != 1:
        raise ValueError("need two equal-length 1-d vectors")
    n = len(train_values)
    d = (mean_ranks(train_values) - mean_ranks(test_values)) / n
    return float(d @ d)


def f1_binary(pred, gold) -> float:
    """F1 of class 1; any zero denominator yields 0."""
    pred = np.asarray(pred, dtype=int)
    gold = np.asarray(gold, dtype=int)
    tp = int(np.sum((pred == 1) & (gold == 1)))
    fp = int(np.sum((pred == 1) & (gold == 0)))
    fn = int(np.sum((pred == 0) & (gold == 1)))
    if tp == 0:
        return 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return 2.0 * prec * rec / (prec + rec)


def optimize_threshold(scores, labels) -> float:
    """Training-set threshold sweep for binary decisions (pred = score >= t).

    Candidates are the midpoints of consecutive distinct scores, the fixed
    default 0.5, and one sentinel below/above all scores so that one-class
    data can be classified uniformly.  The best F1 wins; exact F1 ties fall
    back to accuracy, then to the smallest threshold.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) != len(labels) or len(scores) == 0:
        raise ValueError("need aligned nonempty scores and labels")
    distinct = np.unique(scores)
    candidates = {0.5, float(distinct[0]) - 1.0, float(distinct[-1]) + 1.0}
    candidates.update((float(a) + float(b)) / 2.0 for a, b in zip(distinct, distinct[1:]))
    best_t, best_key = None, None
    for t in sorted(candidates):
        pred = (scores >= t).astype(int)
        key = (f1_binary(pred, labels), float(np.mean(pred == labels)))
        if best_key is None or key > best_key:
            best_t, best_key = t, key
    return best_t


def ground_threshold(t_train: float, train_stats: ScoreStats, test_stats: ScoreStats) -> float:
    """Carry a training threshold to the test score distribution.

    The threshold is expressed as mu + z*sigma on the training statistics and
    re-evaluated on the test statistics; degenerate training sigma keeps the
    threshold unchanged.
    """
    if train_stats.sigma == 0.0:
        return t_train
    z = (t_train - train_stats.mu) / train_stats.sigma
    return test_stats.mu + z * test_stats.sigma


def ground_predictions(y_hat, target_stats: ScoreStats) -> np.ndarray:
    """Affine-map predictions to the target mean/sigma (order preserved)."""
    y_hat = np.asarray(y_hat, dtype=float)
    sigma = float(y_hat.std())
    if sigma == 0.0:
        return np.full(len(y_hat), target_stats.mu)
    return (y_hat - y_hat.mean()) / sigma * target_stats.sigma + target_stats.mu


def _tau_from_signs(sa: np.ndarray, sb: np.ndarray) -> float:
    concordant = int(np.sum(sa * sb > 0))
    discordant = int(np.sum(sa * sb < 0))
    if concordant + discordant == 0:
        raise ValueError("tau undefined: no decisive pairs")
    return (concordant - discordant) / (concordant + discordant)


def _pairwise_diffs(pairs):
    a = np.asarray([p[0] for p in pairs], dtype=float)
    b = np.asarray([p[1] for p in pairs], dtype=float)
    if len(a) < 2:
        raise ValueError("need at least 2 ranked items")
    iu, ju = np.triu_indices(len(a), k=1)
    return a[iu] - a[ju], b[iu] - b[ju]


def iaa_tau(pairs) -> float:
    """(C - D) / (C + D) over all item pairs; ties count as neither."""
    da, db = _pairwise_diffs(pairs)
    return _tau_from_signs(np.sign(da), np.sign(db))


def riaa_tau(pairs, seed: int) -> float:
    """Randomized tau: every tie becomes a random strict order (seeded)."""
    da, db = _pairwise_diffs(pairs)
    rng = np.random.default_rng(seed)
    sa = np.sign(da)
    sb = np.sign(db)
    sa[sa == 0] = rng.choice([-1.0, 1.0], size=int(np.sum(sa == 0)))
    sb[sb == 0] = rng.choice([-1.0, 1.0], size=int(np.sum(sb == 0)))
    return _tau_from_signs(sa, sb)


def bws_scores(annotations) -> dict:
    """Best-worst scaling: (#best - #worst) / #appearances, rescaled to [0, 1].

    ``annotations`` is a list of (items 4-tuple, best_id, worst_id).
    """
    appear: dict = {}
    best: dict = {}
    worst: dict = {}
    for items, best_id, worst_id in annotations:
        if best_id not in items or worst_id not in items:
            raise ValueError(f"best/worst not among items {items!r}")
        for it in items:
            appear[it] = appear.get(it, 0) + 1
        best[best_id] = best.get(best_id, 0) + 1
        worst[worst_id] = worst.get(worst_id, 0) + 1
    return {
        it: ((best.get(it, 0) - worst.get(it, 0)) / n + 1.0) / 2.0
        for it, n in appear.items()
    }


REPORT_FIELDS = ("r", "r_S", "MAE", "RAE", "MAER", "MRAER", "rMAER", "rMRAER")


@dataclass
class MetricReport:
    """All metric values for one prediction set, in report order."""

    r: float
    r_s: float
    mae: float
    rae: float
    maer: float
    mraer: float
    r_maer: float
    r_mraer: float
    f1: float | None = None

    def rows(self) -> list[tuple[str, float]]:
        rows = list(zip(REPORT_FIELDS, (
            self.r, self.r_s, self.mae, self.rae,
            self.maer, self.mraer, self.r_maer, self.r_mraer,
        )))
        if self.f1 is not None:
            rows.append(("F1", self.f1))
        return rows

    def format(self) -> str:
        return "\n".join(f"{name}\t{value:.6f}" for name, value in self.rows())


def metric_report(
    y_hat,
    y,
    cfg: MetricConfig = MetricConfig(),
    pred_classes=None,
    gold_classes=None,
) -> MetricReport:
    """Populate a full MetricReport from the individual operations."""
    mae, rae = mae_rae(y_hat, y)
    maer, mraer = maer_mraer(y_hat, y, cfg)
    rmaer, rmraer = r_maer_r_mraer(y_hat, y, cfg)
    f1 = None
    if pred_classes is not None and gold_classes is not None:
        f1 = f1_binary(pred_classes, gold_classes)
    return MetricReport(
        r=pearson(y_hat, y),
        r_s=spearman(y_hat, y),
        mae=mae,
        rae=rae,
        maer=maer,
        mraer=mraer,
        r_maer=rmaer,
        r_mraer=rmraer,
        f1=f1,
    )


def parse_report(text: str) -> dict:
    """Inverse of MetricReport.format (plus ignored comment lines)."""
    out = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, value = line.split("\t")
        out[name] = float(value)
    return out
