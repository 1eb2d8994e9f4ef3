import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from rtm.metrics import (
    MetricConfig,
    ScoreStats,
    bws_scores,
    epsilon,
    f1_binary,
    ground_predictions,
    ground_threshold,
    iaa_tau,
    mae_rae,
    maer_mraer,
    mean_ranks,
    metric_report,
    optimize_threshold,
    parse_report,
    pearson,
    r_maer_r_mraer,
    rank_error,
    riaa_tau,
    spearman,
    spearman_approx,
)

rng = np.random.default_rng(2024)

finite_vec = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=30
)


class TestPearson:
    def test_positive_affine(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_reversed(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_case(self):
        # sum of deviation products 4, each deviation sum of squares 5 -> 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
            stats.pearsonr([1, 2, 3, 4], [1, 3, 2, 4]).statistic, abs=1e-12
        )

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    @given(finite_vec)
    @settings(max_examples=50)
    @example([0.0, 0.0, 1e-12])  # near-constant: one-pass centering gave 0.99999148
    def test_affine_invariance(self, values):
        y = np.asarray(values)
        y_hat = np.sin(y) + 0.1 * y
        a, b = 2.5 * y_hat + 1.0, 0.3 * y + 7.0
        # tiny variances can vanish entirely under the affine shift
        if 0.0 in (y.std(), y_hat.std(), a.std(), b.std()):
            return
        assert pearson(a, b) == pytest.approx(pearson(y_hat, y), abs=1e-9)

    @staticmethod
    def _exact_r(x, y):
        """r of the given floats, computed in exact rational arithmetic up to
        one final square root."""
        x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        sxy = sum((u - mx) * (v - my) for u, v in zip(x, y))
        sxx = sum((u - mx) ** 2 for u in x)
        syy = sum((v - my) ** 2 for v in y)
        return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 1.0, 1.0 + 2.75e-12], [7.0, 7.0, 7.0 + 3.0e-13]),
            ([1e8, 1e8 + 1.0, 1e8 + 3.0], [-2.0, -1.0, 5.0]),
            ([0.1, 0.2, 0.3, 0.4], [0.4, 0.1, 0.3, 0.2]),
        ],
    )
    def test_matches_exact_rational_oracle(self, x, y):
        assert pearson(x, y) == pytest.approx(self._exact_r(x, y), abs=1e-12)

    def test_correlation_identities_on_standardized(self):
        for _ in range(20):
            y = rng.normal(size=30)
            y_hat = y + rng.normal(0, 0.5, 30)
            zy = (y - y.mean()) / y.std()
            zh = (y_hat - y_hat.mean()) / y_hat.std()
            r = pearson(zh, zy)
            assert r == pytest.approx(1 - 0.5 * np.var(zh - zy), abs=1e-9)
            assert r == pytest.approx(0.5 * np.var(zh + zy) - 1, abs=1e-9)


class TestSpearman:
    def test_identical_ranking(self):
        assert spearman([1, 5, 9], [2, 6, 11]) == pytest.approx(1.0)

    def test_reversed_approximation(self):
        # 1 - 6*8/(3*8) = -1
        assert spearman_approx([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_approx_equals_exact_without_ties(self):
        for _ in range(50):
            y = rng.permutation(20).astype(float)
            y_hat = rng.permutation(20).astype(float)
            assert spearman_approx(y_hat, y) == pytest.approx(spearman(y_hat, y), abs=1e-12)

    def test_mean_ranks_match_scipy(self):
        for _ in range(25):
            values = rng.integers(0, 5, size=15).astype(float)
            assert np.array_equal(mean_ranks(values), stats.rankdata(values))

    def test_exact_handles_ties_like_scipy(self):
        for _ in range(25):
            y = rng.integers(0, 6, size=12).astype(float)
            y_hat = rng.integers(0, 6, size=12).astype(float)
            if len(set(y)) < 2 or len(set(y_hat)) < 2:
                continue
            assert spearman(y_hat, y) == pytest.approx(
                stats.spearmanr(y_hat, y).statistic, abs=1e-12
            )


class TestMaeRae:
    def test_perfect(self):
        assert mae_rae([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_mean_predictor_is_one(self):
        y = rng.uniform(size=40)
        y_hat = np.full(40, y.mean())
        _, rae = mae_rae(y_hat, y)
        assert rae == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        assert mae_rae([0.0, 0.0], [1.0, -1.0]) == (1.0, 1.0)

    def test_zero_dispersion_rejected(self):
        with pytest.raises(ValueError, match="zero dispersion"):
            mae_rae([1.0, 2.0], [3.0, 3.0])


class TestEpsilon:
    def test_perfect_predictions(self):
        assert epsilon([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_half_mae(self):
        assert epsilon([1.0, 2.0], [1.5, 2.5]) == pytest.approx(0.25)

    def test_half_step(self):
        cfg = MetricConfig("half_step", 1.0)
        assert epsilon([1.0], [9.0], cfg) == 0.5


class TestMaerMraer:
    def test_perfect(self):
        assert maer_mraer([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_hand_case(self):
        # MAE 0.5, eps 0.25; MAER = (0.5/1 + 0.5/2)/2; MRAER = (0.5/0.5)*2/2
        maer, mraer = maer_mraer([1.5, 1.5], [1.0, 2.0])
        assert maer == pytest.approx(0.375, abs=1e-12)
        assert mraer == pytest.approx(1.0, abs=1e-12)

    def test_mean_predictor_band(self):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            y = gen.uniform(0, 1, size=int(gen.integers(10, 100)))
            y_hat = np.full(len(y), y.mean())
            _, mraer = maer_mraer(y_hat, y)
            assert 0.5 <= mraer <= 1.0

    def test_scale_invariance_with_scaled_step(self):
        y = rng.uniform(1, 2, size=25)
        y_hat = y + rng.normal(0, 0.2, 25)
        c = 7.0
        base = maer_mraer(y_hat, y, MetricConfig("half_step", 0.5))
        scaled = maer_mraer(c * y_hat, c * y, MetricConfig("half_step", 0.5 * c))
        assert scaled[0] == pytest.approx(base[0], abs=1e-9)
        assert scaled[1] == pytest.approx(base[1], abs=1e-9)


def _relative_oracle(y_hat, y, eps_value):
    """Independent transcription of the relative-metric equations."""
    import math

    n = len(y)
    ybar = sum(y) / n
    hbar = sum(y_hat) / n
    s_y = math.sqrt(sum((v - ybar) ** 2 for v in y) / n)
    s_h = math.sqrt(sum((v - hbar) ** 2 for v in y_hat) / n)

    def cap(x):
        return max(x, eps_value)

    def f(x):
        return cap(x) if x >= 0 else cap(-2.0 * x)

    def term(i, denom):
        err = abs(y_hat[i] - y[i])
        if err == 0:
            return 0.0, 0.0
        plain = err / cap(denom)
        arg = (y_hat[i] - hbar) * (y[i] - ybar)
        arg = 0.0 if arg == 0 else arg / (s_h * s_y * cap(denom) ** 2)
        return plain, plain * f(arg)

    maer = sum(term(i, abs(y[i]))[0] for i in range(n)) / n
    mraer = sum(term(i, abs(ybar - y[i]))[0] for i in range(n)) / n
    rmaer = sum(term(i, abs(y[i]))[1] for i in range(n)) / n
    rmraer = sum(term(i, abs(ybar - y[i]))[1] for i in range(n)) / n
    return maer, mraer, rmaer, rmraer


class TestRMaer:
    def test_never_negative(self):
        for _ in range(30):
            y = rng.uniform(0, 1, size=20)
            y_hat = rng.uniform(0, 1, size=20)
            rmaer, rmraer = r_maer_r_mraer(y_hat, y)
            assert rmaer >= 0.0 and rmraer >= 0.0

    def test_single_pair_hand_case(self):
        y_hat = [0.5, 1.5]
        y = [0.0, 2.0]
        eps_value = epsilon(y_hat, y)
        _, _, rmaer, rmraer = _relative_oracle(y_hat, y, eps_value)
        got = r_maer_r_mraer(y_hat, y)
        assert got[0] == pytest.approx(rmaer, abs=1e-12)
        assert got[1] == pytest.approx(rmraer, abs=1e-12)

    def test_matches_oracle_on_random_sets(self):
        for _ in range(30):
            n = int(rng.integers(5, 60))
            y = rng.uniform(0, 1, size=n)
            y_hat = rng.uniform(0, 1, size=n)
            eps_value = epsilon(y_hat, y)
            o_maer, o_mraer, o_rmaer, o_rmraer = _relative_oracle(
                y_hat.tolist(), y.tolist(), eps_value
            )
            maer, mraer = maer_mraer(y_hat, y)
            rmaer, rmraer = r_maer_r_mraer(y_hat, y)
            assert maer == pytest.approx(o_maer, abs=1e-12)
            assert mraer == pytest.approx(o_mraer, abs=1e-12)
            assert rmaer == pytest.approx(o_rmaer, abs=1e-12)
            assert rmraer == pytest.approx(o_rmraer, abs=1e-12)


class TestRankError:
    def test_identical_orders(self):
        assert rank_error([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 0.0

    def test_two_swapped(self):
        assert rank_error([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.5)

    def test_monotone_transform_invariance(self):
        a = rng.uniform(size=12)
        b = rng.uniform(size=12)
        assert rank_error(a, b) == pytest.approx(rank_error(np.exp(a), b**3), abs=1e-12)

    def test_zero_iff_same_ranks(self):
        a = np.array([1.0, 1.0, 2.0])
        assert rank_error(a, np.array([5.0, 5.0, 9.0])) == 0.0
        assert rank_error(a, np.array([5.0, 6.0, 9.0])) > 0.0


class TestF1:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_negative_predictions(self):
        assert f1_binary([0, 0, 0], [1, 0, 1]) == 0.0

    def test_balanced_mistakes(self):
        assert f1_binary([1, 1, 0], [1, 0, 1]) == 0.5


class TestOptimizeThreshold:
    def test_separable(self):
        t = optimize_threshold([0.1, 0.4, 0.6, 0.9], [0, 0, 1, 1])
        assert t == 0.5
        assert f1_binary((np.array([0.1, 0.4, 0.6, 0.9]) >= t).astype(int), [0, 0, 1, 1]) == 1.0

    def test_one_class_only(self):
        scores = [0.2, 0.6, 0.8]
        t_all_pos = optimize_threshold(scores, [1, 1, 1])
        assert t_all_pos < min(scores)
        t_all_neg = optimize_threshold(scores, [0, 0, 0])
        assert t_all_neg > max(scores)

    def test_default_candidate_always_evaluated(self):
        # midpoint is 0.6; 0.5 also separates and wins the smallest-t tie,
        # so getting 0.5 back proves the fixed candidate entered the sweep
        assert optimize_threshold([0.3, 0.9], [0, 1]) == 0.5


class TestGrounding:
    def test_threshold_identity(self):
        s = ScoreStats(0.4, 0.1)
        assert ground_threshold(0.55, s, s) == pytest.approx(0.55, abs=1e-15)

    def test_threshold_at_mean_maps_to_mean(self):
        assert ground_threshold(0.4, ScoreStats(0.4, 0.1), ScoreStats(0.7, 0.2)) == pytest.approx(0.7)

    def test_pure_mean_shift(self):
        t = ground_threshold(0.5, ScoreStats(0.4, 0.1), ScoreStats(0.5, 0.1))
        assert t == pytest.approx(0.6, abs=1e-12)

    def test_degenerate_sigma(self):
        assert ground_threshold(0.5, ScoreStats(0.4, 0.0), ScoreStats(0.9, 0.3)) == 0.5

    def test_predictions_already_at_target(self):
        y_hat = rng.uniform(size=30)
        target = ScoreStats.of(y_hat)
        assert np.abs(ground_predictions(y_hat, target) - y_hat).max() < 1e-12

    def test_predictions_hit_target_stats_and_keep_r(self):
        y = rng.uniform(size=50)
        y_hat = y + rng.normal(0, 0.2, 50)
        target = ScoreStats(0.37, 0.11)
        grounded = ground_predictions(y_hat, target)
        assert grounded.mean() == pytest.approx(0.37, abs=1e-9)
        assert grounded.std() == pytest.approx(0.11, abs=1e-9)
        assert pearson(grounded, y) == pytest.approx(pearson(y_hat, y), abs=1e-12)
        assert spearman(grounded, y) == pytest.approx(spearman(y_hat, y), abs=1e-12)

    def test_constant_predictions(self):
        grounded = ground_predictions([0.5, 0.5], ScoreStats(0.3, 0.2))
        assert np.all(grounded == 0.3)


class TestTau:
    def test_all_concordant(self):
        assert iaa_tau([(1, 1), (2, 2), (3, 3)]) == 1.0

    def test_balanced(self):
        # item pairs split 3 concordant / 3 discordant -> tau 0
        assert iaa_tau([(1, 2), (2, 4), (3, 1), (4, 3)]) == 0.0

    def test_ratio(self):
        # two tied pairs drop out, leaving C=3, D=1 -> 0.5
        pairs = [(1, 1), (1, 2), (2, 1), (3, 3)]
        assert iaa_tau(pairs) == 0.5

    def test_riaa_seeded_and_tie_free_agreement(self):
        pairs = [(1, 1), (2, 2), (2, 3), (4, 4)]
        assert riaa_tau(pairs, seed=3) == riaa_tau(pairs, seed=3)
        no_ties = [(1, 2), (2, 1), (3, 4), (4, 3)]
        assert riaa_tau(no_ties, seed=0) == iaa_tau(no_ties)

    def test_no_decisive_pairs(self):
        with pytest.raises(ValueError):
            iaa_tau([(1, 1), (1, 2)])


class TestBws:
    def test_always_best(self):
        notes = [(("a", "b", "c", "d"), "a", "d"), (("a", "x", "y", "z"), "a", "z")]
        assert bws_scores(notes)["a"] == 1.0

    def test_always_worst(self):
        notes = [(("a", "b", "c", "d"), "b", "a"), (("a", "x", "y", "z"), "x", "a")]
        assert bws_scores(notes)["a"] == 0.0

    def test_mixed(self):
        notes = [
            (("a", "b", "c", "d"), "a", "b"),
            (("a", "b", "c", "d"), "b", "a"),
            (("a", "b", "c", "d"), "c", "d"),
            (("a", "b", "c", "d"), "d", "c"),
        ]
        assert bws_scores(notes)["a"] == 0.5

    def test_ids_validated(self):
        with pytest.raises(ValueError):
            bws_scores([(("a", "b", "c", "d"), "zz", "a")])


class TestMetricReport:
    def test_perfect_predictions(self):
        y = [0.1, 0.5, 0.9, 0.3]
        report = metric_report(y, y)
        assert report.r == pytest.approx(1.0)
        assert report.mae == 0.0 and report.maer == 0.0

    def test_fields_match_individual_ops(self):
        y = rng.uniform(size=30)
        y_hat = y + rng.normal(0, 0.1, 30)
        report = metric_report(y_hat, y)
        assert report.r == pearson(y_hat, y)
        assert report.r_s == spearman(y_hat, y)
        assert (report.mae, report.rae) == mae_rae(y_hat, y)
        assert (report.maer, report.mraer) == maer_mraer(y_hat, y)
        assert (report.r_maer, report.r_mraer) == r_maer_r_mraer(y_hat, y)

    def test_rank_inputs_fill_rank_error(self):
        y = rng.uniform(size=10)
        y_hat = y + rng.normal(0, 0.1, 10)
        report = metric_report(y_hat, y, rank_inputs=([1.0, 2.0], [2.0, 1.0]))
        assert report.rank_err == pytest.approx(0.5)
        assert ("rankError", report.rank_err) == report.rows()[-1]

    def test_format_and_parse(self):
        y = rng.uniform(size=10)
        y_hat = y + rng.normal(0, 0.1, 10)
        report = metric_report(y_hat, y, pred_classes=[1, 0] * 5, gold_classes=[1, 0] * 5)
        text = report.format()
        lines = text.splitlines()
        assert lines[0].startswith("r\t")
        assert all(len(line.split("\t")) == 2 for line in lines)
        parsed = parse_report(text)
        assert parsed["r"] == pytest.approx(report.r, abs=1e-6)
        assert parsed["F1"] == 1.0
        assert [line.split("\t")[0] for line in lines] == [
            "r", "r_S", "MAE", "RAE", "MAER", "MRAER", "rMAER", "rMRAER", "F1",
        ]
