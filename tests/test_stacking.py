import math

import numpy as np
import pytest

from rtm.corpus import tokenize
from rtm.features import FeatureResources, N_FEATURES, build_feature_matrix, train_aligner
from rtm.interpretants import WittenBellLM, build_ngram_weights
from rtm.learners import ModelSpec, cross_validate, fold_indices
from rtm.stacking import (
    N_STACK_FEATURES,
    StackConfig,
    combo_features,
    fit_linear_combiner,
    predict_stack_matrices,
    train_combined_stack_matrices,
    train_separate_stack_matrices,
)

rng = np.random.default_rng(77)


class TestComboFeatures:
    def test_worked_example(self):
        out = combo_features(0.2, 0.8)
        assert out.tolist() == [0.2, 0.8, abs(0.2 - 0.8), (0.2 + 0.8) / 2, math.sqrt(0.2 * 0.8)]
        assert out == pytest.approx([0.2, 0.8, 0.6, 0.5, 0.4], abs=1e-12)

    def test_equal_inputs(self):
        for v in (0.0, 0.3, 1.2):
            assert combo_features(v, v).tolist() == [v, v, 0.0, v, v]

    def test_negative_clamped_in_root_only(self):
        out = combo_features(-0.1, 0.4)
        assert out[4] == 0.0
        assert out[2] == pytest.approx(0.5)
        assert out[0] == -0.1

    def test_symmetry(self):
        a = combo_features(0.3, 0.9)
        b = combo_features(0.9, 0.3)
        assert np.array_equal(a[2:], b[2:])
        assert a[0] == b[1] and a[1] == b[0]

    def test_vectorized(self):
        out = combo_features(np.array([0.2, 0.5]), np.array([0.8, 0.5]))
        assert out.shape == (2, 5)


def _stack_cfg(**kwargs):
    defaults = dict(
        base_spec=ModelSpec("rr", alpha=1.0),
        final_specs=(ModelSpec("rr", alpha=1.0), ModelSpec("knn", k=3)),
        top_k=1,
        folds=7,
        seed=3,
    )
    defaults.update(kwargs)
    return StackConfig(**defaults)


def _paired_matrices(n=42, seed=5):
    gen = np.random.default_rng(seed)
    feats_a = gen.normal(size=(n, N_FEATURES))
    feats_b = gen.normal(size=(n, N_FEATURES))
    gold = 0.6 * feats_a[:, 0] - 0.4 * feats_b[:, 1] + gen.normal(0, 0.05, n)
    return feats_a, feats_b, gold


class TestCombinedStack:
    def test_final_arity(self):
        feats_a, feats_b, gold = _paired_matrices()
        model = train_combined_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        assert N_STACK_FEATURES == 2 * N_FEATURES + 5 == 87
        assert model.final.members[0].n_features_in == 87

    def test_out_of_fold_discipline(self):
        feats_a, feats_b, gold = _paired_matrices()
        model = train_combined_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        scored_total = []
        for record in model.oof_audit:
            assert not set(record.train_rows) & set(record.scored_rows)
            scored_total.extend(record.scored_rows)
        assert sorted(scored_total) == list(range(2 * len(gold)))

    def test_constant_base_adds_nothing(self):
        # a constant base makes the 5 combo features constant columns, so the
        # final model's CV score equals the no-stacking baseline
        feats_a, feats_b, gold = _paired_matrices()
        cfg = _stack_cfg(base_spec=ModelSpec("const"))
        spec = ModelSpec("rr", alpha=1.0)
        model = train_combined_stack_matrices(feats_a, feats_b, gold, cfg)
        n = len(gold)
        const = np.full(n, gold.mean())
        with_combo = np.hstack([feats_a, feats_b, combo_features(const, const)])
        without = np.hstack([feats_a, feats_b])
        score_with, _ = cross_validate(spec, with_combo, gold, 7, cfg.seed)
        score_without, _ = cross_validate(spec, without, gold, 7, cfg.seed)
        assert abs(score_with - score_without) < 1e-9
        assert model.cv_table  # trained fine

    def test_rejects_too_few_instances(self):
        with pytest.raises(ValueError):
            train_combined_stack_matrices(
                np.zeros((1, N_FEATURES)), np.zeros((1, N_FEATURES)), [0.5], _stack_cfg()
            )


    def test_failed_oof_fit_names_spec_and_fold(self):
        # the base model's out-of-fold fits run through learners.held_out
        feats_a, feats_b, _ = _paired_matrices(n=21)
        gold = np.full(21, 0.5)
        held = fold_indices(21, 7, 3)[4]
        gold[held] = np.linspace(0.1, 0.9, len(held))
        cfg = _stack_cfg(base_spec=ModelSpec("rr", alpha=1.0, n_components=2))
        with pytest.raises(ValueError, match=r"^rr\(alpha=1\)\+pls2, fold 5: no PLS component"):
            train_combined_stack_matrices(feats_a, feats_b, gold, cfg)


class TestSeparateStack:
    def test_sides_never_mix(self):
        feats_a, feats_b, gold = _paired_matrices()
        model = train_separate_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        n = len(gold)
        for record in model.oof_audit:
            rows = set(record.train_rows) | set(record.scored_rows)
            if record.side == "a":
                assert max(rows) < n
            else:
                assert record.side == "b" and min(rows) >= n

    def test_specialization_beats_shared_base_on_two_regimes(self):
        # gold follows different feature->gold maps on the two sides
        from rtm.learners import fit_model

        gen = np.random.default_rng(11)
        n = 60
        feats_a = gen.normal(size=(n, N_FEATURES))
        feats_b = gen.normal(size=(n, N_FEATURES))
        gold = feats_a[:, 0].copy()
        feats_b[:, 1] = gold / 2.0  # side b encodes gold differently
        spec = ModelSpec("rr", alpha=0.01)
        sep_a = fit_model(spec, feats_a, gold)
        sep_b = fit_model(spec, feats_b, gold)
        shared = fit_model(
            spec, np.vstack([feats_a, feats_b]), np.concatenate([gold, gold])
        )
        for feats, sep in ((feats_a, sep_a), (feats_b, sep_b)):
            mae_sep = np.abs(sep.predict(feats) - gold).mean()
            mae_shared = np.abs(shared.predict(feats) - gold).mean()
            assert mae_sep <= mae_shared + 1e-12

    def test_final_arity(self):
        feats_a, feats_b, gold = _paired_matrices()
        model = train_separate_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        assert model.final.members[0].n_features_in == 87


class TestPredictStack:
    def test_finite_and_deterministic(self):
        feats_a, feats_b, gold = _paired_matrices()
        model = train_combined_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        preds = predict_stack_matrices(model, feats_a, feats_b)
        assert np.isfinite(preds).all() and len(preds) == len(gold)
        again = train_combined_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        assert np.array_equal(preds, predict_stack_matrices(again, feats_a, feats_b))

    def test_permutation_equivariance(self):
        feats_a, feats_b, gold = _paired_matrices()
        model = train_combined_stack_matrices(feats_a, feats_b, gold, _stack_cfg())
        perm = np.random.default_rng(1).permutation(len(gold))
        preds = predict_stack_matrices(model, feats_a, feats_b)
        shuffled = predict_stack_matrices(model, feats_a[perm], feats_b[perm])
        # equal up to BLAS batching noise in the matrix products
        assert np.abs(preds[perm] - shuffled).max() < 1e-12

    def test_instance_level_api(self):
        # token rows -> feature matrices -> stack, with tiny real resources
        sentences = [tokenize(t) for t in ("a b c d", "b c e", "d e f a", "c f a b")]
        resources = FeatureResources(
            weight_table=build_ngram_weights(sentences),
            lm=WittenBellLM(sentences, order=2),
            aligner=train_aligner([(s, s) for s in sentences], iterations=3),
        )
        gen = np.random.default_rng(0)
        vocab = ["a", "b", "c", "d", "e", "f"]
        rows_a, rows_b, gold = [], [], []
        for i in range(16):
            words = [
                tokenize(" ".join(gen.choice(vocab, size=3))),
                tokenize(" ".join(gen.choice(vocab, size=3))),
            ]
            attr = tokenize(str(gen.choice(vocab)))
            rows_a.append((words[0], attr))
            rows_b.append((words[1], attr))
            gold.append(float(gen.integers(0, 2)))
        feats_a = build_feature_matrix(rows_a, resources)
        feats_b = build_feature_matrix(rows_b, resources)
        cfg = _stack_cfg(final_specs=(ModelSpec("rr", alpha=1.0),), folds=4)
        for train_fn in (train_combined_stack_matrices, train_separate_stack_matrices):
            model = train_fn(feats_a, feats_b, gold, cfg)
            preds = predict_stack_matrices(model, feats_a, feats_b)
            assert np.isfinite(preds).all() and len(preds) == 16


class TestLinearCombiner:
    def test_exact_fit(self):
        x1 = np.array([0.1, 0.5, 0.9, 0.3])
        x2 = np.array([0.0, 0.2, 0.1, 0.25])
        gold = 2.0 * (x1 - x2) + 1.0
        combiner = fit_linear_combiner(x1, x2, gold, "difference")
        assert combiner.a == pytest.approx(2.0, abs=1e-9)
        assert combiner.b == pytest.approx(1.0, abs=1e-9)

    def test_constant_statistic(self):
        x = np.array([0.4, 0.4, 0.4])
        gold = np.array([1.0, 2.0, 3.0])
        combiner = fit_linear_combiner(x, x, gold, "difference")  # x1-x2 == 0
        assert combiner.a == 0.0 and combiner.b == pytest.approx(2.0)

    def test_matches_closed_form_regression(self):
        x1 = rng.uniform(size=50)
        x2 = rng.uniform(size=50)
        gold = rng.uniform(size=50)
        combiner = fit_linear_combiner(x1, x2, gold, "mean")
        x = (x1 + x2) / 2.0
        a = ((x - x.mean()) * (gold - gold.mean())).sum() / ((x - x.mean()) ** 2).sum()
        b = gold.mean() - a * x.mean()
        assert combiner.a == pytest.approx(a, abs=1e-9)
        assert combiner.b == pytest.approx(b, abs=1e-9)
        assert combiner.predict(x1, x2) == pytest.approx(a * x + b, abs=1e-9)
