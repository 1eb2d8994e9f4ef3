"""Acceptance suite: the guarantees this package commits to, one test each.

Each criterion prints a PASS/FAIL line via the conftest report hook, so
``pytest -v tests/test_acceptance.py`` doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from rtm.cli import main
from rtm.corpus import TokenSeq
from rtm.features import N_FEATURES
from rtm.learners import (
    ModelSpec,
    PlsProjection,
    Scaler,
    fit_model,
    fold_indices,
)
from rtm.metrics import (
    ScoreStats,
    f1_binary,
    ground_predictions,
    ground_threshold,
    mae_rae,
    maer_mraer,
    mean_ranks,
    optimize_threshold,
    pearson,
    r_maer_r_mraer,
    rank_error,
    spearman,
    spearman_approx,
)
from rtm.pipeline import STAGES, parse_config, run_pipeline, run_stage
from rtm.stacking import (
    StackConfig,
    combo_features,
    train_combined_stack_matrices,
)

from conftest import write_intensity_case, write_triples_case


# --- independent direct-formula evaluator (criterion 1 oracle) -------------
# Pure-python transcription of the metric equations; no numpy, no shared code
# with the implementation under test.


def oracle_metrics(y_hat, y):
    n = len(y)
    ybar = sum(y) / n
    hbar = sum(y_hat) / n
    mae = sum(abs(a - b) for a, b in zip(y_hat, y)) / n
    rae = mae / (sum(abs(v - ybar) for v in y) / n)
    eps = mae / 2.0
    s_y = math.sqrt(sum((v - ybar) ** 2 for v in y) / n)
    s_h = math.sqrt(sum((v - hbar) ** 2 for v in y_hat) / n)

    def cap(x):
        return x if x > eps else eps

    def f(x):
        return cap(x) if x >= 0 else cap(-2.0 * x)

    def terms(denom_of):
        plain_total = 0.0
        modulated_total = 0.0
        for i in range(n):
            err = abs(y_hat[i] - y[i])
            if err == 0.0:
                continue
            denom = cap(denom_of(i))
            plain_total += err / denom
            cov = (y_hat[i] - hbar) * (y[i] - ybar)
            arg = 0.0 if cov == 0.0 else cov / (s_h * s_y * denom * denom)
            modulated_total += (err / denom) * f(arg)
        return plain_total / n, modulated_total / n

    maer, rmaer = terms(lambda i: abs(y[i]))
    mraer, rmraer = terms(lambda i: abs(ybar - y[i]))
    return {
        "MAE": mae,
        "RAE": rae,
        "MAER": maer,
        "MRAER": mraer,
        "rMAER": rmaer,
        "rMRAER": rmraer,
    }


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(5, 201))
        y = rng.uniform(0.0, 1.0, size=n)
        y_hat = rng.uniform(0.0, 1.0, size=n)
        expected = oracle_metrics(y_hat.tolist(), y.tolist())
        mae, rae = mae_rae(y_hat, y)
        maer, mraer = maer_mraer(y_hat, y)
        rmaer, rmraer = r_maer_r_mraer(y_hat, y)
        got = {
            "MAE": mae,
            "RAE": rae,
            "MAER": maer,
            "MRAER": mraer,
            "rMAER": rmaer,
            "rMRAER": rmraer,
        }
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, abs=1e-12), name


def test_criterion_2_metric_invariants():
    rng = np.random.default_rng(202)
    # RAE of the gold-mean predictor is exactly 1
    for _ in range(50):
        y = rng.uniform(0.0, 1.0, size=int(rng.integers(5, 100)))
        _, rae = mae_rae(np.full(len(y), y.mean()), y)
        assert rae == pytest.approx(1.0, abs=1e-12)
    # pearson invariance under independent positive affine maps
    for _ in range(100):
        y = rng.normal(size=30)
        y_hat = y + rng.normal(0, 1, 30)
        base = pearson(y_hat, y)
        mapped = pearson(3.7 * y_hat + 2.0, 0.2 * y + 5.0)
        assert mapped == pytest.approx(base, abs=1e-9)
    # Spearman approximation equals the exact method on tie-free inputs
    for _ in range(100):
        n = int(rng.integers(5, 60))
        y = rng.permutation(n).astype(float)
        y_hat = rng.permutation(n).astype(float)
        assert spearman_approx(y_hat, y) == pytest.approx(spearman(y_hat, y), abs=1e-12)
    # correlation identities on standardized vectors
    for _ in range(100):
        y = rng.normal(size=40)
        y_hat = y + rng.normal(0, 0.7, 40)
        zy = (y - y.mean()) / y.std()
        zh = (y_hat - y_hat.mean()) / y_hat.std()
        r = pearson(zh, zy)
        assert r == pytest.approx(1.0 - 0.5 * np.var(zh - zy), abs=1e-9)
        assert r == pytest.approx(0.5 * np.var(zh + zy) - 1.0, abs=1e-9)
    # rankError is zero exactly when the rank orders coincide
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 6, size=n).astype(float)
        b = rng.integers(0, 6, size=n).astype(float)
        err = rank_error(a, b)
        same = np.array_equal(mean_ranks(a), mean_ranks(b))
        assert (err == 0.0) == same


def test_criterion_3_end_to_end_intensity(tmp_path):
    cfg_path = write_intensity_case(
        tmp_path, n_texts=500, n_train=400, corpus_size=300, vocab_size=200,
        n_lex=30, noise=0.05, seed=42,
    )
    out = tmp_path / "out"
    start = time.monotonic()
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    from rtm.metrics import parse_report

    metrics = parse_report((out / "report.txt").read_text().split("[metrics]")[1])
    assert metrics["r"] >= 0.8
    assert metrics["RAE"] <= 0.7
    assert elapsed <= 60.0


def test_criterion_4_end_to_end_triples(tmp_path):
    f1 = {}
    for arch in ("combined", "separate"):
        root = tmp_path / arch
        root.mkdir()
        cfg_path = write_triples_case(
            root, arch, n_instances=500, n_train=400, corpus_size=300, seed=11
        )
        report = run_pipeline(parse_config(cfg_path), root / "out")
        f1[arch] = report.metrics.f1
    assert f1["combined"] >= 0.9
    assert f1["separate"] >= 0.85


def test_criterion_5_learner_oracles():
    from scipy.optimize import minimize

    rng = np.random.default_rng(55)
    # ridge closed form vs an independent iterative minimizer
    for _ in range(20):
        X = rng.normal(size=(10, 5))
        y = rng.normal(size=10)
        alpha = float(rng.uniform(0.1, 10.0))
        model = fit_model(ModelSpec("rr", alpha=alpha), X, y)
        Z = Scaler(X).transform(X)
        yc = y - y.mean()

        def objective(w, Z=Z, yc=yc, alpha=alpha):
            resid = Z @ w - yc
            return float(resid @ resid + alpha * (w @ w))

        res = minimize(objective, np.zeros(5), method="BFGS", tol=1e-14)
        assert np.abs(model.inner.coefs - res.x).max() < 1e-6
    # PLS with full components reproduces OLS
    X = rng.normal(size=(40, 6))
    y = X @ rng.normal(size=6) + 0.3
    design = np.column_stack([X, np.ones(40)])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    Z = Scaler(X).transform(X)
    assert np.abs(PlsProjection(Z, y, 6).predict(Z) - design @ coef).max() < 1e-6
    # extremely randomized trees are byte-identical under a fixed seed
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    Xq = rng.normal(size=(25, 4))
    first = fit_model(ModelSpec("tree", n_estimators=50, seed=3), X, y).predict(Xq)
    second = fit_model(ModelSpec("tree", n_estimators=50, seed=3), X, y).predict(Xq)
    assert np.array_equal(first, second)
    # IBM-1 EM log-likelihood never decreases; identity corpus aligns perfectly
    from rtm.features import alignment_features, train_aligner

    vocab = [f"v{i}" for i in range(12)]
    sents = [
        TokenSeq.from_tokens(rng.choice(vocab, size=rng.integers(3, 7), replace=False))
        for _ in range(60)
    ]
    aligner = train_aligner([(s, s) for s in sents], iterations=5)
    lls = aligner.log_likelihoods
    assert all(a <= b + 1e-9 for a, b in zip(lls, lls[1:]))
    for sent in sents[:10]:
        assert alignment_features(aligner, sent, sent) == (1.0, 1.0)


def test_criterion_6_stacking_contracts():
    # the five combination features on the worked example, float-faithful
    out = combo_features(0.2, 0.8)
    assert out.tolist() == [0.2, 0.8, abs(0.2 - 0.8), (0.2 + 0.8) / 2, math.sqrt(0.2 * 0.8)]
    assert out == pytest.approx([0.2, 0.8, 0.6, 0.5, 0.4], abs=1e-12)
    # final feature arity is 2*41 + 5 = 87
    rng = np.random.default_rng(66)
    n = 35
    feats_a = rng.normal(size=(n, N_FEATURES))
    feats_b = rng.normal(size=(n, N_FEATURES))
    gold = rng.uniform(size=n)
    cfg = StackConfig(
        base_spec=ModelSpec("rr", alpha=1.0),
        final_specs=(ModelSpec("rr", alpha=1.0),),
        top_k=1,
        seed=1,
    )
    model = train_combined_stack_matrices(feats_a, feats_b, gold, cfg)
    assert model.final.members[0].n_features_in == 2 * N_FEATURES + 5 == 87
    # out-of-fold discipline: no base model scored a row it trained on,
    # and every row was scored exactly once
    scored = []
    for record in model.oof_audit:
        assert not set(record.train_rows) & set(record.scored_rows)
        scored.extend(record.scored_rows)
    assert sorted(scored) == list(range(2 * n))


def test_criterion_7_grounding():
    rng = np.random.default_rng(77)
    y = rng.uniform(size=80)
    y_hat = y + rng.normal(0, 0.15, 80)
    target = ScoreStats(0.42, 0.077)
    grounded = ground_predictions(y_hat, target)
    assert pearson(grounded, y) == pytest.approx(pearson(y_hat, y), abs=1e-12)
    assert grounded.mean() == pytest.approx(target.mu, abs=1e-9)
    assert grounded.std() == pytest.approx(target.sigma, abs=1e-9)
    # threshold grounding: identity on matching stats, exact shift under a
    # pure mean translation
    stats = ScoreStats(0.4, 0.12)
    assert ground_threshold(0.55, stats, stats) == pytest.approx(0.55, abs=1e-12)
    shifted = ScoreStats(0.5, 0.12)
    assert ground_threshold(0.55, stats, shifted) == pytest.approx(0.65, abs=1e-12)


def test_criterion_8_determinism(tmp_path):
    cfg_path = write_intensity_case(
        tmp_path, n_texts=60, n_train=45, corpus_size=60, vocab_size=60, n_lex=12
    )
    cfg = parse_config(cfg_path)
    run_pipeline(cfg, tmp_path / "one")
    run_pipeline(cfg, tmp_path / "two")
    for stage in STAGES:
        run_stage(cfg, tmp_path / "stagewise", stage)
    for name in ("predictions.tsv", "report.txt"):
        data = (tmp_path / "one" / name).read_bytes()
        assert data == (tmp_path / "two" / name).read_bytes(), name
        assert data == (tmp_path / "stagewise" / name).read_bytes(), name


def test_criterion_9_cv_and_threshold():
    # 7-fold partitions cover all indices with sizes differing by at most 1
    for n in (7, 23, 100, 399):
        parts = fold_indices(n, 7, seed=9)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(parts).tolist()) == list(range(n))
    # threshold optimization reaches F1=1 on separable scores
    scores = np.array([0.1, 0.4, 0.6, 0.9])
    labels = np.array([0, 0, 1, 1])
    t = optimize_threshold(scores, labels)
    assert f1_binary((scores >= t).astype(int), labels) == 1.0
    # candidate 0.5 is always evaluated: it wins the smallest-t tie here even
    # though the only midpoint is 0.6
    assert optimize_threshold([0.3, 0.9], [0, 1]) == 0.5
