import copy
import dataclasses
import pickle

import numpy as np
import pytest

import rtm.learners
from rtm.learners import (
    _DRAWS,
    _INNER,
    ModelSpec,
    Scaler,
    _Share,
    _elimination_order,
    _fold_shares,
    average_top_k,
    cross_validate,
    default_grid,
    PlsProjection,
    fit_model,
    fold_indices,
    grid_search,
    select_features,
    small_grid,
)

from conftest import traced_peak

rng = np.random.default_rng(1234)


class TestScaler:
    def test_constant_column(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        Z = Scaler(X).transform(X)
        assert np.all(Z[:, 0] == 0.0)


class TestRidge:
    def test_exact_line(self):
        X, y = np.array([[1.0], [2.0]]), np.array([2.0, 4.0])
        model = fit_model(ModelSpec("rr", alpha=0.0), X, y)
        assert model.predict(np.array([[3.0]]))[0] == pytest.approx(6.0, abs=1e-9)

    def test_huge_penalty_collapses_to_mean(self):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_model(ModelSpec("rr", alpha=1e9), X, y)
        assert np.abs(model.predict(X) - y.mean()).max() < 1e-6

    def test_matches_iterative_minimizer(self):
        from scipy.optimize import minimize

        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        alpha = 1.0
        model = fit_model(ModelSpec("rr", alpha=alpha), X, y)
        Z = Scaler(X).transform(X)
        yc = y - y.mean()

        def objective(w):
            resid = Z @ w - yc
            return resid @ resid + alpha * w @ w

        res = minimize(objective, np.zeros(4), method="BFGS", tol=1e-14)
        assert np.abs(model.inner.coefs - res.x).max() < 1e-6

    def test_scaling_invariance(self):
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        Xq = rng.normal(size=(6, 4))
        base = fit_model(ModelSpec("rr", alpha=1.0), X, y).predict(Xq)
        scale = np.array([3.0, 0.2, 11.0, 1.0])
        scaled = fit_model(ModelSpec("rr", alpha=1.0), X * scale, y).predict(Xq * scale)
        assert np.abs(base - scaled).max() < 1e-8


class TestKnn:
    def test_own_point(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 7.0, 9.0])
        assert fit_model(ModelSpec("knn", k=1), X, y).predict(X[1:2])[0] == 7.0

    def test_k_equals_n_gives_mean(self):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        preds = fit_model(ModelSpec("knn", k=10), X, y).predict(rng.normal(size=(4, 2)))
        assert np.abs(preds - y.mean()).max() < 1e-12

    def test_distance_tie_prefers_lower_index(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1.0, 5.0])
        assert fit_model(ModelSpec("knn", k=1), X, y).predict(np.array([[1.0]]))[0] == 1.0


class TestExtraTrees:
    def test_constant_target(self):
        X = rng.normal(size=(40, 3))
        model = fit_model(ModelSpec("tree", n_estimators=20, seed=0), X, np.full(40, 7.0))
        assert np.all(model.predict(rng.normal(size=(10, 3))) == 7.0)

    def test_seed_determinism(self):
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        Xq = rng.normal(size=(20, 4))
        a = fit_model(ModelSpec("tree", n_estimators=30, seed=9), X, y).predict(Xq)
        b = fit_model(ModelSpec("tree", n_estimators=30, seed=9), X, y).predict(Xq)
        assert np.array_equal(a, b)

    def test_step_function_beats_variance(self):
        gen = np.random.default_rng(3)
        X = gen.uniform(0, 1, size=(300, 1))
        y = np.where(X[:, 0] > 0.5, 3.0, 1.0)
        Xt = gen.uniform(0, 1, size=(100, 1))
        yt = np.where(Xt[:, 0] > 0.5, 3.0, 1.0)
        model = fit_model(ModelSpec("tree", n_estimators=200, seed=5), X, y)
        mse = np.mean((model.predict(Xt) - yt) ** 2)
        assert mse < yt.var()

    def test_min_leaf_respected(self):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        spec = ModelSpec("tree", n_estimators=5, min_leaf=5, seed=2)
        model = fit_model(spec, X, y)
        forest = model.inner

        # walk each tree's flat node arrays counting training rows per leaf
        def walk(node, Z, idx):
            if forest.feature[node] < 0:
                yield len(idx)
                return
            mask = Z[idx, forest.feature[node]] < forest.cut[node]
            yield from walk(forest.left[node], Z, idx[mask])
            yield from walk(forest.left[node] + 1, Z, idx[~mask])

        Z = model.scaler.transform(X)
        for root in forest.roots:
            assert min(walk(root, Z, np.arange(30))) >= 5


class TestAdaBoostR2:
    def test_stump_fittable_exact_after_one_round(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        model = fit_model(ModelSpec("ada", n_estimators=50, seed=0), X, y)
        assert np.abs(model.predict(X) - y).max() == 0.0
        assert len(model.inner.stumps) == 1

    def test_constant_target(self):
        X = rng.normal(size=(20, 2))
        model = fit_model(ModelSpec("ada", n_estimators=10, seed=0), X, np.full(20, 2.5))
        preds = model.predict(X)
        assert len(np.unique(preds)) == 1
        assert preds[0] == pytest.approx(2.5, abs=1e-12)

    def test_no_column_predicts_the_mean(self):
        y = np.arange(10.0)
        model = fit_model(ModelSpec("ada", n_estimators=5, seed=0), np.empty((10, 0)), y)
        assert (model.inner.stumps["feature"] == -1).all()
        assert np.array_equal(model.predict(np.empty((3, 0))), np.full(3, 4.5))

    def test_training_mae_trend_decreases(self):
        gen = np.random.default_rng(3)
        X = gen.uniform(-1, 1, size=(200, 3))
        y = X @ np.array([1.0, 2.0, -1.0]) + gen.normal(0, 0.1, 200)
        model = fit_model(ModelSpec("ada", n_estimators=40, seed=1), X, y)
        inner = model.inner
        maes = []
        for k in range(1, len(inner.stumps) + 1):
            sub = copy.copy(inner)
            sub.stumps = inner.stumps[:k]
            sub.alphas = inner.alphas[:k]
            maes.append(np.mean(np.abs(sub.predict(model.scaler.transform(X)) - y)))
        assert maes[-1] < maes[0]
        assert np.mean(maes[-5:]) < np.mean(maes[:5])


class TestSelectFeatures:
    def test_keep_all(self):
        X = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        assert select_features(X, y, 5) == (0, 1, 2, 3, 4)

    def test_finds_generating_column(self):
        X = rng.normal(size=(60, 6))
        y = X[:, 3].copy()
        assert select_features(X, y, 1) == (3,)
        # oracle: exhaustive single-column fits agree column 3 is best
        errs = []
        for j in range(6):
            w = np.polyfit(X[:, j], y, 1)
            errs.append(np.mean((np.polyval(w, X[:, j]) - y) ** 2))
        assert int(np.argmin(errs)) == 3

    def test_deterministic(self):
        X = rng.normal(size=(30, 8))
        y = rng.normal(size=30)
        assert select_features(X, y, 3) == select_features(X, y, 3)


class TestPls:
    def test_single_column_direction(self):
        X = rng.normal(size=(25, 1))
        y = 2.0 * X[:, 0] + 1.0
        Z = Scaler(X).transform(X)
        scores = PlsProjection(Z, y, 1).transform(Z)[:, 0]
        ratio = scores / Z[:, 0]
        assert np.abs(ratio - ratio[0]).max() < 1e-9

    def test_orthogonal_scores(self):
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        Z = Scaler(X).transform(X)
        scores = PlsProjection(Z, y, 4).transform(Z)
        gram = scores.T @ scores
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8

    def test_full_components_equal_ols(self):
        X = rng.normal(size=(50, 5))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 0.7
        Z = Scaler(X).transform(X)
        pls = PlsProjection(Z, y, 5)
        design = np.column_stack([X, np.ones(50)])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        ols_pred = design @ coef
        assert np.abs(pls.predict(Z) - ols_pred).max() < 1e-6


class TestCrossValidate:
    def test_folds_partition_indices(self):
        parts = fold_indices(23, 7, seed=5)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(parts).tolist()) == list(range(23))

    def test_fold_assignment_depends_only_on_inputs(self):
        a = fold_indices(40, 7, seed=3)
        b = fold_indices(40, 7, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = fold_indices(40, 7, seed=4)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_same_seed_same_scores(self):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        spec = ModelSpec("rr", alpha=1.0)
        assert cross_validate(spec, X, y, 7, 5) == cross_validate(spec, X, y, 7, 5)

    def test_perfect_learner_on_duplicated_data(self):
        # pair indices across consecutive folds so every test row has an
        # exact train twin -> 1-NN reproduces y exactly, mean MAE is 0
        n, folds, seed = 28, 4, 0
        parts = fold_indices(n, folds, seed)  # equal sizes: 7 each
        X = np.empty((n, 3))
        y = np.empty(n)
        gen = np.random.default_rng(8)
        for left, right in ((parts[0], parts[1]), (parts[2], parts[3])):
            for idx_a, idx_b in zip(left, right):
                point = gen.normal(size=3)
                value = gen.normal()
                X[idx_a] = X[idx_b] = point
                y[idx_a] = y[idx_b] = value
        mean_mae, _ = cross_validate(ModelSpec("knn", k=1), X, y, folds=folds, seed=seed)
        assert mean_mae == 0.0


class TestGridSearch:
    def test_singleton_grid(self):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        spec = ModelSpec("rr", alpha=1.0)
        ranked = grid_search([spec], X, y, folds=4, seed=0)
        assert ranked[0][0] == spec and len(ranked) == 1

    def test_dominated_spec_never_first(self):
        X = rng.normal(size=(40, 3))
        y = X @ np.array([2.0, -1.0, 0.5])
        good = ModelSpec("rr", alpha=0.01)
        dominated = ModelSpec("rr", alpha=1e9)  # collapses to the mean
        ranked = grid_search([good, dominated], X, y, folds=5, seed=1)
        assert ranked[0][0] == good
        assert len(ranked) == 2

    def test_tie_keeps_grid_order(self):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        first = ModelSpec("knn", k=3)
        twin = ModelSpec("knn", k=3, seed=1)  # same behaviour, later in grid
        ranked = grid_search([first, twin], X, y, folds=4, seed=0)
        assert ranked[0][0] == first


class TestAverageTopK:
    def test_k_one_equals_best(self):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        ranked = grid_search([ModelSpec("rr", alpha=0.1), ModelSpec("knn", k=3)], X, y, 5, 0)
        ens = average_top_k(ranked, 1, X, y)
        best = fit_model(ranked[0][0], X, y)
        assert np.array_equal(ens.predict(X), best.predict(X))

    def test_identical_members_equal_any_one(self):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        spec = ModelSpec("rr", alpha=1.0)
        ens = average_top_k([(spec, 0.0), (spec, 0.0)], 2, X, y)
        assert np.abs(ens.predict(X) - fit_model(spec, X, y).predict(X)).max() < 1e-12

    def test_mean_of_two(self):
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        specs = [(ModelSpec("rr", alpha=0.1), 0.0), (ModelSpec("knn", k=5), 0.0)]
        ens = average_top_k(specs, 2, X, y)
        p = fit_model(specs[0][0], X, y).predict(X)
        q = fit_model(specs[1][0], X, y).predict(X)
        assert np.abs(ens.predict(X) - (p + q) / 2.0).max() < 1e-12

    def test_members_share_one_design_and_predict_as_if_alone(self):
        X = rng.normal(size=(40, 6))
        y = X[:, 0] - X[:, 2] + rng.normal(0.0, 0.1, 40)
        # members 0-2 and 3-4 each share one column selection; the RFE path
        # and PLS fit serve two specs each
        specs = [ModelSpec("knn", k=3), ModelSpec("knn", k=5), ModelSpec("rr", alpha=1.0),
                 ModelSpec("rr", alpha=1.0, n_features=4), ModelSpec("knn", k=3, n_features=4),
                 ModelSpec("rr", alpha=0.1, n_features=2), ModelSpec("knn", k=3, n_components=4),
                 ModelSpec("rr", alpha=1.0, n_components=2), ModelSpec("tree", n_estimators=10)]
        ens = average_top_k([(spec, 0.0) for spec in specs], len(specs), X, y)
        for m in (pickle.loads(pickle.dumps(ens)), ens):
            knn3, knn5, rr, rr_fs, knn_fs = m.members[:5]
            assert knn3.scaler is knn5.scaler is rr.scaler
            assert knn3.inner.Z is knn5.inner.Z
            assert rr_fs.scaler is knn_fs.scaler and rr_fs.selected == knn_fs.selected
        alone = [fit_model(spec, X, y) for spec in specs]
        for member, single in zip(ens.members, alone):
            assert member.predict(X).tobytes() == single.predict(X).tobytes(), member.spec
        want = np.mean([single.predict(X) for single in alone], axis=0)
        assert ens.predict(X).tobytes() == want.tobytes()


class TestSpecsAndGrids:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("svm")

    def test_preprocess_pipeline(self):
        X = rng.normal(size=(40, 10))
        y = X[:, 2] * 2.0 + rng.normal(0, 0.01, 40)
        spec = ModelSpec("rr", alpha=0.1, n_features=4, n_components=2)
        model = fit_model(spec, X, y)
        assert len(model.selected) == 4 and 2 in model.selected
        assert np.isfinite(model.predict(X)).all()

    def test_grids_are_well_formed(self):
        assert len(default_grid()) == 44
        assert all(isinstance(s, ModelSpec) for s in small_grid())

    def test_finite_predictions_on_train(self):
        X = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        for spec in small_grid():
            model = fit_model(spec, X, y)
            assert np.isfinite(model.predict(X)).all()


@pytest.fixture(scope="module")
def intensity_features(tmp_path_factory):
    """(X, y) of the synthetic intensity task: 400 train rows x 41 features."""
    from conftest import write_intensity_case
    from rtm.pipeline import STAGES, _read_features, parse_config, read_golds, run_stage

    root = tmp_path_factory.mktemp("intensity")
    cfg = parse_config(write_intensity_case(root))
    for stage in STAGES[:3]:
        run_stage(cfg, root / "out", stage)
    X = _read_features(root / "out" / "features_train.tsv")[2]
    return X, np.asarray(list(read_golds(cfg.train, cfg.task).values()))


def test_default_grid_cv_raises_no_floating_point_error(intensity_features):
    # 500 AdaBoost rounds drive sample weights toward 0 on this task; every
    # spec of the grid as it is (500 trees, 500 rounds) must cross-validate
    # with no overflow, division by 0, invalid operation or underflow.
    X, y = intensity_features
    with np.errstate(all="raise"):
        for spec in default_grid(seed=7):
            score, folds = cross_validate(spec, X, y, 7, 7)
            assert np.isfinite(folds).all(), spec.label()


def test_tree_cv_holds_one_forest_at_a_time(intensity_features):
    # The default grid's three 500-tree specs on ~103 training rows a fold,
    # as intensity-default's CV grows them, one block of 500 trees a forest:
    # int32 node fields, a fold's forest scored and dropped block by block,
    # and a level step that frees each row array once used keep the traced
    # peak near 4.6 MiB (6.2 MiB with the level step holding them all).
    X, y = (a[:120] for a in intensity_features)
    trees = [spec for spec in default_grid(seed=1) if spec.kind == "tree"]
    _, peak = traced_peak(grid_search, trees, X, y, 7, 1)
    assert peak < 5.5 * 2**20


@pytest.mark.parametrize("trees_per_block", [8, None])
@pytest.mark.parametrize("min_leaf", [1, 3, 5])
def test_tree_cv_scored_by_block_equals_reference(intensity_features, monkeypatch,
                                                  min_leaf, trees_per_block):
    # A fold's held-out predictions summed block by block are the whole
    # forest's predictions bit for bit, over 4 blocks of a 30-tree forest
    # (8 trees a block on 342 or 343 training rows) and over one block.
    X, y = intensity_features
    spec = ModelSpec("tree", min_leaf=min_leaf, n_estimators=30, seed=min_leaf)
    if trees_per_block:
        monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES",
                            trees_per_block * 8 * 343 * (3 * _DRAWS + 4))
    per_tree = 8 * 342 * (3 * _DRAWS + 4)
    assert len(rtm.learners._row_blocks(30, per_tree)) == (4 if trees_per_block else 1)
    scores = cross_validate(spec, X, y, 7, 3)[1]
    assert _hex(scores) == _hex(ref_cross_validate(spec, X, y, 7, 3, {})[1])


def test_tree_cv_fold_holds_one_block(monkeypatch):
    # One fold of a 500-tree leaf-1 forest on 514 training rows, grown in
    # 50-tree blocks: the fold scores each block and drops it, so its traced
    # peak reads near 2.2 MiB; storing the forest to predict read 16.6 MiB.
    g = np.random.default_rng(21)
    X = g.normal(size=(600, 41))
    y = X[:, 0] + g.normal(0.0, 0.3, 600)
    spec = ModelSpec("tree", min_leaf=1, seed=2)
    fold = _fold_shares([spec], X, y, 7, 2)[0]
    monkeypatch.setattr(rtm.learners, "_BLOCK_BYTES", 50 * 8 * 514 * (3 * _DRAWS + 4))
    assert len(fold.y_train) == 514

    def scored():
        return fold.held_out_predictions(fit_model(spec, fold.X, fold.y, fold))

    pred, peak = traced_peak(scored)
    assert peak < 6 << 20
    scaler = Scaler(X[fold.train])
    whole = _INNER["tree"](scaler.transform(X[fold.train]), y[fold.train], spec)
    want = whole.predict(scaler.transform(X[fold.test]))
    assert _hex(pred) == _hex(want)
    # the fold's model predicts like any other, growing its forest again
    assert _hex(fit_model(spec, fold.X, fold.y, fold).predict(X[fold.test])) == _hex(want)


# ---------------------------------------------------------------------------
# The work a grid's specs share on each fold.


def ref_cross_validate(spec, X, y, folds, seed, selections):
    """Per-spec CV with nothing shared: each fold fit runs its own scaler and
    PLS, and KNN sorts the fold's distances unblocked.  RFE runs to each
    ``m`` on its own; ``selections`` keeps its results for one (X, y)."""
    from test_learner_reference import ref_knn_predict

    parts = fold_indices(len(y), folds, seed)
    scores = []
    for i, test_idx in enumerate(parts):
        train_idx = np.concatenate([p for j, p in enumerate(parts) if j != i])
        Xtr, ytr, Xte = X[train_idx], y[train_idx], X[test_idx]
        if spec.n_features is not None:
            m = min(spec.n_features, X.shape[1])
            if (i, m) not in selections:
                selections[i, m] = select_features(Xtr, ytr, m)
            cols = selections[i, m]
            Xtr, Xte = Xtr[:, cols], Xte[:, cols]
        scaler = Scaler(Xtr)
        Ztr, Zte = scaler.transform(Xtr), scaler.transform(Xte)
        if spec.n_components is not None:
            pls = PlsProjection(Ztr, ytr, spec.n_components)
            Ztr, Zte = pls.transform(Ztr), pls.transform(Zte)
        if spec.kind == "knn":
            pred = ref_knn_predict(Ztr, ytr, min(spec.k, len(ytr)), Zte)
        else:
            pred = _INNER[spec.kind](Ztr, ytr, spec).predict(Zte)
        scores.append(float(np.mean(np.abs(pred - y[test_idx]))))
    return float(np.mean(scores)), scores


def _hex(values):
    return [float(v).hex() for v in values]


def _share_grid(base, n_columns):
    """``base`` with fewer trees and rounds, plus PLS specs, FS specs keeping
    every column (one clamped to the column count) and FS followed by PLS."""
    grid = [dataclasses.replace(s, n_estimators=10 if s.kind == "tree" else 20)
            if s.kind in ("tree", "ada") else s for s in base]
    return grid + [
        ModelSpec("rr", alpha=0.1, n_components=2, seed=3),
        ModelSpec("rr", alpha=0.1, n_components=8, seed=3),
        ModelSpec("rr", alpha=1.0, n_features=n_columns, seed=3),
        ModelSpec("rr", alpha=1.0, n_features=n_columns + 20, seed=3),
        ModelSpec("knn", k=9, n_features=8, n_components=4, seed=3),
        ModelSpec("rr", alpha=0.1, n_features=3, n_components=8, seed=3),
    ]


def _rank_two_matrix():
    """Two varying columns and six constant ones: PLS stops after two
    components, whatever it is asked for."""
    g = np.random.default_rng(3)
    X = np.column_stack([g.normal(size=90), g.normal(size=90), np.ones((90, 6)) * np.arange(6)])
    y = X[:, 0] - 0.5 * X[:, 1] + g.normal(0.0, 0.1, 90)
    return X, y


@pytest.fixture(scope="module")
def triples_final_matrix(tmp_path_factory):
    """(X, y) the combined stack's final grid searches: 400 instances x 87 columns."""
    import rtm.stacking
    from conftest import write_triples_case
    from rtm.pipeline import STAGES, parse_config, run_stage

    root = tmp_path_factory.mktemp("triples")
    cfg = parse_config(write_triples_case(root, "combined"))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        real = rtm.stacking.grid_search
        mp.setattr(rtm.stacking, "grid_search",
                   lambda specs, X, y, *args: seen.append((X, y)) or real(specs, X, y, *args))
        for stage in STAGES[:4]:
            run_stage(cfg, root / "out", stage)
    (X, y), = seen
    return X, y


@pytest.mark.parametrize("case", ["intensity", "intensity_duplicates", "triples", "rank_two"])
def test_grid_scores_equal_per_spec_cv(case, request):
    # Every spec's score in a grid search equals the spec cross-validated
    # alone and the unshared reference, bit for bit, fold by fold.
    if case == "rank_two":
        X, y = _rank_two_matrix()
        Z = Scaler(X).transform(X)
        assert PlsProjection(Z, y, 8).n_components == 2
    else:
        fixture = "triples_final_matrix" if case == "triples" else "intensity_features"
        X, y = request.getfixturevalue(fixture)
    # the triples stack's final grid is the small one
    grid = _share_grid(small_grid(seed=3) if case == "triples" else default_grid(seed=3),
                       X.shape[1])
    if case == "intensity_duplicates":
        # 40 repeated rows give KNN distance ties, some at distance 0
        X, y = np.vstack([X, X[:40]]), np.concatenate([y, y[:40] + 0.01])
        grid = [s for s in grid if s.kind == "knn" or (s.n_features or 0) >= X.shape[1]]
    selections = {}
    ranked = grid_search(grid, X, y, 7, 3)
    score = {spec: s for spec, s in ranked}
    for spec in grid:
        alone = cross_validate(spec, X, y, 7, 3)
        assert _hex(alone[1]) == _hex(ref_cross_validate(spec, X, y, 7, 3, selections)[1]), spec.label()
        assert score[spec].hex() == alone[0].hex(), spec.label()
    # an n_features past the column count is clamped, so the two specs
    # keeping every column tie, and the tie keeps grid order
    kept = ModelSpec("rr", alpha=1.0, n_features=X.shape[1], seed=3)
    clamped = ModelSpec("rr", alpha=1.0, n_features=X.shape[1] + 20, seed=3)
    assert score[kept] == score[clamped]
    order = [spec for spec, _ in ranked]
    assert order.index(kept) < order.index(clamped)


def test_grid_search_holds_one_copy_of_the_design():
    # A stack's final grid on a 1,200 x 87 design: the folds hold row
    # indices, and a fold's rows and scaled design live only inside the fit
    # that needs them.  With a copy of X, X_test and the scaled design kept
    # per fold for the whole grid, the traced peak read 18.7 MiB; it reads
    # near 8.7 MiB, most of it the trees' working set.
    g = np.random.default_rng(5)
    X = g.normal(size=(1200, 87))
    X[:, 80:] = X[:, :7]  # equal columns, as the stack design has
    y = X[:, 0] - 0.5 * X[:, 3] + g.normal(0.0, 0.3, 1200)
    grid = small_grid(seed=3)
    ranked, peak = traced_peak(grid_search, grid, X, y, 7, 3)
    assert peak < 12 << 20
    score = {spec: s for spec, s in ranked}
    selections = {}
    for spec in grid:
        assert score[spec].hex() == ref_cross_validate(spec, X, y, 7, 3, selections)[0].hex(), \
            spec.label()


def test_rfe_on_the_triples_final_design(triples_final_matrix):
    # 87 columns of rank 34, with constant columns and groups of equal
    # columns: each fold's path, and the full matrix's, is the per-step
    # reference's, and of two equal columns the higher index goes first
    from test_learner_reference import assert_twins_drop_higher_first, ref_elimination_order

    X, y = triples_final_matrix
    assert X.shape[1] == 87 and np.linalg.matrix_rank(X) < 87
    assert (np.ptp(X, axis=0) == 0).any()
    parts = fold_indices(len(y), 7, 3)
    for rows in [np.concatenate(parts[1:]), np.concatenate(parts[:-1]), np.arange(len(y))]:
        Xf, yf = X[rows], y[rows]
        path = _elimination_order(Xf, yf, 8)
        assert path == ref_elimination_order(Xf, yf, 8)
        assert_twins_drop_higher_first(Xf, path)


def test_shared_selections_equal_select_features(intensity_features):
    X, y = intensity_features
    share = _Share([ModelSpec("rr", alpha=1.0, n_features=1)], X, y)
    for m in (1, 2, 8, 16, 40, 41, 60):
        assert share.selection(m) == select_features(X, y, min(m, X.shape[1])), m


@pytest.mark.parametrize("case", ["intensity", "rank_two"])
def test_pls_prefixes_equal_direct_fits(case, request):
    X, y = request.getfixturevalue("intensity_features") if case == "intensity" else _rank_two_matrix()
    Z = Scaler(X).transform(X)
    full = PlsProjection(Z, y, 8)
    for k in (1, 2, 4, 8):
        head, direct = full.prefix(k), PlsProjection(Z, y, k)
        for name in ("W", "P", "Q"):
            a, b = getattr(head, name), getattr(direct, name)
            assert a.strides == b.strides and a.tobytes() == b.tobytes(), (k, name)
        assert head.y_mean == direct.y_mean
        assert head.transform(Z).tobytes() == direct.transform(Z).tobytes(), k
    with pytest.raises(ValueError):
        full.prefix(0)


def test_grid_search_refuses_non_finite_score():
    X = rng.normal(size=(40, 3))
    y = X[:, 0] + rng.normal(0.0, 0.1, 40)
    X[5, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=r"rr\(alpha=1\) has a non-finite CV MAE"):
            grid_search([ModelSpec("knn", k=3), ModelSpec("rr", alpha=1.0)], X, y, 5, 0)
