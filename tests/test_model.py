"""Mapping model: planted-truth recovery, optimality, serialization."""

import random
from math import fsum
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textpersona.errors import InputFormatError, PipelineError
from textpersona.lexicon import FeatureMatrix
from textpersona.model import (
    TRAITS,
    BigFive,
    MappingModel,
    fit,
    load_model,
    predict,
    read_scores_csv,
    save_model,
    summarize_scores,
    write_scores_csv,
)

CATS = [f"cat{i}" for i in range(30)]


def matrix(rows):
    """A FeatureMatrix of (user_id, values) pairs over the first categories, 100 tokens each."""
    rows = [(uid, tuple(map(float, values))) for uid, values in rows]
    names = tuple(CATS[: len(rows[0][1])])
    return FeatureMatrix(names, tuple(uid for uid, _ in rows), (100,) * len(rows), tuple(v for _, v in rows))


def make_planted(n, k, seed, noise_sd=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 20.0, size=(n, k))
    W = rng.normal(size=(k, 5))
    b = rng.normal(size=5) * 10.0 + 50.0
    Y = X @ W + b + (noise_sd * rng.normal(size=(n, 5)) if noise_sd else 0.0)
    features = matrix((f"u{i:04d}", X[i]) for i in range(n))
    labels = [(f"u{i:04d}", BigFive(*Y[i])) for i in range(n)]
    return features, labels, W, b, X, Y


def ridge_objective(W, b, X, Y, lam):
    resid = Y - (X @ W + b)
    return float(np.sum(resid**2) + lam * np.sum(W**2))


def ridge_gradient(W, b, X, Y, lam):
    resid = X @ W + b - Y
    gW = 2.0 * X.T @ resid + 2.0 * lam * W
    gb = 2.0 * resid.sum(axis=0)
    return gW, gb


def test_identity_design_recovers_identity():
    k = 5
    X = np.eye(k) * 10.0
    X = np.vstack([X, np.zeros((1, k))])  # 6 points: full-rank centered design
    features = matrix((f"u{i}", X[i]) for i in range(len(X)))
    labels = [(f"u{i}", BigFive(*X[i])) for i in range(len(X))]
    model = fit(features, labels, ridge_lambda=0.0)
    assert np.allclose(model.W, np.eye(k), atol=1e-8)
    assert np.allclose(model.b, np.zeros(5), atol=1e-8)


def test_noiseless_planted_recovery():
    features, labels, W, b, _, _ = make_planted(100, 30, seed=1)
    model = fit(features, labels, ridge_lambda=0.0)
    assert np.linalg.norm(model.W - W) < 1e-6
    assert np.linalg.norm(model.b - b) < 1e-6


def test_noisy_heldout_rmse_under_two_sigma():
    sigma = 1.0
    for seed in range(5):
        features, labels, W, b, X, _ = make_planted(100, 30, seed=seed, noise_sd=sigma)
        ids = sorted(features.user_ids)
        random.Random(seed).shuffle(ids)
        train_set = set(ids[int(len(ids) * 0.3):])  # 30% held out
        model = fit(
            matrix((u, X[i]) for i, u in enumerate(features.user_ids) if u in train_set),
            [(u, s) for u, s in labels if u in train_set],
            ridge_lambda=1.0,
        )
        test_features = matrix((u, X[i]) for i, u in enumerate(features.user_ids) if u not in train_set)
        scores, _ = predict(model, test_features)
        idx = {f"u{i:04d}": i for i in range(len(features.user_ids))}
        truth = {u: X[idx[u]] @ W + b for u, _ in scores}
        err = np.array([np.array(s) - truth[u] for u, s in scores])
        rmse = float(np.sqrt(np.mean(err**2)))
        assert rmse < 2 * sigma, (seed, rmse)


def test_gradient_zero_at_fit_and_matches_finite_differences():
    for seed in range(3):
        features, labels, _, _, X, Y = make_planted(20, 8, seed=seed, noise_sd=1.0)
        lam = 0.7
        model = fit(features, labels, ridge_lambda=lam)
        W, b = np.array(model.W), np.array(model.b)
        order = np.argsort(features.user_ids)
        Xs, Ys = X[order], Y[order]
        gW, gb = ridge_gradient(W, b, Xs, Ys, lam)
        h = 1e-5
        fd_W = np.zeros_like(W)
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd_W[i, j] = (
                    ridge_objective(Wp, b, Xs, Ys, lam)
                    - ridge_objective(Wm, b, Xs, Ys, lam)
                ) / (2 * h)
        fd_b = np.zeros_like(b)
        for j in range(5):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            fd_b[j] = (
                ridge_objective(W, bp, Xs, Ys, lam)
                - ridge_objective(W, bm, Xs, Ys, lam)
            ) / (2 * h)
        scale = max(1.0, ridge_objective(W, b, Xs, Ys, lam))
        assert np.linalg.norm(gW - fd_W) / scale < 1e-6
        assert np.linalg.norm(gb - fd_b) / scale < 1e-6
        # analytic gradient itself vanishes at the minimum
        assert np.linalg.norm(gW) / scale < 1e-6
        assert np.linalg.norm(gb) / scale < 1e-6


@pytest.mark.parametrize(
    "n, k, seed, noise_sd, lam",
    [
        (100, 30, 1, 0.0, 0.0),
        (100, 30, 2, 1.0, 1.0),
        (20, 8, 3, 1.0, 0.7),
        (10, 30, 4, 2.0, 1.0),  # fewer users than categories: only ridge makes it solvable
        (50, 6, 5, 1.0, 100.0),
    ],
)
def test_fit_matches_lstsq_on_augmented_ridge_system(n, k, seed, noise_sd, lam):
    """Oracle: min ||[X 1; sqrt(lam) I 0] [W; b] - [Y; 0]||, solved by numpy."""
    features, labels, _, _, X, Y = make_planted(n, k, seed=seed, noise_sd=noise_sd)
    model = fit(features, labels, ridge_lambda=lam)
    A = np.block([[X, np.ones((n, 1))], [np.sqrt(lam) * np.eye(k), np.zeros((k, 1))]])
    rhs = np.vstack([Y, np.zeros((k, 5))])
    solution = np.linalg.lstsq(A, rhs, rcond=None)[0]
    W, b = solution[:k], solution[k]
    assert np.abs(model.W - W).max() <= 1e-9 * np.abs(W).max()
    assert np.abs(model.b - b).max() <= 1e-9 * np.abs(b).max()


def test_fit_collinear_columns_lambda_zero_suggests_ridge():
    # plenty of users, but column 3 is twice column 1: rank K-1
    features, labels, _, _, X, _ = make_planted(40, 5, seed=14)
    X[:, 3] = 2.0 * X[:, 1]
    features = matrix(zip(features.user_ids, X))
    with pytest.raises(PipelineError, match="ridge"):
        fit(features, labels, ridge_lambda=0.0)
    fit(features, labels, ridge_lambda=1.0)


def test_ridge_norm_monotone_in_lambda():
    features, labels, _, _, _, _ = make_planted(40, 10, seed=3, noise_sd=2.0)
    norms = [
        float(np.linalg.norm(fit(features, labels, lam).W))
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_affine_label_equivariance():
    features, labels, _, _, _, _ = make_planted(50, 6, seed=4, noise_sd=1.0)
    s, t = 2.5, -7.0
    scaled = [(u, BigFive(*(s * v + t for v in y))) for u, y in labels]
    m1 = fit(features, labels, ridge_lambda=0.0)
    m2 = fit(features, scaled, ridge_lambda=0.0)
    W1, b1 = np.array(m1.W), np.array(m1.b)
    assert np.allclose(m2.W, s * W1, atol=1e-8)
    assert np.allclose(m2.b, s * b1 + t, atol=1e-8)


def test_predict_zero_vector_returns_intercept():
    features, labels, _, _, _, _ = make_planted(30, 4, seed=5)
    model = fit(features, labels, ridge_lambda=1.0)
    (uid_score,), _ = predict(model, matrix([("z", [0.0] * 4)]))
    assert np.allclose(uid_score[1], model.b)



def test_predict_with_no_categories_returns_intercept():
    model = MappingModel((), (), (1.0, 2.0, 3.0, 4.0, 5.0), ridge_lambda=1.0, n_train=2)
    (uid_score,), _ = predict(model, FeatureMatrix((), ("u",), (5,), ((),)))
    assert uid_score[1] == model.b


def test_predict_round_trip_noiseless():
    features, labels, _, _, _, _ = make_planted(100, 30, seed=6)
    model = fit(features, labels, ridge_lambda=0.0)
    scores, skipped = predict(model, features)
    assert not skipped
    truth = dict(labels)
    for uid, score in scores:
        assert np.allclose(score, truth[uid], atol=1e-6)


def dense_scores(model, features):
    """Every cell multiplied and summed, zeros included: the hex of each user's five scores."""
    w_cols = [[row[t] for row in model.W] for t in range(len(TRAITS))]
    return [
        (uid, [round(fsum([*map(mul, x, w_col), b_t]), 6).hex() for w_col, b_t in zip(w_cols, model.b)])
        for uid, count, x in zip(features.user_ids, features.token_counts, features.rows)
        if count
    ]


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_predict_equals_the_dense_sum_bit_for_bit(data):
    """Rows at least 70% zero, all-zero rows of users with tokens, and signed zeros in W and b."""
    k = data.draw(st.integers(10, 30))
    # large weights of both signs cancel, which only a correctly rounded sum survives
    weight = st.floats(-1e3, 1e3) | SIGNED_ZEROS | st.sampled_from([5e-324, -5e-324, 1e-300, 1e15, -1e15])
    W = tuple(tuple(data.draw(weight) for _ in TRAITS) for _ in range(k))
    b = tuple(data.draw(weight | SIGNED_ZEROS) for _ in TRAITS)
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        row = [0.0] * k
        for i in data.draw(st.sets(st.integers(0, k - 1), max_size=3 * k // 10)):
            row[i] = data.draw(st.floats(0.0, 100.0, exclude_min=True) | st.sampled_from([5e-324, 100.0]))
        rows.append(tuple(row))
    counts = tuple(data.draw(st.integers(0, 50)) for _ in rows)
    features = FeatureMatrix(tuple(CATS[:k]), tuple(f"u{i}" for i in range(len(rows))), counts, tuple(rows))
    model = MappingModel(features.names, W, b, ridge_lambda=1.0, n_train=2)
    scores, skipped = predict(model, features)
    assert [(uid, [v.hex() for v in score]) for uid, score in scores] == dense_scores(model, features)
    assert skipped == [uid for uid, count in zip(features.user_ids, counts) if not count]


def dense_outcome(model, features):
    """Each user with tokens and BigFive(*(round(fsum([*(x_i * W[i][t] for every i), b_t]), 6) for t)),
    or the error predict must raise: the one naming the first of them whose sum fails."""
    scores = []
    for uid, count, x in zip(features.user_ids, features.token_counts, features.rows):
        if not count:
            continue
        try:
            terms = [[x_i * w_row[t] for x_i, w_row in zip(x, model.W)] for t in range(len(TRAITS))]
            scores.append((uid, BigFive(*(round(fsum([*terms_t, b_t]), 6) for terms_t, b_t in zip(terms, model.b)))))
        except (OverflowError, ValueError):
            return f"the scores of user {uid!r} overflow the float range"
    return scores


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_predict_reuses_weighted_cells_and_fails_as_the_dense_sum_does(data):
    """Few distinct cell values, so one user's weighted cells are the next one's;
    users without tokens; tiny weights and intercepts whose scores round to
    -0.0; and weights so large that some user's sum overflows."""
    k = data.draw(st.integers(1, 5))
    weight = st.sampled_from([0.0, -0.0, 1e-9, -1e-9, -3e-7, 2.5, -1.25]) | st.sampled_from([1e307, -1e307, 1.7e308])
    W = tuple(tuple(data.draw(weight) for _ in TRAITS) for _ in range(k))
    b = tuple(data.draw(st.sampled_from([0.0, -0.0, -4e-7, 4e-7, 1.5, -1e308])) for _ in TRAITS)
    values = data.draw(st.lists(st.floats(0.0, 100.0, exclude_min=True), min_size=1, max_size=3))
    cell = st.just(0.0) | st.sampled_from(values)
    rows, counts = [], []
    for _ in range(data.draw(st.integers(1, 8))):
        counts.append(data.draw(st.integers(0, 2)))
        rows.append(tuple(data.draw(cell) if counts[-1] else 0.0 for _ in range(k)))
    features = FeatureMatrix(tuple(CATS[:k]), tuple(f"u{i}" for i in range(len(rows))), tuple(counts), tuple(rows))
    model = MappingModel(features.names, W, b, ridge_lambda=1.0, n_train=2)
    expected = dense_outcome(model, features)
    if isinstance(expected, str):
        with pytest.raises(PipelineError) as err:
            predict(model, features)
        assert str(err.value) == expected
        return
    scores, skipped = predict(model, features)
    assert [(uid, [v.hex() for v in score]) for uid, score in scores] == [
        (uid, [v.hex() for v in score]) for uid, score in expected
    ]
    assert all(type(score) is BigFive for _, score in scores)
    assert skipped == [uid for uid, count in zip(features.user_ids, counts) if not count]


@pytest.mark.parametrize("b", [(0.0,) * 5, (-0.0,) * 5, (-0.0, 0.0, -0.0, 1e-9, -1e-9)])
@pytest.mark.parametrize("w", [0.0, -0.0, -2.5])
def test_predict_keeps_the_dense_sign_of_a_zero_score(b, w):
    """An all-zero row of a user with tokens scores b, rounded as the dense sum rounds it."""
    k = 10
    model = MappingModel(tuple(CATS[:k]), ((w,) * 5,) * k, b, ridge_lambda=1.0, n_train=2)
    features = FeatureMatrix(model.category_names, ("u", "v"), (3, 3), ((0.0,) * k, (0.0,) * (k - 1) + (1e-12,)))
    scores, _ = predict(model, features)
    assert [(uid, [v.hex() for v in score]) for uid, score in scores] == dense_scores(model, features)


def test_predict_skips_degenerate():
    features, labels, _, _, _, _ = make_planted(10, 3, seed=7)
    model = fit(features, labels, ridge_lambda=1.0)
    with_degenerate = FeatureMatrix(
        features.names,
        features.user_ids + ("empty",),
        features.token_counts + (0,),
        features.rows + ((0.0,) * 3,),
    )
    scores, skipped = predict(model, with_degenerate)
    assert skipped == ["empty"]
    assert len(scores) == 10


def test_predict_name_mismatch_names_the_culprit():
    features, labels, _, _, _, _ = make_planted(10, 3, seed=8)
    model = fit(features, labels, ridge_lambda=1.0)
    wrong = FeatureMatrix(("cat0", "WRONG", "cat2"), ("w",), (5,), ((1.0, 2.0, 3.0),))
    with pytest.raises(PipelineError, match="cat1.*WRONG|WRONG.*cat1"):
        predict(model, wrong)


def test_fit_requires_two_users():
    features, labels, _, _, _, _ = make_planted(10, 3, seed=9)
    with pytest.raises(PipelineError, match="2 distinct"):
        fit(features, labels[:1], ridge_lambda=1.0)


def test_fit_refuses_a_repeated_label_naming_the_user():
    """A label given twice would be trained on twice."""
    features, labels, _, _, _, _ = make_planted(10, 3, seed=10)
    with pytest.raises(PipelineError, match="'u0003' appears more than once"):
        fit(features, labels + [labels[3]], ridge_lambda=1.0)


def test_fit_missing_features_names_user():
    features, labels, _, _, _, _ = make_planted(10, 3, seed=10)
    labels.append(("phantom", BigFive(50, 50, 50, 50, 50)))
    with pytest.raises(PipelineError, match="phantom"):
        fit(features, labels, ridge_lambda=1.0)


def test_fit_rank_deficient_lambda_zero_suggests_ridge():
    # K=5 but only 3 users: centered design cannot have rank 5
    features, labels, _, _, _, _ = make_planted(3, 5, seed=11)
    with pytest.raises(PipelineError, match="ridge"):
        fit(features, labels, ridge_lambda=0.0)
    fit(features, labels, ridge_lambda=1.0)  # ridge fixes it


def test_summarize_scores():
    one = summarize_scores([BigFive(40, 50, 60, 70, 80)])
    assert one["O"] == (40.0, 0.0)
    two = summarize_scores([BigFive(40, 0, 0, 0, 0), BigFive(60, 0, 0, 0, 0)])
    assert two["O"] == (50.0, 10.0)
    with pytest.raises(PipelineError, match="cannot summarize an empty score list"):
        summarize_scores([])


def test_model_json_round_trip_bit_exact(tmp_path):
    features, labels, _, _, _, _ = make_planted(30, 7, seed=12, noise_sd=0.3)
    model = fit(features, labels, ridge_lambda=0.25)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.category_names == model.category_names
    assert back.n_train == model.n_train
    assert back.ridge_lambda == model.ridge_lambda
    assert back.W == model.W
    assert back.b == model.b
    # a second save is byte-identical
    path2 = tmp_path / "model2.json"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()



@given(
    st.lists(
        st.tuples(st.text(), st.lists(st.integers(-10**12, 10**12), min_size=5, max_size=5)),
        max_size=5,
    )
)
@settings(max_examples=300, deadline=None)
def test_scores_csv_round_trips_any_user_id(tmp_path_factory, rows):
    """Ids with commas, quotes or line breaks come back whole; 6-decimal scores exactly.

    A file with an empty or a repeated id is refused instead.
    """
    scores = [(uid, BigFive(*(k / 10**6 for k in micros))) for uid, micros in rows]
    path = tmp_path_factory.getbasetemp() / "round_trip_scores.csv"
    write_scores_csv(scores, path)
    ids = [uid for uid, _ in scores]
    if "" in ids or len(set(ids)) < len(ids):
        with pytest.raises(InputFormatError, match="empty user_id|repeats line"):
            read_scores_csv(path)
    else:
        assert read_scores_csv(path) == scores


def test_fit_deterministic_under_input_order():
    features, labels, _, _, _, _ = make_planted(30, 7, seed=13, noise_sd=0.3)
    m1 = fit(features, labels, ridge_lambda=1.0)
    reversed_features = FeatureMatrix(
        features.names, features.user_ids[::-1], features.token_counts[::-1], features.rows[::-1]
    )
    m2 = fit(reversed_features, labels[::-1], ridge_lambda=1.0)
    assert m1.W == m2.W and m1.b == m2.b


def test_traits_constant():
    assert TRAITS == ("O", "C", "E", "A", "N")
