import math
import statistics

import numpy as np
import pytest

from dlab.embed import EmbeddingMatrix
from dlab.model import (
    LABELS,
    Features,
    ModelFileError,
    ModelParams,
    TrainConfig,
    build_features,
    compute_report,
    encode_labels,
    evaluate,
    focal_loss_batch,
    load_model,
    predict,
    save_model,
    significance_test,
    train,
)
from dlab.sampler import ContextItem, ContextSet


# ---------------------------------------------------------------------------
# focal loss

def test_focal_loss_frozen_value():
    # softmax of (ln .7, ln .3) is (.7, .3); FL = 0.5 * 0.3^2 * (-ln 0.7)
    logits = np.array([[math.log(0.7), math.log(0.3)]])
    losses, grads = focal_loss_batch(logits, np.array([0]), np.array([0.5]), 2.0)
    assert losses[0] == pytest.approx(0.016050372477242958, rel=1e-12)
    assert grads.shape == (1, 2)
    assert grads[0, 0] < 0 < grads[0, 1]  # pushes probability toward the true class
    assert grads[0].sum() == pytest.approx(0.0, abs=1e-15)


def test_focal_gamma_zero_is_weighted_cross_entropy():
    rng = np.random.default_rng(0)
    n = 20
    z = rng.uniform(-3, 3, size=(n, 2))
    y = rng.integers(2, size=n)
    alpha_t = rng.uniform(0.2, 2.0, size=n)
    losses, grads = focal_loss_batch(z, y, alpha_t, 0.0)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    for i in range(n):
        want_loss = -alpha_t[i] * math.log(p[i, y[i]])
        want_grad = alpha_t[i] * (p[i] - np.eye(2)[y[i]])
        assert losses[i] == pytest.approx(want_loss, rel=1e-12)
        assert np.allclose(grads[i], want_grad, rtol=1e-12, atol=1e-15)


def test_focal_gradient_vanishes_when_true_class_saturates():
    losses, grads = focal_loss_batch(np.array([[1000.0, -1000.0]]), np.array([0]),
                                     np.array([0.5]), 2.0)
    assert losses[0] == 0.0
    assert np.array_equal(grads, np.zeros((1, 2)))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_focal_gradient_matches_central_differences(gamma):
    rng = np.random.default_rng(int(gamma * 10) + 1)
    h = 1e-6
    n = 20
    z = rng.uniform(-3, 3, size=(n, 2))
    y = rng.integers(2, size=n)
    alpha_t = rng.uniform(0.2, 2.0, size=n)
    # each draw's logits, then logit j moved by +h and -h for j = 0, 1
    steps = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    rows = (z[:, None, :] + steps).reshape(-1, 2)
    losses, grads = focal_loss_batch(rows, np.repeat(y, 5), np.repeat(alpha_t, 5), gamma)
    losses, grads = losses.reshape(n, 5), grads.reshape(n, 5, 2)[:, 0]
    for j in range(2):
        numeric = (losses[:, 1 + 2 * j] - losses[:, 2 + 2 * j]) / (2 * h)
        denom = np.maximum(np.maximum(abs(numeric), abs(grads[:, j])), 1e-6)
        assert (abs(numeric - grads[:, j]) / denom < 1e-4).all()


def scalar_focal_loss(logits, t, gamma, alpha):
    """Oracle: the focal loss of one example, written out scalar by scalar."""
    z = np.asarray(logits, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    zmax = z.max()
    logp = z - (zmax + math.log(np.exp(z - zmax).sum()))
    p = np.exp(logp)
    pt, log_pt = p[t], logp[t]
    one_minus = 1.0 - pt
    at = alpha[t]

    loss = -at * one_minus ** gamma * log_pt
    if gamma == 0.0:
        coeff = 1.0
    elif one_minus == 0.0:
        coeff = 0.0  # limit of (1-p)^g - g p (1-p)^{g-1} log p as p -> 1
    else:
        coeff = one_minus ** gamma - gamma * pt * one_minus ** (gamma - 1.0) * log_pt
    onehot = np.zeros(2)
    onehot[t] = 1.0
    grad = at * coeff * (p - onehot)
    return float(loss), grad


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.7])
def test_focal_batch_kernel_matches_scalar_oracle(gamma):
    rng = np.random.default_rng(int(gamma * 10) + 100)
    n = 64
    z = rng.uniform(-6, 6, size=(n, 2))
    z[:4] = [[800.0, -800.0], [-800.0, 800.0], [40.0, -40.0], [0.0, 0.0]]  # saturated p_t
    y = rng.integers(2, size=n)
    y[:2] = [0, 1]
    alpha = rng.uniform(0.1, 3.0, size=(n, 2))
    alpha_t = alpha[np.arange(n), y]
    losses, grads = focal_loss_batch(z, y, alpha_t, gamma)
    assert losses.shape == (n,) and grads.shape == (n, 2)
    for i in range(n):
        want_loss, want_grad = scalar_focal_loss(z[i], y[i], gamma, alpha[i])
        assert losses[i] == pytest.approx(want_loss, rel=1e-12, abs=1e-300)
        assert np.allclose(grads[i], want_grad, rtol=1e-12, atol=1e-300)
    assert not grads[:2].any()  # the limit at p_t = 1 is an exact zero


# ---------------------------------------------------------------------------
# training

def factored(X):
    """Features whose rows are the rows of X: each row's two halves become
    two rows of the block."""
    X = np.asarray(X, dtype=np.float64)
    n, dim = X.shape
    return Features(X.reshape(2 * n, dim // 2), np.arange(2 * n).reshape(n, 2))


def separable_dataset(n=40, seed=0, spread=0.2):
    """(features, y): class 0 (NTA) around x=-1, class 1 (YTA) around x=+1."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for i in range(n):
        label = i % 2
        center = -1.0 if label == 0 else 1.0
        X.append(np.array([center, 0.0]) + rng.normal(0, spread, size=2))
        y.append(label)
    return factored(X), np.array(y)


def test_train_fits_separable_data():
    X, y = separable_dataset()
    cfg = TrainConfig(epochs=150, learning_rate=0.05, batch_size=8, seed=1)
    params = train(X, y, cfg)
    report = evaluate(params, X, y)
    assert report.accuracy == 1.0
    assert params.loss_history[-1] < params.loss_history[0]
    assert len(params.loss_history) == 150


def test_train_zero_learning_rate_keeps_zero_params():
    X, y = separable_dataset(n=16)
    cfg = TrainConfig(epochs=3, learning_rate=0.0, batch_size=4, seed=0)
    params = train(X, y, cfg)
    assert not params.weights.any()
    assert not params.bias.any()
    # constant loss at the zero point, every epoch
    assert params.loss_history == pytest.approx([params.loss_history[0]] * 3)


def test_train_deterministic_and_seed_sensitive():
    X, y = separable_dataset(n=40)
    cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=8, seed=5)
    a, b = train(X, y, cfg), train(X, y, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert a.loss_history == b.loss_history
    other = train(X, y, TrainConfig(epochs=3, learning_rate=0.01, batch_size=8, seed=6))
    assert not np.array_equal(a.weights, other.weights)


def test_train_default_alpha_is_inverse_frequency():
    # 3 NTA to 1 YTA: alpha = (n/(2*3), n/(2*1)) = (2/3, 2)
    X = factored([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
    params = train(X, encode_labels(["NTA"] * 3 + ["YTA"]), TrainConfig(epochs=1, learning_rate=0.01))
    assert params.alpha == pytest.approx((2.0 / 3.0, 2.0))


def test_train_single_class_needs_explicit_alpha():
    X, y = factored([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0])
    with pytest.raises(ValueError, match="lacks a class"):
        train(X, y, TrainConfig(epochs=1))
    params = train(X, y, TrainConfig(epochs=1, focal_alpha=(0.5, 0.5)))
    assert params.alpha == (0.5, 0.5)


def test_train_validation():
    with pytest.raises(ValueError, match="empty"):
        train(factored(np.zeros((0, 2))), np.zeros(0, dtype=np.int64), TrainConfig())
    with pytest.raises(ValueError, match="shape"):
        train(factored(np.zeros((2, 2))), np.zeros(3, dtype=np.int64), TrainConfig())
    with pytest.raises(ValueError, match="shape"):
        train(factored(np.zeros((2, 2))), np.zeros((2, 1), dtype=np.int64), TrainConfig())
    with pytest.raises(ValueError, match="labels"):
        train(factored(np.zeros((2, 2))), np.array([0, 2]), TrainConfig())
    with pytest.raises(ValueError, match="labels"):
        evaluate(ModelParams(weights=np.zeros((2, 2)), bias=np.zeros(2), gamma=2.0,
                             alpha=(0.5, 0.5), seed=0, epochs=0, learning_rate=0.0),
                 factored(np.zeros((1, 2))), np.array(["NTA"]))
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(focal_alpha=(0.5, 0.0))
    with pytest.raises(ValueError):
        TrainConfig(focal_gamma=-0.5)
    for alpha in ((0.5,), (0.5, 1.0, 2.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="focal_alpha"):
            TrainConfig(focal_alpha=alpha)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="focal_gamma"):
            TrainConfig(focal_gamma=gamma)
    for rate in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    assert encode_labels(["NTA", "YTA", 1, 0]).tolist() == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        encode_labels(["MAYBE"])


def test_predict_tie_goes_to_nta():
    params = ModelParams(weights=np.zeros((2, 2)), bias=np.zeros(2), gamma=2.0,
                         alpha=(0.5, 0.5), seed=0, epochs=0, learning_rate=0.0)
    assert predict(params, factored([[3.0, -4.0], [0.0, 0.0]])).tolist() == [0, 0]
    # rows wider than the weights
    with pytest.raises(ValueError):
        predict(params, factored([[3.0, -4.0, 1.0, 0.0]]))


# ---------------------------------------------------------------------------
# evaluation reports

def test_compute_report_confusion_fixture():
    # YTA: TP 3, FP 1, FN 2; NTA correct 4
    y_true = ["YTA"] * 3 + ["NTA"] * 1 + ["YTA"] * 2 + ["NTA"] * 4
    y_pred = ["YTA"] * 3 + ["YTA"] * 1 + ["NTA"] * 2 + ["NTA"] * 4
    report = compute_report(y_true, y_pred)
    assert report.n == 10
    assert report.accuracy == pytest.approx(0.7)
    yta = report.per_class["YTA"]
    assert yta.precision == pytest.approx(3 / 4)
    assert yta.recall == pytest.approx(3 / 5)
    assert yta.f1 == pytest.approx(2 / 3)
    nta = report.per_class["NTA"]
    assert nta.precision == pytest.approx(4 / 6)
    assert nta.recall == pytest.approx(4 / 5)
    assert nta.f1 == pytest.approx(8 / 11)
    assert report.macro_f1 == pytest.approx(23 / 33)
    assert report.correctness.tolist() == [1, 1, 1, 0, 0, 0, 1, 1, 1, 1]


def test_compute_report_majority_class_on_70_30():
    y_true = ["NTA"] * 70 + ["YTA"] * 30
    y_pred = ["NTA"] * 100
    report = compute_report(y_true, y_pred)
    assert report.accuracy == pytest.approx(0.7, abs=1e-12)
    assert report.per_class["NTA"].f1 == pytest.approx(14 / 17)
    assert report.per_class["YTA"].f1 == 0.0
    assert report.macro_f1 == pytest.approx(7 / 17, abs=1e-12)


def test_compute_report_warns_on_absent_class():
    with pytest.warns(UserWarning, match="absent"):
        report = compute_report(["NTA", "NTA"], ["NTA", "NTA"])
    assert report.macro_f1 == pytest.approx(0.5)


def test_compute_report_validation():
    with pytest.raises(ValueError):
        compute_report([], [])
    with pytest.raises(ValueError):
        compute_report(["NTA"], ["NTA", "YTA"])


# ---------------------------------------------------------------------------
# significance

def student_t_two_sided_p(t, df):
    """Two-sided tail mass by Simpson integration of the t density."""
    norm = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)

    def pdf(x):
        return norm * (1 + x * x / df) ** (-(df + 1) / 2)

    T = abs(t)
    n = 20001  # odd point count over [-T, T]
    xs = np.linspace(-T, T, n)
    ys = np.array([pdf(x) for x in xs])
    h = xs[1] - xs[0]
    central = (h / 3) * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())
    return 1.0 - central


def welch_oracle(a, b):
    ma, mb = statistics.fmean(a), statistics.fmean(b)
    va, vb = statistics.variance(a), statistics.variance(b)
    se2 = va / len(a) + vb / len(b)
    t = (ma - mb) / math.sqrt(se2)
    df = se2 ** 2 / ((va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1))
    return t, student_t_two_sided_p(t, df)


def test_significance_matches_numeric_oracle():
    a = [1] * 30 + [0] * 10
    b = [1] * 20 + [0] * 20
    t, p = significance_test(a, b)
    want_t, want_p = welch_oracle(a, b)
    assert t == pytest.approx(want_t, rel=1e-12)
    assert p == pytest.approx(want_p, rel=1e-6)
    assert 0.0 < p < 1.0 and t > 0


def test_significance_equal_samples_insignificant():
    a = [1, 0, 1, 0, 1]
    t, p = significance_test(a, list(a))
    assert (t, p) == (0.0, 1.0)


def test_significance_zero_variance_conventions():
    t, p = significance_test([1, 1, 1], [0, 0, 0])
    assert t == math.inf and p == 0.0
    t, p = significance_test([0, 0], [1, 1])
    assert t == -math.inf and p == 0.0
    assert significance_test([1, 1], [1, 1]) == (0.0, 1.0)


def test_significance_needs_two_per_side():
    with pytest.raises(ValueError):
        significance_test([1], [0, 1])
    with pytest.raises(ValueError):
        significance_test([0, 1], [])


# ---------------------------------------------------------------------------
# serialization

def test_model_roundtrip(tmp_path):
    params = train(*separable_dataset(n=16),
                   TrainConfig(epochs=4, learning_rate=0.05, batch_size=4, seed=2))
    path = tmp_path / "model.txt"
    save_model(params, path)
    back = load_model(path)
    assert np.array_equal(back.weights, params.weights)
    assert np.array_equal(back.bias, params.bias)
    assert back.gamma == params.gamma and back.alpha == params.alpha
    assert back.seed == params.seed and back.epochs == params.epochs
    assert back.loss_history == params.loss_history


def test_model_file_tamper_detected(tmp_path):
    params = train(*separable_dataset(n=8),
                   TrainConfig(epochs=1, learning_rate=0.05))
    path = tmp_path / "model.txt"
    save_model(params, path)
    text = path.read_text()
    lines = text.splitlines()
    lines[1] = ("A" + lines[1][1:]) if not lines[1].startswith("A") else ("B" + lines[1][1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFileError, match="checksum"):
        load_model(path)


def test_model_file_malformed(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("just one line\n")
    with pytest.raises(ModelFileError, match="malformed"):
        load_model(path)


# ---------------------------------------------------------------------------
# feature fusion

def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_build_features_empty_context_zero_block():
    matrix = EmbeddingMatrix(ids=["p"], data=np.array([unit([1.0, 2.0, 2.0])]))
    features = build_features([ContextSet("a", "p", [])], matrix)
    assert features.index.tolist() == [[1, 0]]
    X = features.rows()
    assert X.dtype == np.float64 and X.shape == (1, 6)
    assert np.array_equal(X[0], np.concatenate([matrix.row("p"), np.zeros(3)]))
    empty = build_features([], matrix)
    assert len(empty) == 0 and empty.rows().shape == (0, 6)
    assert np.array_equal(empty.block, np.zeros((1, 3)))


def test_build_features_renormalizes_unit_mean():
    ctx = ContextSet("a", "p", [
        ContextItem("c1", "one", None, "comment"),
        ContextItem("c2", "two", None, "comment"),
    ])
    matrix = EmbeddingMatrix(ids=["p", "c1", "c2"],
                             data=np.array([unit([1.0, 1.0]), unit([1.0, 0.0]),
                                            unit([0.0, 1.0])]))
    context_part = build_features([ctx], matrix).rows()[0, 2:]
    assert np.linalg.norm(context_part) == pytest.approx(1.0, abs=1e-12)
    assert context_part == pytest.approx(unit([1.0, 1.0]))


def test_build_features_plain_mean_for_non_unit_vectors():
    ctx = ContextSet("a", "p", [
        ContextItem("c1", "one", None, "comment"),
        ContextItem("c2", "two", None, "comment"),
    ])
    matrix = EmbeddingMatrix(ids=["p", "c1", "c2"],
                             data=np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(build_features([ctx], matrix).rows()[0, 2:], np.array([1.0, 0.0]))


def test_build_features_comment_and_sentence_resolution():
    matrix = EmbeddingMatrix(ids=["p", "c1", "one sentence"],
                             data=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                                           dtype=np.float32))
    sentences = EmbeddingMatrix(ids=["c1", "one sentence"],
                                data=np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.float32))
    ctx = ContextSet("a", "p", [
        ContextItem("c1", "whole comment", None, "comment"),
        ContextItem("c1", "one sentence", None, "sentence", sentence_index=0),
    ])
    # the comment resolved by id in the comment matrix, the sentence by text
    # in the sentence matrix; both are unit norm, so the mean is renormalized
    assert build_features([ctx], matrix, sentences).rows()[0, 2:] == \
        pytest.approx(unit([1.0, 1.0]))
    with pytest.raises(ValueError, match="resolve"):
        build_features([ctx], matrix)


def test_build_features_error_paths():
    matrix = EmbeddingMatrix(ids=["p"], data=np.zeros((1, 2)))
    ctx = ContextSet("a", "p", [ContextItem("c9", "text", None, "comment")])
    with pytest.raises(ValueError, match="resolve"):
        build_features([ctx], matrix)
    sentence = ContextSet("a", "p", [ContextItem("c9", "text", None, "sentence", 0)])
    with pytest.raises(ValueError, match="dim"):
        build_features([sentence], matrix,
                       sentences=EmbeddingMatrix(ids=["text"], data=np.zeros((1, 3))))
    with pytest.raises(KeyError):
        build_features([ContextSet("a", "p9", [])], matrix)


BLOCK, INDEX = np.zeros((3, 2)), np.array([[1, 0], [2, 2]])


def test_features_accept_any_integer_index():
    assert len(Features(BLOCK, INDEX)) == 2
    assert len(Features(BLOCK, INDEX.astype(np.int32))) == 2
    assert len(Features(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64))) == 0


def test_features_block_must_be_2d_float64():
    for bad in (np.zeros(6), np.zeros((3, 2, 1)), np.zeros((3, 2), dtype=np.float32),
                [[0.0, 0.0]] * 3):
        with pytest.raises(ValueError, match="block"):
            Features(bad, INDEX)


def test_features_index_must_be_n_by_2_integers():
    for bad in (np.array([1, 0]), np.zeros((2, 3), dtype=np.int64),
                INDEX.astype(np.float64), INDEX.tolist()):
        with pytest.raises(ValueError, match="index"):
            Features(BLOCK, bad)


def test_features_index_entries_must_address_the_block():
    # train gathers with a clipping take, which would clamp a bad entry
    # silently
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            Features(BLOCK, np.array([[1, 0], [2, bad]]))
    with pytest.raises(ValueError, match=r"\[0, 0\)"):
        Features(np.zeros((0, 2)), np.array([[0, 0]]))
