import math
import statistics
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import Item, Record, contexts_of, traced_peak

import dlab.model
from dlab.embed import (EmbedderConfig, EmbeddingMatrix, read_checksummed_text,
                        write_checksummed_text)
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
    _log_beta_half,
    _student_t_two_sided,
)
from dlab.sampler import Contexts


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
    """Features whose rows are the rows of X: row i's post half is row i of
    the post block, and its context half row i of the context block."""
    X = np.asarray(X, dtype=np.float64)
    n, dim = X.shape
    rows = np.arange(n)
    return Features(X[:, :dim // 2].copy(), X[:, dim // 2:].copy(),
                    np.stack([rows, rows], axis=1))


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
    params = train(X, y, cfg).params[0]
    report = evaluate(params, X, y)
    assert report.accuracy == 1.0
    assert params.loss_history[-1] < params.loss_history[0]
    assert len(params.loss_history) == 150


def test_train_zero_learning_rate_keeps_zero_params():
    X, y = separable_dataset(n=16)
    cfg = TrainConfig(epochs=3, learning_rate=0.0, batch_size=4, seed=0)
    params = train(X, y, cfg).params[0]
    assert not params.weights.any()
    assert not params.bias.any()
    # constant loss at the zero point, every epoch
    assert params.loss_history == pytest.approx([params.loss_history[0]] * 3)


def test_train_deterministic_and_seed_sensitive():
    X, y = separable_dataset(n=40)
    cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=8, seed=5)
    a, b = train(X, y, cfg).params[0], train(X, y, cfg).params[0]
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert a.loss_history == b.loss_history
    other = train(X, y, TrainConfig(epochs=3, learning_rate=0.01, batch_size=8, seed=6)).params[0]
    assert not np.array_equal(a.weights, other.weights)


def test_train_default_alpha_is_inverse_frequency():
    # 3 NTA to 1 YTA: alpha = (n/(2*3), n/(2*1)) = (2/3, 2)
    X = factored([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
    params = train(X, encode_labels(["NTA"] * 3 + ["YTA"]),
                   TrainConfig(epochs=1, learning_rate=0.01)).params[0]
    assert params.alpha == pytest.approx((2.0 / 3.0, 2.0))


def test_train_single_class_needs_explicit_alpha():
    X, y = factored([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0])
    with pytest.raises(ValueError, match="lacks a class"):
        train(X, y, TrainConfig(epochs=1))
    params = train(X, y, TrainConfig(epochs=1, focal_alpha=(0.5, 0.5))).params[0]
    assert params.alpha == (0.5, 0.5)


def test_train_fits_own_their_arrays():
    X, y = separable_dataset(n=16)
    fits = train(X, y, TrainConfig(epochs=2, learning_rate=0.05, batch_size=4), runs=3)
    kept = [(params.weights.copy(), params.bias.copy()) for params in fits.params]
    assert not np.array_equal(kept[0][0], kept[1][0])
    fits.params[0].weights[:] = 7.0
    fits.params[1].bias[:] = 7.0
    assert np.array_equal(fits.params[0].bias, kept[0][1])
    assert np.array_equal(fits.params[1].weights, kept[1][0])
    assert np.array_equal(fits.params[2].weights, kept[2][0])
    assert np.array_equal(fits.params[2].bias, kept[2][1])
    # no array is a view into a larger one, such as the parameters of every fit
    arrays = [a for params in fits.params for a in (params.weights, params.bias)]
    assert all(a.base is None or a.base.size == a.size for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


@pytest.mark.parametrize("key, value", [("epochs", 2.5), ("epochs", 24.0), ("epochs", True),
                                        ("epochs", "3"), ("batch_size", 4.0),
                                        ("batch_size", False), ("batch_size", np.float64(8)),
                                        ("seed", 2.5), ("seed", True), ("seed", None)])
def test_train_config_needs_integer_epochs_batch_size_and_seed(key, value):
    # refused at construction, not later inside train
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        TrainConfig(**{key: value})
    with pytest.raises(ValueError, match=f"{key} must be >= "):
        TrainConfig(**{key: -1})


@pytest.mark.parametrize("key, value", [("learning_rate", True), ("learning_rate", "0.1"),
                                        ("learning_rate", None), ("focal_gamma", True),
                                        ("focal_gamma", "2"), ("focal_alpha", (True, 1)),
                                        ("focal_alpha", "ab"), ("focal_alpha", (0.5, "1")),
                                        ("focal_alpha", 0.5)])
def test_train_config_needs_numbers_in_its_float_fields(key, value):
    # a bool or a non-number is refused at construction, not trained with or
    # written to the model file's header
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


def test_train_config_takes_numpy_floats_as_floats():
    cfg = TrainConfig(learning_rate=np.float32(0.5), focal_gamma=np.int64(2),
                      focal_alpha=[np.float64(0.25), 1])
    assert (cfg.learning_rate, cfg.focal_gamma, cfg.focal_alpha) == (0.5, 2.0, (0.25, 1.0))
    assert [type(v) for v in (cfg.learning_rate, cfg.focal_gamma, *cfg.focal_alpha)] == [float] * 4


def test_train_config_takes_numpy_integers_as_ints(tmp_path):
    cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), learning_rate=0.05,
                      seed=np.uint8(3))
    assert [type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)] == [int] * 3
    params = trained_with_embedder(10, cfg)
    assert params.epochs == 2 and len(params.loss_history) == 2 and params.seed == 3
    # the model header is JSON, which takes no numpy integer
    save_model(params, tmp_path / "model.txt")
    assert load_model(tmp_path / "model.txt").seed == 3


@pytest.mark.parametrize("runs", [0, -1, 2.0, 2.5, True, "2", None])
def test_train_rejects_runs_other_than_a_positive_integer(runs):
    X, y = separable_dataset(n=4)
    with pytest.raises(ValueError, match="runs"):
        train(X, y, TrainConfig(epochs=1), runs)


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


@pytest.mark.parametrize("label", [0.7, 1.9, 1.0, 0.0, np.float64(1.0), True, False,
                                   np.bool_(True), None, 1 + 0j])
def test_labels_are_label_strings_or_integer_indices(label):
    # a float, integral or not, or a bool is no class index; int() would
    # have read 0.7 as 0 and 1.9 as 1
    with pytest.raises(ValueError):
        encode_labels(["NTA", label])
    with pytest.raises(ValueError):
        compute_report([label, 1], [0, 1])
    with pytest.raises(ValueError):
        compute_report([0, 1], [0, label])


def test_labels_take_python_and_numpy_integer_indices():
    assert encode_labels([np.int64(1), np.int32(0), np.uint8(1), 0, "YTA"]).tolist() == [
        1, 0, 1, 0, 1]
    assert compute_report(np.array([0, 1]), np.array([0, 1], dtype=np.int8)).accuracy == 1.0
    for bad in (2, -1, np.int64(2)):
        with pytest.raises(ValueError, match="0 or 1"):
            encode_labels([bad])


def test_train_and_evaluate_take_integer_label_arrays_only():
    features = factored([[1.0, 0.0], [0.0, 1.0]])
    params = ModelParams(weights=np.zeros((2, 2)), bias=np.zeros(2), gamma=2.0,
                         alpha=(0.5, 0.5), seed=0, epochs=0, learning_rate=0.0)
    for y in (np.array([0.0, 1.0]), np.array([False, True]), np.array(["NTA", "YTA"])):
        with pytest.raises(ValueError, match="labels"):
            train(features, y, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="labels"):
            evaluate(params, features, y)
    assert evaluate(params, features, np.array([0, 1], dtype=np.uint8)).accuracy == 0.5


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


# the two-sided tail in closed form, written without cancellation: Cauchy's
# 1 - 2/π atan(t) at df = 1, and 1 - t/s with s = sqrt(2+t²) at df = 2
@pytest.mark.parametrize("t", [1e-8, 0.3, 1.0, 2.5, 12.0, 60.0, 1e6])
def test_two_sided_tail_closed_forms(t):
    s = math.sqrt(2.0 + t * t)
    assert _student_t_two_sided(t, 1.0) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t), rel=1e-12, abs=0.0)
    assert _student_t_two_sided(-t, 2.0) == pytest.approx(2.0 / (s * (s + t)), rel=1e-12, abs=0.0)


# log B(a, 1/2) from mpmath at 40 digits; the lgamma difference is off by
# 2.4e-14 relative at a = 50 and by 1.4e-10 at a = 1e6
@pytest.mark.parametrize("a, want", [
    (3.0, 0.064538521137571171673), (50.0, -1.3811466014510411259),
    (80.0, -1.6170858845842899801), (500.0, -2.5346891063280624009),
    (5e4, -4.8375216992804415099), (1e6, -6.335390211057436965),
])
def test_log_beta_half_matches_mpmath(a, want):
    assert _log_beta_half(a) == pytest.approx(want, rel=2e-15, abs=0.0)


@pytest.fixture(scope="module")
def stdtr():
    return pytest.importorskip("scipy.special").stdtr


def reference_two_sided(stdtr, t, df):
    return min(1.0, max(0.0, 2.0 * float(stdtr(df, -abs(t)))))


# no difference, then tails below the smallest normal float: 1.0e-313 at
# t = 38 (mpmath), and one that underflows outright
TAIL_EDGES = [(0.0, 1.0, 1.0), (0.0, 37.5, 1.0), (5e-324, 3.0, 1.0),
              (38.0, 1e5, 0.0), (60.0, 1e5, 0.0)]


@pytest.mark.parametrize("t, df, want", TAIL_EDGES)
def test_two_sided_tail_edges(t, df, want):
    assert _student_t_two_sided(t, df) == want


@pytest.mark.parametrize("t, df", [(t, df) for t, df, _ in TAIL_EDGES] + [
    (0.7, 1.0), (9.0, 1.0), (0.7, 2.0), (9.0, 2.0),
    (-3.1, 17.25), (45.0, 400.0), (2.0, 1e5), (1.96, 1e6),
])
def test_two_sided_tail_edge_cases_match_scipy(stdtr, t, df):
    assert format(_student_t_two_sided(t, df), ".6g") == format(reference_two_sided(stdtr, t, df), ".6g")


# |t| starts at 1e-6: below about 1e-8 at df = 1, scipy's own tail reads
# exactly 1.0; the closed-form test covers that range
@settings(max_examples=400, deadline=None)
@given(log_df=st.floats(0.0, math.log(1e5)),
       t=st.one_of(st.just(0.0), st.floats(1e-6, 60.0), st.floats(-60.0, -1e-6)))
def test_two_sided_tail_matches_scipy(stdtr, log_df, t):
    df = math.exp(log_df)
    p = _student_t_two_sided(t, df)
    want = reference_two_sided(stdtr, t, df)
    if want < sys.float_info.min:
        # scipy reads most such tails as 0 and leaves some subnormal
        assert p == 0.0
        return
    assert abs(p - want) <= 1e-10 * want
    # the printed p agrees, unless a .6g rounding boundary lies inside the gap
    assert format(want, ".6g") in {format(p * (1.0 - 1e-10), ".6g"),
                                   format(p * (1.0 + 1e-10), ".6g")}


def test_two_sided_tail_raises_when_the_fraction_does_not_converge(monkeypatch):
    monkeypatch.setattr(dlab.model, "_FRACTION_MAX_TERMS", 3)
    with pytest.raises(ArithmeticError):
        _student_t_two_sided(1.8, 1e5)


def test_significance_needs_two_per_side():
    with pytest.raises(ValueError):
        significance_test([1], [0, 1])
    with pytest.raises(ValueError):
        significance_test([0, 1], [])


@pytest.mark.parametrize("sample", [
    [math.nan, 1, 0], [math.inf, 1, 0], [1e308, -1e308, 1e308], [1e150, -1e150, 0],
], ids=["nan", "inf", "variance-overflows", "variance-squared-overflows"])
def test_significance_rejects_non_finite_input_and_variance(sample):
    # NaN once read as t=nan p=0, and an infinite variance as t=0 p=0
    for a, b in ((sample, [1, 0, 1]), ([1, 0, 1], sample)):
        with pytest.raises(ValueError, match="finite"):
            significance_test(a, b)


# ---------------------------------------------------------------------------
# serialization

def trained_with_embedder(n, cfg):
    """Params trained on separable_dataset's rows padded to 16 features, the
    feature dim of an 8-dim embedder, which they carry."""
    X, y = separable_dataset(n=n)
    params = train(factored(np.pad(X.rows(), ((0, 0), (0, 14)))), y, cfg).params[0]
    return replace(params, embedder=EmbedderConfig(dim=8, ngram_range=(2, 3), seed=7))


def test_model_roundtrip(tmp_path):
    params = trained_with_embedder(
        16, TrainConfig(epochs=4, learning_rate=0.05, batch_size=4, seed=2))
    path = tmp_path / "model.txt"
    save_model(params, path)
    back = load_model(path)
    assert np.array_equal(back.weights, params.weights)
    assert np.array_equal(back.bias, params.bias)
    assert back.gamma == params.gamma and back.alpha == params.alpha
    assert back.seed == params.seed and back.epochs == params.epochs
    assert back.loss_history == params.loss_history
    assert back.embedder == params.embedder
    # a model file always records its embedder
    with pytest.raises(ValueError, match="no embedder config"):
        save_model(replace(params, embedder=None), path)
    # and its features are twice the embedder's dim
    save_model(replace(params, embedder=EmbedderConfig(dim=16)), path)
    with pytest.raises(ModelFileError, match="feature_dim 16, not twice its embedder dim 16"):
        load_model(path)


def test_model_file_tamper_detected(tmp_path):
    params = trained_with_embedder(8, TrainConfig(epochs=1, learning_rate=0.05))
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
    # a well-checksummed file with a line beyond its two payloads
    save_model(trained_with_embedder(8, TrainConfig(epochs=1)), path)
    write_checksummed_text(path, "\n".join([*read_checksummed_text(path, ValueError), "{}"]) + "\n")
    with pytest.raises(ModelFileError, match="malformed file, 2 payload lines expected"):
        load_model(path)


# ---------------------------------------------------------------------------
# feature fusion

def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_build_features_empty_context_zero_block():
    matrix = EmbeddingMatrix.from_dense(["p"], np.array([unit([1.0, 2.0, 2.0])]))
    features = build_features(Contexts.empty([("a", "p")]), matrix)
    assert features.index.tolist() == [[0, 0]]
    X = features.rows()
    assert X.dtype == np.float64 and X.shape == (1, 6)
    assert np.array_equal(X[0], np.concatenate([matrix.row("p"), np.zeros(3)]))
    assert features.post_columns.tolist() == [0, 1, 2] and features.width == 3
    # the context half stores no column: its block is the zero half alone
    assert features.contexts.shape == (1, 0) and features.context_columns.size == 0
    # no row stores a column: no post row, and the zero context half
    empty = build_features(Contexts.empty([]), matrix)
    assert len(empty) == 0 and empty.rows().shape == (0, 6)
    assert empty.posts.shape == (0, 0) and empty.contexts.shape == (1, 0)
    assert empty.post_columns.size == empty.context_columns.size == 0 and empty.width == 3


def test_build_features_stores_each_half_on_its_own_columns():
    # the post stores columns 0 and 1, the context items 1 and 3
    matrix = EmbeddingMatrix.from_dense(
        ["p", "c1", "c2"], np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, -1.0]]))
    items = [Item(cid, cid, None, "comment") for cid in ("c1", "c2")]
    contexts = [Record("a", "p", items), Record("b", "p", [])]
    features = build_features(contexts_of(contexts), matrix)
    assert features.post_columns.tolist() == [0, 1]
    assert features.context_columns.tolist() == [1, 3]
    assert features.posts.tolist() == [[2.0, 1.0]]
    assert features.contexts.tolist() == [[0.0, 0.0], [1.5, -0.5]]
    assert features.index.tolist() == [[0, 1], [0, 0]]
    assert features.rows().tolist() == [[2, 1, 0, 0, 0, 1.5, 0, -0.5],
                                        [2, 1, 0, 0, 0, 0, 0, 0]]


def test_build_features_renormalizes_unit_mean():
    ctx = Record("a", "p", [
        Item("c1", "one", None, "comment"),
        Item("c2", "two", None, "comment"),
    ])
    matrix = EmbeddingMatrix.from_dense(
        ["p", "c1", "c2"], np.array([unit([1.0, 1.0]), unit([1.0, 0.0]), unit([0.0, 1.0])]))
    context_part = build_features(contexts_of([ctx]), matrix).rows()[0, 2:]
    assert np.linalg.norm(context_part) == pytest.approx(1.0, abs=1e-12)
    assert context_part == pytest.approx(unit([1.0, 1.0]))


def test_build_features_plain_mean_for_non_unit_vectors():
    ctx = Record("a", "p", [
        Item("c1", "one", None, "comment"),
        Item("c2", "two", None, "comment"),
    ])
    matrix = EmbeddingMatrix.from_dense(["p", "c1", "c2"],
                                        np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(build_features(contexts_of([ctx]), matrix).rows()[0, 2:],
                          np.array([1.0, 0.0]))


def test_build_features_comment_and_sentence_resolution():
    matrix = EmbeddingMatrix.from_dense(
        ["p", "c1", "one sentence"],
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], dtype=np.float32))
    sentences = EmbeddingMatrix.from_dense(
        ["c1", "one sentence"], np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.float32))
    ctx = Record("a", "p", [
        Item("c1", "whole comment", None, "comment"),
        Item("c1", "one sentence", None, "sentence", sentence_index=0),
    ])
    # the comment resolved by id in the comment matrix, the sentence by text
    # in the sentence matrix; both are unit norm, so the mean is renormalized
    contexts = contexts_of([ctx])
    assert build_features(contexts, matrix, sentences).rows()[0, 2:] == \
        pytest.approx(unit([1.0, 1.0]))
    with pytest.raises(ValueError, match="resolve"):
        build_features(contexts, matrix)


def test_build_features_error_paths():
    matrix = EmbeddingMatrix.from_dense(["p"], np.zeros((1, 2)))
    ctx = Record("a", "p", [Item("c9", "text", None, "comment")])
    with pytest.raises(ValueError, match="resolve"):
        build_features(contexts_of([ctx]), matrix)
    sentence = Record("a", "p", [Item("c9", "text", None, "sentence", 0)])
    with pytest.raises(ValueError, match="dim"):
        build_features(contexts_of([sentence]), matrix,
                       sentences=EmbeddingMatrix.from_dense(["text"], np.zeros((1, 3))))
    with pytest.raises(KeyError):
        build_features(Contexts.empty([("a", "p9")]), matrix)


def test_build_features_peak_memory_stays_near_its_outputs():
    # 1,000 distinct sequences of 5 items over 300 unit rows at dim 4096,
    # 9.8 MB as dense float64 rows, whose entries lie in 256 columns: the
    # means are summed in blocks of at most _MEAN_CHUNK_FLOATS values, not
    # in one (sequences x d) block of 32 MB or from every entry at once
    rng = np.random.default_rng(5)
    dim, n = 4096, 300
    rows = np.zeros((n + 20, dim), dtype=np.float32)
    for row in rows:
        cols = rng.choice(256, 35, replace=False)
        row[cols] = rng.standard_normal(cols.size)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    matrix = EmbeddingMatrix.from_dense([f"c{i}" for i in range(n)]
                                        + [f"p{i}" for i in range(20)], rows)
    contexts = contexts_of([Record("a", f"p{i % 20}", [
        Item(f"c{j}", "", None, "comment") for j in rng.choice(n, 5, replace=False)])
        for i in range(1000)])
    features, peak = traced_peak(lambda: build_features(contexts, matrix))
    assert features.contexts.shape == (1001, 256)
    outputs = sum(a.nbytes for a in (features.posts, features.contexts, features.index,
                                     features.post_columns, features.context_columns))
    # beside the features: the keys and index of 1,000 contexts, and one
    # block of means with its entries
    assert peak <= outputs + 10 * dlab.model._MEAN_CHUNK_FLOATS * 8


def test_train_peak_memory_stays_within_its_batch_buffers():
    # runs 5, batch 32 and blocks 4096 columns wide, the README's largest
    # batch: its two gather buffers hold 5 x 32 x 8,192 floats (10.5 MB) and
    # serve every batch, so 10 batches of views that copied would hold ten
    # times that. Beside them: the parameters, gradient, two Adam moments
    # and two update scratch arrays, six copies of the parameter state, and
    # a margin for the fits' weights and the step's small temporaries
    rng = np.random.default_rng(3)
    runs, batch, dim, n = 5, 32, 4096, 300
    features = Features(rng.standard_normal((40, dim)), rng.standard_normal((60, dim)),
                        np.stack([rng.integers(0, 40, n), rng.integers(0, 60, n)], axis=1))
    y = np.arange(n) % 2
    fits, peak = traced_peak(lambda: train(features, y, TrainConfig(
        epochs=2, batch_size=batch, seed=1), runs))
    assert len(fits.params) == runs
    buffers = runs * batch * 2 * dim * 8
    state = runs * 2 * (2 * dim + 1) * 8
    assert buffers == 10_485_760
    assert peak <= buffers + 6 * state + (1 << 20)


def test_train_holds_no_views_per_batch_beyond_a_bound(monkeypatch):
    # 2,000 rows at batch size 1 and two fits: 2,000 batches an epoch, over
    # _KEPT_STEPS (patched down to 16), so each step makes its own views and
    # the call holds a few arrays of runs x n entries, not 0.7 KB per batch
    rng = np.random.default_rng(3)
    n = 2000
    features = Features(rng.standard_normal((40, 4)), rng.standard_normal((60, 4)),
                        np.stack([rng.integers(0, 40, n), rng.integers(0, 60, n)], axis=1))
    y = np.arange(n) % 2
    cfg = TrainConfig(epochs=1, batch_size=1, seed=1)
    monkeypatch.setattr(dlab.model, "_KEPT_STEPS", 16, raising=False)
    fits, peak = traced_peak(lambda: train(features, y, cfg, 2))
    assert peak <= 300 * n


@pytest.mark.parametrize("batch_size,n", [(1, 50), (7, 50), (16, 64), (64, 50)])
def test_train_steps_made_per_step_fit_the_same_bits(monkeypatch, batch_size, n):
    # an epoch of more than _KEPT_STEPS batches makes each batch's views at
    # its step: the same weights, bias and losses as views made once per
    # call, with a shorter last batch and without
    rng = np.random.default_rng(8)
    features = Features(rng.standard_normal((9, 5)), rng.standard_normal((11, 6)),
                        np.stack([rng.integers(0, 9, n), rng.integers(0, 11, n)], axis=1))
    y = rng.integers(0, 2, n)
    cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=4, learning_rate=0.05)
    kept = train(features, y, cfg, 3)
    monkeypatch.setattr(dlab.model, "_KEPT_STEPS", 0)
    made = train(features, y, cfg, 3)
    for a, b in zip(kept.params, made.params):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert a.loss_history == b.loss_history


POSTS, CONTEXTS, INDEX = np.zeros((3, 2)), np.zeros((3, 2)), np.array([[1, 0], [2, 2]])


def test_features_accept_any_integer_index():
    assert len(Features(POSTS, CONTEXTS, INDEX)) == 2
    assert len(Features(POSTS, CONTEXTS, INDEX.astype(np.int32))) == 2
    assert len(Features(np.zeros((0, 2)), np.zeros((0, 2)),
                        np.zeros((0, 2), dtype=np.int64))) == 0


def test_features_block_must_be_2d_float64():
    for bad in (np.zeros(6), np.zeros((3, 2, 1)), np.zeros((3, 2), dtype=np.float32),
                [[0.0, 0.0]] * 3):
        with pytest.raises(ValueError, match="post block"):
            Features(bad, CONTEXTS, INDEX)
        with pytest.raises(ValueError, match="context block"):
            Features(POSTS, bad, INDEX)


def test_features_index_must_be_n_by_2_integers():
    for bad in (np.array([1, 0]), np.zeros((2, 3), dtype=np.int64),
                INDEX.astype(np.float64), INDEX.tolist()):
        with pytest.raises(ValueError, match="index"):
            Features(POSTS, CONTEXTS, bad)


def test_features_index_entries_must_address_the_block():
    # train gathers with a clipping take, which would clamp a bad entry
    # silently; each index column addresses its own block
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=r"index\[:, 0\].*\[0, 3\).*post"):
            Features(POSTS, CONTEXTS, np.array([[1, 0], [bad, 2]]))
        with pytest.raises(ValueError, match=r"index\[:, 1\].*\[0, 3\).*context"):
            Features(POSTS, CONTEXTS, np.array([[1, 0], [2, bad]]))
    # an entry of the post block's rows beyond the context block's
    with pytest.raises(ValueError, match=r"index\[:, 1\].*\[0, 2\)"):
        Features(POSTS, np.zeros((2, 2)), INDEX)
    with pytest.raises(ValueError, match=r"\[0, 0\)"):
        Features(np.zeros((0, 2)), CONTEXTS, np.array([[0, 0]]))


def test_features_store_columns_of_a_wider_half():
    features = Features(POSTS, CONTEXTS, INDEX)
    assert features.post_columns.tolist() == features.context_columns.tolist() == [0, 1]
    assert features.width == 2 and features.dim == 4
    # each block's columns scatter to their positions in its zero half
    posts, contexts = np.array([[1.0, -2.0]]), np.array([[0.0], [3.0]])
    sparse = Features(posts, contexts, np.array([[0, 0], [0, 1]]),
                      np.array([1, 3]), np.array([4]), 5)
    assert sparse.dim == 10
    assert sparse.rows().tolist() == [[0, 1, 0, -2, 0] + [0] * 5,
                                      [0, 1, 0, -2, 0] + [0, 0, 0, 0, 3]]
    # the default width is the wider block's
    assert Features(posts, np.zeros((1, 0)), np.array([[0, 0]]),
                    np.array([0, 1], dtype=np.int32)).width == 2
    assert Features(np.zeros((1, 0)), np.zeros((1, 3)), np.array([[0, 0]])).width == 3


def test_features_columns_must_ascend_within_the_width():
    # unsorted, repeated, out of range, the wrong length or shape, not integers
    for bad in (np.array([1, 0]), np.array([1, 1]), np.array([-1, 1]), np.array([1, 4]),
                np.array([0, 1, 2]), np.array([0]), np.array([[0, 1]]), np.array([0.0, 1.0]),
                [0, 1]):
        for attr in ("post_columns", "context_columns"):
            with pytest.raises(ValueError, match=attr):
                Features(POSTS, CONTEXTS, INDEX, **{attr: bad}, width=4)
    for bad in (-1, 2.0, "4"):
        with pytest.raises(ValueError, match="width"):
            Features(POSTS, CONTEXTS, INDEX, np.array([0, 1]), np.array([0, 1]), bad)
    # columns beyond the default width, which is the wider block's
    with pytest.raises(ValueError, match=r"post_columns.*\[0, 2\)"):
        Features(POSTS, CONTEXTS, INDEX, np.array([0, 2]))
    with pytest.raises(ValueError, match=r"context_columns.*\[0, 2\)"):
        Features(POSTS, CONTEXTS, INDEX, context_columns=np.array([0, 2]))
