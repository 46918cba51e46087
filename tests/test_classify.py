import math
import random
import tracemalloc

import numpy as np
import pytest

from noisekit.classify import (
    ModelKind,
    LinearModel,
    TrainConfig,
    compute_class_weights,
    from_json,
    predict_multilabel,
    predict_sentiment,
    to_json,
    train_ovr_hinge,
    train_softmax_weighted,
)
from noisekit.errors import DataError, DimensionMismatch, InsufficientData, Malformed
from noisekit.features import AnalyzerConfig, AnalyzerMode, fit_tfidf, transform
from noisekit.textcore import NOISE_CLASSES, NoiseLabelSet, SentimentLabel

from conftest import (
    csr,
    decision_reference,
    hinge_objective,
    raw_section,
    repeated_rows_table,
    sgd_reference,
    softmax_loss_grad,
    to_json_reference,
)


def vec(*pairs):
    """One matrix row as (index, value) pairs."""
    return list(pairs)


class TestClassWeights:
    def test_published_training_counts(self):
        weights = compute_class_weights([2767, 4948, 4318])
        assert weights == pytest.approx((1.4496, 0.8106, 0.9289), abs=1e-4)

    def test_balanced_counts(self):
        assert compute_class_weights([5, 5, 5]) == (1.0, 1.0, 1.0)

    def test_small_case(self):
        assert compute_class_weights([1, 1, 2]) == pytest.approx((4 / 3, 4 / 3, 2 / 3))

    def test_zero_count_rejected(self):
        with pytest.raises(InsufficientData, match=r"^all class counts must be positive, got \[3, 0, 2\]$"):
            compute_class_weights([3, 0, 2])

    @pytest.mark.parametrize(
        "weights", [(1.0, 0.0, 1.0), (1.0, float("nan"), 1.0), (-1.0, 1.0, 1.0)]
    )
    def test_non_positive_or_nan_rejected_by_config(self, weights):
        with pytest.raises(Malformed, match="class weights must be finite positive"):
            TrainConfig(class_weights=weights)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_non_integer_epochs_rejected(self, value):
        with pytest.raises(Malformed, match="epochs must be an integer"):
            TrainConfig(epochs=value)

    @pytest.mark.parametrize("value", [1.5, 1.0, False, np.int64(1)])
    def test_non_integer_seed_rejected(self, value):
        with pytest.raises(Malformed, match="seed must be an integer"):
            TrainConfig(seed=value)

    @pytest.mark.parametrize("value", ["1", None, True])
    def test_non_number_c_rejected(self, value):
        with pytest.raises(Malformed, match="regularization strength must be finite"):
            TrainConfig(c=value)

    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_non_number_learning_rate_rejected(self, value):
        with pytest.raises(Malformed, match="learning rate must be finite"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("weights", [(1, "a", 2), (1.0, None, 1.0), (1.0, True, 1.0)])
    def test_non_number_class_weight_rejected(self, weights):
        with pytest.raises(Malformed, match="class weights must be finite positive"):
            TrainConfig(class_weights=weights)

    def test_int_and_float_accepted(self):
        config = TrainConfig(c=2, learning_rate=1, class_weights=(1, 0.5, 3))
        assert (config.c, config.learning_rate) == (2, 1)


def separable_points():
    # Positive cluster around (2, 2), negative around (-2, -2).
    pos = [vec((0, 2.0), (1, 2.0)), vec((0, 1.5), (1, 2.5)), vec((0, 2.5), (1, 1.0))]
    neg = [vec((0, -2.0), (1, -2.0)), vec((0, -1.0), (1, -2.5)), vec((0, -2.5), (1, -1.5))]
    features = csr(pos + neg)
    labels = [NoiseLabelSet(1)] * len(pos) + [NoiseLabelSet(0)] * len(neg)
    return features, labels


class TestTrainOvrHinge:
    def test_separable_points_classified(self):
        features, labels = separable_points()
        model = train_ovr_hinge(features, labels, TrainConfig(epochs=100, learning_rate=0.2, seed=1))
        for decision, y in zip(model.decision_values(features)[:, 0], labels):
            assert (decision >= 0) == y.has(0)

    def test_all_positive_single_class(self):
        features = csr([vec((0, 1.0)), vec((0, 2.0)), vec((1, 1.0))])
        labels = [NoiseLabelSet(1)] * 3
        model = train_ovr_hinge(features, labels, TrainConfig(epochs=100, learning_rate=0.2, seed=0))
        for decision in model.decision_values(features)[:, 0]:
            assert decision > 0

    def test_objective_near_brute_force_optimum(self):
        rng = np.random.default_rng(7)
        n = 50
        points = rng.normal(size=(n, 2))
        true_w = np.array([1.5, -2.0])
        margins = points @ true_w + 0.5
        y = np.where(margins >= 0, 1.0, -1.0)
        features = csr([vec((0, p[0]), (1, p[1])) for p in points])
        labels = [NoiseLabelSet(1) if yi > 0 else NoiseLabelSet(0) for yi in y]
        c = 1.0
        model = train_ovr_hinge(
            features, labels, TrainConfig(c=c, epochs=600, learning_rate=0.5, seed=3)
        )
        sgd_obj = hinge_objective(model.weights[:, 0], float(model.bias[0]), features, y, c)

        # Brute-force oracle: primal objective minimized over a coarse lattice.
        grid = np.linspace(-3.0, 3.0, 41)
        best = math.inf
        w_grid = np.array([[w0, w1] for w0 in grid for w1 in grid])
        scores = points @ w_grid.T  # (n, G)
        for b in np.linspace(-3.0, 3.0, 25):
            hinge = np.maximum(0.0, 1.0 - y[:, None] * (scores + b)).sum(axis=0)
            objective = 0.5 * (w_grid**2).sum(axis=1) + c * hinge
            best = min(best, float(objective.min()))
        assert sgd_obj <= best * 1.05

    def test_retraining_is_bit_identical(self):
        features, labels = separable_points()
        config = TrainConfig(epochs=40, learning_rate=0.3, seed=11)
        a = train_ovr_hinge(features, labels, config)
        b = train_ovr_hinge(features, labels, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(DimensionMismatch):
            train_ovr_hinge(csr([vec((0, 1.0))]), [], TrainConfig())
        with pytest.raises(InsufficientData, match="^no training samples$"):
            train_ovr_hinge(csr([]), [], TrainConfig())


class TestPredictMultilabel:
    def make_model(self, weights, bias):
        return LinearModel(
            kind=ModelKind.OVR_HINGE,
            weights=np.asarray(weights, dtype=float),
            bias=np.asarray(bias, dtype=float),
        )

    def test_fallback_to_argmax(self):
        weights = np.zeros((2, 10))
        bias = -np.arange(10, 0, -1, dtype=float)  # all negative, max is class 9 (others)
        model = self.make_model(weights, bias)
        [result] = predict_multilabel(model, csr([vec((0, 1.0))], dim=2))
        assert result.names() == ("others",)

    def test_two_positive_decisions(self):
        weights = np.zeros((1, 10))
        weights[0, 2] = 1.0
        weights[0, 5] = 2.0
        bias = np.full(10, -0.5)
        model = self.make_model(weights, bias)
        [result] = predict_multilabel(model, csr([vec((0, 1.0))]))
        assert set(result.names()) == {NOISE_CLASSES[2], NOISE_CLASSES[5]}

    def test_zero_vector_uses_bias_argmax(self):
        weights = np.ones((3, 10))
        bias = np.array([-5.0, -1.0, -3.0, -4.0, -2.0, -6.0, -7.0, -8.0, -9.0, -10.0])
        model = self.make_model(weights, bias)
        [result] = predict_multilabel(model, csr([vec()], dim=3))
        assert result.names() == (NOISE_CLASSES[1],)

    def test_never_empty_fuzz(self):
        rng = np.random.default_rng(13)
        model = self.make_model(rng.normal(size=(4, 10)), rng.normal(size=10))
        rows = [vec(*((i, rng.normal()) for i in range(4))) for _ in range(200)]
        for result in predict_multilabel(model, csr(rows)):
            assert result

    def test_dimension_mismatch(self):
        model = self.make_model(np.zeros((2, 10)), np.zeros(10))
        with pytest.raises(DimensionMismatch):
            predict_multilabel(model, csr([vec((5, 1.0))]))


def toy_sentiment_data():
    rng = np.random.default_rng(17)
    features, labels = [], []
    centers = {SentimentLabel.NEUTRAL: (2.0, 0.0), SentimentLabel.POSITIVE: (-2.0, 1.0), SentimentLabel.NEGATIVE: (0.0, -2.0)}
    for label, (cx, cy) in centers.items():
        for _ in range(8):
            features.append(vec((0, cx + rng.normal(0, 0.2)), (1, cy + rng.normal(0, 0.2))))
            labels.append(label)
    return csr(features), labels


class TestTrainSoftmaxWeighted:
    def test_loss_decreases_epoch_over_epoch(self):
        features, labels = toy_sentiment_data()
        weights = compute_class_weights([8, 8, 8])
        losses = []
        for epochs in range(1, 7):
            config = TrainConfig(
                c=1.0, epochs=epochs, learning_rate=0.05, seed=5, class_weights=weights
            )
            model = train_softmax_weighted(features, labels, config)
            loss, _, _ = softmax_loss_grad(
                model.weights.T, model.bias, features, [int(l) for l in labels], np.ones(3), 1.0
            )
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_uniform_weights_match_unweighted(self):
        features, labels = toy_sentiment_data()
        config = TrainConfig(epochs=10, learning_rate=0.1, seed=9)
        uniform_config = TrainConfig(epochs=10, learning_rate=0.1, seed=9, class_weights=(1.0,) * 3)
        uniform = train_softmax_weighted(features, labels, uniform_config)
        unweighted = train_softmax_weighted(features, labels, config)
        assert uniform.weights.tobytes() == unweighted.weights.tobytes()
        assert uniform.bias.tobytes() == unweighted.bias.tobytes()

    def test_class_weights_change_the_model(self):
        features, labels = toy_sentiment_data()
        config = TrainConfig(epochs=10, learning_rate=0.1, seed=9)
        weighted_config = TrainConfig(epochs=10, learning_rate=0.1, seed=9, class_weights=(3.0, 1.0, 0.5))
        weighted = train_softmax_weighted(features, labels, weighted_config)
        unweighted = train_softmax_weighted(features, labels, config)
        assert not np.array_equal(weighted.weights, unweighted.weights)
        assert not np.array_equal(weighted.bias, unweighted.bias)

    @pytest.mark.parametrize("weights", [(), (1.0, 1.0), (1.0,) * 4])
    def test_wrong_length_class_weights(self, weights):
        features, labels = toy_sentiment_data()
        with pytest.raises(DimensionMismatch, match=f"{len(weights)} class weights for 3 classes"):
            train_softmax_weighted(features, labels, TrainConfig(class_weights=weights))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(23)
        features = csr(
            [vec(*((j, rng.normal()) for j in range(5) if rng.random() < 0.7)) for _ in range(10)],
            dim=5,
        )
        label_idx = [int(rng.integers(0, 3)) for _ in range(10)]
        class_weights = np.array([1.4496, 0.8106, 0.9289])
        c = 2.0
        h = 1e-6
        for _ in range(20):
            w = rng.normal(size=(3, 5))
            b = rng.normal(size=3)
            _, grad_w, grad_b = softmax_loss_grad(w, b, features, label_idx, class_weights, c)
            fd_w = np.zeros_like(w)
            for i in range(3):
                for j in range(5):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    lp, _, _ = softmax_loss_grad(wp, b, features, label_idx, class_weights, c)
                    lm, _, _ = softmax_loss_grad(wm, b, features, label_idx, class_weights, c)
                    fd_w[i, j] = (lp - lm) / (2 * h)
            fd_b = np.zeros_like(b)
            for i in range(3):
                bp, bm = b.copy(), b.copy()
                bp[i] += h
                bm[i] -= h
                lp, _, _ = softmax_loss_grad(w, bp, features, label_idx, class_weights, c)
                lm, _, _ = softmax_loss_grad(w, bm, features, label_idx, class_weights, c)
                fd_b[i] = (lp - lm) / (2 * h)
            analytic = np.concatenate([grad_w.ravel(), grad_b])
            numeric = np.concatenate([fd_w.ravel(), fd_b])
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5

    def test_retraining_is_bit_identical(self):
        features, labels = toy_sentiment_data()
        config = TrainConfig(
            epochs=15, learning_rate=0.1, seed=21, class_weights=compute_class_weights([8, 8, 8])
        )
        a = train_softmax_weighted(features, labels, config)
        b = train_softmax_weighted(features, labels, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def random_matrix(rng: random.Random, n: int, dim: int, tiny: float = 0.0):
    """n random rows over dim terms with values of both signs; row 0 and about a fifth are empty.

    A nonzero `tiny` swaps about two thirds of the values for +-tiny, so a
    rescale can underflow weights to +-0.0.
    """
    rows = []
    for i in range(n):
        width = 0 if i == 0 or rng.random() < 0.2 else rng.randint(1, dim)
        values = [rng.uniform(-1.0, 1.0) for _ in range(width)]
        if tiny:
            values = [rng.choice([v, tiny, -tiny]) for v in values]
        rows.append(list(zip(rng.sample(range(dim), width), values)))
    return csr(rows, dim=dim)


def hinge_reference(features, labels, config):
    """`train_ovr_hinge` on `sgd_reference`, with its direction as one array expression."""
    y = np.where([[s.has(j) for j in range(len(NOISE_CLASSES))] for s in labels], 1.0, -1.0)
    return sgd_reference(features, labels, len(NOISE_CLASSES), config,
                         lambda i, z: y[i] * (y[i] * z < 1.0), config.c, len(features))


def softmax_reference(features, labels, config):
    """`train_softmax_weighted` on `sgd_reference`, with numpy-array class weights."""
    cw = np.ones(3) if config.class_weights is None else np.array(config.class_weights, float)

    def direction(i, z):
        # libm exp and an exactly rounded sum, as `classify._softmax`.
        yi = int(labels[i])
        e = np.array([math.exp(v) for v in (z - z.max()).tolist()])
        g = -cw[yi] * (e / math.fsum(e.tolist()))
        g[yi] += cw[yi]
        return g

    return sgd_reference(features, labels, 3, config, direction, 1.0, config.c * len(features))


def l2_divisor(kind, c, n):
    return n if kind is ModelKind.OVR_HINGE else c * n


def scale_falls_below_1e9(kind, config, n):
    """Whether the shrinks of a run drive the weight scale under 1e-9, so W is rescaled."""
    scale = 1.0
    for step in range(config.epochs * n):
        lr = config.learning_rate / (1.0 + step / n)
        scale *= max(1.0 - lr / l2_divisor(kind, config.c, n), 1e-12)
        if scale < 1e-9:
            return True
    return False


TRAINERS = {
    ModelKind.OVR_HINGE: (train_ovr_hinge, hinge_reference),
    ModelKind.SOFTMAX_WEIGHTED: (train_softmax_weighted, softmax_reference),
}


def random_problem(kind, seed, regime):
    """Features, labels and a config; `regime` is "plain", "rescale" or "tiny"."""
    rng = random.Random(seed)
    n = rng.randint(3, 30)
    features = random_matrix(rng, n, rng.randint(2, 40), tiny=1e-305 if regime == "tiny" else 0.0)
    if kind is ModelKind.OVR_HINGE:
        labels = [NoiseLabelSet(rng.randrange(1 << len(NOISE_CLASSES))) for _ in range(n)]
        weights = None
    else:
        labels = [SentimentLabel(rng.randrange(3)) for _ in range(n)]
        weights = tuple(rng.uniform(0.2, 3.0) for _ in range(3))
    c = rng.choice([0.5, 1.0, 2.0])
    if regime == "plain":
        lr = rng.uniform(0.05, 1.0)
    else:
        lr = l2_divisor(kind, c, n) * rng.uniform(1.0, 3.0)
    config = TrainConfig(c=c, epochs=rng.randint(1, 6), learning_rate=lr, seed=seed,
                         class_weights=weights)
    return features, labels, config


class TestSgdMatchesReference:
    """The trainers give the bits of `conftest.sgd_reference`, the loop over (K, D) weights.

    The trainers return (D, K) weights, so their transpose is compared.
    """

    @pytest.mark.parametrize("kind", list(TRAINERS))
    @pytest.mark.parametrize("regime", ["plain", "rescale", "tiny"])
    def test_same_bits(self, kind, regime):
        train, reference = TRAINERS[kind]
        for seed in range(40):
            features, labels, config = random_problem(kind, seed, regime)
            if regime != "plain":
                assert scale_falls_below_1e9(kind, config, len(features))
            try:
                expected = reference(features, labels, config)
            except DataError:
                with pytest.raises(DataError):
                    train(features, labels, config)
                continue
            model = train(features, labels, config)
            assert model.weights.T.tobytes() == expected[0].tobytes(), (seed, config)
            assert model.bias.tobytes() == expected[1].tobytes(), (seed, config)

    @pytest.mark.parametrize(
        "kind, config",
        [
            (ModelKind.OVR_HINGE, TrainConfig(c=1e300, learning_rate=1e10, epochs=2)),
            (ModelKind.SOFTMAX_WEIGHTED,
             TrainConfig(learning_rate=1e10, epochs=2, class_weights=(1e300, 1.0, 1.0))),
        ],
    )
    def test_divergence_raises_in_both(self, kind, config):
        train, reference = TRAINERS[kind]
        features, labels, _ = random_problem(kind, 3, "plain")
        with pytest.raises(DataError):
            reference(features, labels, config)
        with pytest.raises(DataError):
            train(features, labels, config)


class TestDecisionValuesMatchReference:
    """`decision_values` gives the bits of `conftest.decision_reference`, the (K, D) predict loop."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("tiny", [0.0, 1e-305])
    def test_same_bits(self, kind, tiny):
        k = len(kind.class_names)
        for seed in range(40):
            rng = random.Random(seed)
            features = random_matrix(rng, rng.randint(3, 30), rng.randint(2, 40), tiny=tiny)
            weights_rng = np.random.default_rng(seed)
            model = LinearModel(kind, weights_rng.normal(size=(features.dim, k)),
                                weights_rng.normal(size=k))
            expected = decision_reference(np.ascontiguousarray(model.weights.T), model.bias,
                                          features)
            assert model.decision_values(features).tobytes() == expected.tobytes(), seed

            clone = from_json(to_json(model))
            assert clone.weights.shape == (features.dim, k)
            assert clone.weights.tobytes() == model.weights.tobytes()


class TestPredictSentiment:
    def make_model(self, weights, bias):
        return LinearModel(
            kind=ModelKind.SOFTMAX_WEIGHTED,
            weights=np.asarray(weights, dtype=float),
            bias=np.asarray(bias, dtype=float),
        )

    def test_zero_model_is_uniform_and_ties_to_neutral(self):
        model = self.make_model(np.zeros((2, 3)), np.zeros(3))
        (label,), (probs,) = predict_sentiment(model, csr([vec((0, 1.0))], dim=2))
        assert label is SentimentLabel.NEUTRAL
        assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_saturation(self):
        model = self.make_model(np.zeros((1, 3)), np.array([0.0, 50.0, 0.0]))
        (label,), (probs,) = predict_sentiment(model, csr([vec()], dim=1))
        assert label is SentimentLabel.POSITIVE
        assert probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(31)
        w = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        x = csr([vec((0, 0.3), (1, -0.2), (2, 0.9))])
        _, base = predict_sentiment(self.make_model(w, b), x)
        _, shifted = predict_sentiment(self.make_model(w, b + 7.5), x)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_argmax_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            w = rng.normal(size=(3, 3))
            b = rng.normal(size=3)
            x = csr([vec(*((i, rng.normal()) for i in range(3)))])
            label, _ = predict_sentiment(self.make_model(w, b), x)
            scaled, _ = predict_sentiment(self.make_model(2.5 * w, 2.5 * b), x)
            assert scaled == label


class TestModelSerialization:
    def test_round_trip(self):
        features, labels = separable_points()
        model = train_ovr_hinge(features, labels, TrainConfig(epochs=25, learning_rate=0.2, seed=2))
        clone = from_json(to_json(model))
        assert clone.kind is model.kind
        assert clone.class_names == model.class_names
        assert np.array_equal(clone.weights, model.weights)
        assert np.array_equal(clone.bias, model.bias)

    def test_class_names_follow_the_kind(self):
        assert ModelKind.OVR_HINGE.class_names == NOISE_CLASSES
        assert ModelKind.SOFTMAX_WEIGHTED.class_names == ("neutral", "positive", "negative")
        model = LinearModel(ModelKind.SOFTMAX_WEIGHTED, np.zeros((2, 3)), np.zeros(3))
        assert model.class_names == ModelKind.SOFTMAX_WEIGHTED.class_names
        with pytest.raises(AttributeError):
            model.class_names = NOISE_CLASSES

    @pytest.mark.parametrize(
        "kind, weights, bias, message",
        [
            (ModelKind.SOFTMAX_WEIGHTED, np.zeros((6, 2)), np.zeros(2), r"weights must be \(D, 3\)"),
            (ModelKind.SOFTMAX_WEIGHTED, np.zeros((6, 3)), np.zeros(2), "bias count must be 3"),
            (ModelKind.OVR_HINGE, np.zeros((6, 3)), np.zeros(3), r"weights must be \(D, 10\)"),
            (ModelKind.OVR_HINGE, np.zeros(10), np.zeros(10), r"got shape \(10,\)"),
            (ModelKind.OVR_HINGE, np.zeros((6, 10)), np.zeros((10, 1)), "bias count must be 10"),
        ],
    )
    def test_shapes_checked_at_construction(self, kind, weights, bias, message):
        # A model that could not be loaded back is never built, so never saved.
        with pytest.raises(DimensionMismatch, match=message):
            LinearModel(kind, weights, bias)

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("dim", [1, 2, 40, 700])
    def test_bytes_equal_np_unique_reference(self, k, dim):
        kind = ModelKind.SOFTMAX_WEIGHTED if k == 3 else ModelKind.OVR_HINGE
        for seed in range(5):
            rng = np.random.default_rng(seed)
            weights = rng.normal(size=(dim, k))
            # Repeat some rows; zero others with both signs, which must stay apart.
            repeated = rng.random(dim) < 0.4
            weights[repeated] = weights[rng.integers(0, dim, repeated.sum())]
            weights[rng.random(dim) < 0.2] = 0.0
            weights[rng.random(dim) < 0.2] = -0.0
            weights[rng.random((dim, k)) < 0.1] *= -0.0
            model = LinearModel(kind, weights, rng.normal(size=k))
            section = to_json(model)
            assert raw_section(section) == raw_section(to_json_reference(model)), seed
            assert from_json(section).weights.tobytes() == weights.tobytes()

    def test_peak_memory_below_three_weight_tables(self):
        # np.unique's copies peak near four tables of this size.
        weights = repeated_rows_table()
        model = LinearModel(ModelKind.OVR_HINGE, weights, np.zeros(10))
        tracemalloc.start()
        try:
            to_json(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * weights.nbytes

    def test_serialization_deterministic(self):
        features, labels = separable_points()
        config = TrainConfig(epochs=10, learning_rate=0.2, seed=4)
        a = to_json(train_ovr_hinge(features, labels, config))
        b = to_json(train_ovr_hinge(features, labels, config))
        assert raw_section(a) == raw_section(b)


class TestCorpusMatrix:
    TEXTS = ["a b", "zzz", "b c c"]  # the middle document has no known term

    @pytest.fixture()
    def matrix(self):
        tfidf = fit_tfidf(["a b", "b c"], AnalyzerConfig(mode=AnalyzerMode.WORD, n_min=1, n_max=1))
        return tfidf, transform(tfidf, self.TEXTS)

    def test_rows_equal_single_document_transforms(self, matrix):
        tfidf, features = matrix
        assert len(features) == 3 and features.dim == tfidf.dim
        assert features.row(1)[0].size == 0
        for i, text in enumerate(self.TEXTS):
            alone = transform(tfidf, [text])
            assert np.array_equal(features.row(i)[0], alone.indices)
            assert np.array_equal(features.row(i)[1], alone.values)
        assert features.nnz == sum(transform(tfidf, [t]).nnz for t in self.TEXTS)

    def test_empty_row_predicts_from_bias_alone(self, matrix):
        _, features = matrix
        rng = np.random.default_rng(41)
        bias = np.array([-3.0, 0.5, -1.0, -2.0, 0.0, -4.0, -5.0, -6.0, -7.0, -8.0])
        noise = LinearModel(
            kind=ModelKind.OVR_HINGE,
            weights=rng.normal(size=(features.dim, 10)),
            bias=bias,
        )
        assert np.array_equal(noise.decision_values(features)[1], bias)
        assert predict_multilabel(noise, features)[1] == NoiseLabelSet.from_names(
            [NOISE_CLASSES[1], NOISE_CLASSES[4]]
        )
        senti = LinearModel(
            kind=ModelKind.SOFTMAX_WEIGHTED,
            weights=rng.normal(size=(features.dim, 3)),
            bias=np.array([0.0, -1.0, 2.0]),
        )
        labels, probs = predict_sentiment(senti, features)
        assert labels[1] is SentimentLabel.NEGATIVE
        e = np.exp(senti.bias - senti.bias.max())
        assert probs[1] == pytest.approx(e / e.sum(), abs=1e-12)

    def test_other_dimension_rejected(self, matrix):
        _, features = matrix
        model = LinearModel(
            kind=ModelKind.OVR_HINGE,
            weights=np.zeros((features.dim + 1, 10)),
            bias=np.zeros(10),
        )
        with pytest.raises(DimensionMismatch):
            model.decision_values(features)
        with pytest.raises(DimensionMismatch):
            predict_multilabel(model, features)
