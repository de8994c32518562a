"""Small ReLU network training demo: losses, batching modes, and data plumbing."""

import math

import numpy as np
import pytest

from noisygs.mldemo import (
    BatchOracleConfig,
    Dataset,
    accuracy,
    adaptive_batch_eval,
    bce_loss_oracle,
    init_weights,
    loss_and_grad,
    synth_dataset,
    weight_count,
)
from noisygs.testkit import finite_diff_grad


@pytest.fixture(scope="module")
def data():
    return synth_dataset(1024, 13, 4.0, seed=5)


def test_weight_count_for_the_reference_shape():
    assert weight_count(13, 10) == 151
    assert weight_count(2, 3) == 3 * 2 + 3 + 3 + 1


def test_zero_weights_give_log_two_loss(data):
    w = np.zeros(weight_count(13, 10))
    loss, grad = loss_and_grad(w, data.features, data.labels)
    assert loss == math.log(2.0)
    assert grad.shape == (151,)


def test_gradient_matches_finite_differences(data):
    X = data.features[:64]
    y = data.labels[:64]
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.uniform(-0.5, 0.5, size=weight_count(13, 10))
        _, grad = loss_and_grad(w, X, y)
        fd = finite_diff_grad(lambda v: loss_and_grad(v, X, y)[0], w, h=1e-6)
        denom = 1.0 + np.max(np.abs(grad))
        assert np.max(np.abs(fd - grad)) / denom < 1e-5


def test_loss_decomposes_over_disjoint_slices(data):
    w = init_weights(13, 10, seed=1)
    full_loss, full_grad = loss_and_grad(w, data.features, data.labels)
    losses = []
    grads = []
    for part in range(8):
        sl = slice(part * 128, (part + 1) * 128)
        l, g = loss_and_grad(w, data.features[sl], data.labels[sl])
        losses.append(l)
        grads.append(g)
    assert abs(np.mean(losses) - full_loss) < 1e-12
    assert np.max(np.abs(np.mean(grads, axis=0) - full_grad)) < 1e-12


class TestSynthDataset:
    def test_shapes_and_standardization(self, data):
        assert data.features.shape == (1024, 13)
        assert data.labels.shape == (1024,)
        assert data.standardized
        assert np.max(np.abs(data.features.mean(axis=0))) < 1e-10
        assert np.max(np.abs(data.features.var(axis=0) - 1.0)) < 1e-8

    def test_labels_are_balanced(self, data):
        assert data.labels.sum() == 512.0

    def test_classes_are_linearly_separated_along_feature_zero(self, data):
        pos = data.features[data.labels == 1.0, 0].mean()
        neg = data.features[data.labels == 0.0, 0].mean()
        assert pos - neg > 1.0

    def test_seed_reproducibility(self):
        a = synth_dataset(100, 3, 2.0, seed=7)
        b = synth_dataset(100, 3, 2.0, seed=7)
        c = synth_dataset(100, 3, 2.0, seed=8)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 3, 2.0)
        with pytest.raises(ValueError):
            synth_dataset(10, 0, 2.0)


class TestDatasetContainer:
    def test_label_values_checked(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 1)), labels=np.array([0.0, 2.0]))

    def test_shape_mismatch_checked(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((3, 1)), labels=np.zeros(2))

    def test_standardized_claim_is_verified(self):
        X = np.array([[5.0], [7.0]])
        with pytest.raises(ValueError):
            Dataset(features=X, labels=np.array([0.0, 1.0]), standardized=True)


def test_init_weights_range_and_seed():
    w = init_weights(13, 10, seed=0)
    assert w.shape == (151,)
    assert np.all(w >= -0.5) and np.all(w < 0.5)
    assert not np.array_equal(w, init_weights(13, 10, seed=1))
    assert np.array_equal(w, init_weights(13, 10, seed=0))


def test_accuracy_ties_go_to_the_positive_class(data):
    # Zero weights give zero logits everywhere, predicting the positive
    # class on a balanced dataset.
    assert accuracy(data, np.zeros(151)) == 0.5


class TestAdaptiveBatch:
    def test_loose_target_stops_at_the_smallest_prefix(self, data):
        w = init_weights(13, 10, seed=0)
        _, _, used = adaptive_batch_eval(data, w, np.inf, seed=0)
        assert used == 16

    def test_zero_target_consumes_everything_and_is_exact(self, data):
        w = init_weights(13, 10, seed=0)
        loss, grad, used = adaptive_batch_eval(data, w, 0.0, seed=0)
        full_loss, full_grad = loss_and_grad(w, data.features, data.labels)
        assert used == 1024
        assert loss == full_loss
        assert np.array_equal(grad, full_grad)

    def test_batch_grows_as_the_target_tightens(self, data):
        w = init_weights(13, 10, seed=2)
        sizes = [adaptive_batch_eval(data, w, eps, seed=2)[2]
                 for eps in (np.inf, 0.05, 1e-3, 0.0)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 1024

    def test_returned_estimates_meet_the_declared_error(self, data):
        full = {}
        for seed in range(10):
            w = init_weights(13, 10, seed=seed)
            loss, grad, used = adaptive_batch_eval(data, w, 0.05, seed=seed)
            f_full, g_full = loss_and_grad(w, data.features, data.labels)
            assert abs(loss - f_full) <= 0.05
            assert np.linalg.norm(grad - g_full) <= math.sqrt(0.05)
            full[seed] = used
        assert all(16 <= u <= 1024 for u in full.values())

    def test_reference_batch_sizes_at_the_default_target(self, data):
        """Regression pin: median rows needed for eps_f = 0.05 at random
        initial weights. Fully deterministic given the seeds."""
        used = [adaptive_batch_eval(data, init_weights(13, 10, seed=s), 0.05,
                                    seed=s)[2] for s in range(20)]
        assert float(np.median(used)) == 64.0
        assert all(16 < u < 1024 for u in used)

    def test_negative_target_rejected(self, data):
        with pytest.raises(ValueError):
            adaptive_batch_eval(data, np.zeros(151), -0.1, seed=0)


class TestFullOracle:
    def test_matches_truth_bitwise(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="full"))
        w = init_weights(13, 10, seed=4)
        assert oracle.eval_f(w) == oracle.truth_access.f(w)
        assert oracle.eval_f(w) == loss_and_grad(w, data.features, data.labels)[0]
        assert np.array_equal(oracle.eval_g(w),
                              loss_and_grad(w, data.features, data.labels)[1])
        assert oracle.deterministic
        assert oracle.dims == 151


class TestFixedOracle:
    def test_resampling_changes_the_value(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="fixed", batch_size=128,
                                                         resample_seed=0))
        w = init_weights(13, 10, seed=0)
        assert oracle.eval_f(w) != oracle.eval_f(w)
        assert not oracle.deterministic

    def test_gradient_reuses_the_last_value_batch(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="fixed", batch_size=128,
                                                         resample_seed=3))
        w = init_weights(13, 10, seed=1)
        oracle.eval_f(w)
        idx = oracle.meta["state"]["batch"]
        grad = oracle.eval_g(w)
        expected = loss_and_grad(w, data.features[idx], data.labels[idx])[1]
        assert np.array_equal(grad, expected)
        # The gradient call must not advance the batch sequence.
        assert np.array_equal(oracle.meta["state"]["batch"], idx)

    def test_batch_sequence_is_a_function_of_the_seed(self, data):
        w = init_weights(13, 10, seed=0)
        cfg = BatchOracleConfig(mode="fixed", batch_size=64, resample_seed=9)
        a = bce_loss_oracle(data, cfg)
        b = bce_loss_oracle(data, cfg)
        assert [a.eval_f(w) for _ in range(5)] == [b.eval_f(w) for _ in range(5)]
        other = bce_loss_oracle(data, BatchOracleConfig(mode="fixed", batch_size=64,
                                                        resample_seed=10))
        assert a.eval_f(w) != other.eval_f(w)

    def test_counter_advances_per_value_query(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="fixed", batch_size=32))
        w = np.zeros(151)
        oracle.eval_f(w)
        oracle.eval_f(w)
        assert oracle.meta["state"]["counter"] == 2

    def test_native_bundle_equals_the_per_point_path(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="fixed", batch_size=128,
                                                         resample_seed=4))
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = init_weights(13, 10, seed=int(rng.integers(100)))
            oracle.eval_f(w)
            points = w + 0.3 * rng.normal(size=(11, 151))
            counter = oracle.meta["state"]["counter"]
            many = oracle.eval_g_many(points)
            assert oracle.meta["state"]["counter"] == counter
            idx = oracle.meta["state"]["batch"]
            assert np.array_equal(many, np.stack([oracle.eval_g(p) for p in points]))
            for p, g in zip(points, many):
                assert np.array_equal(g, loss_and_grad(p, data.features[idx],
                                                       data.labels[idx])[1])

    def test_native_bundle_draws_one_batch_when_none_exists(self, data):
        cfg = BatchOracleConfig(mode="fixed", batch_size=64, resample_seed=2)
        native = bce_loss_oracle(data, cfg)
        per_point = bce_loss_oracle(data, cfg)
        points = np.random.default_rng(1).normal(size=(4, 151))
        many = native.eval_g_many(points)
        assert native.meta["state"]["counter"] == 1
        assert np.array_equal(many, np.stack([per_point.eval_g(p) for p in points]))
        assert per_point.meta["state"]["counter"] == 1
        assert np.array_equal(native.meta["state"]["batch"], per_point.meta["state"]["batch"])

    def test_oversized_batch_rejected(self, data):
        with pytest.raises(ValueError):
            bce_loss_oracle(data, BatchOracleConfig(mode="fixed", batch_size=2000))


class TestTruthMemo:
    def test_memo_matches_the_full_data_values(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="fixed"))
        truth = oracle.truth_access
        for seed in (0, 1, 0):
            w = init_weights(13, 10, seed=seed)
            loss, grad = loss_and_grad(w, data.features, data.labels)
            for _ in range(2):
                assert truth.f(w) == loss
                assert np.array_equal(truth.g(w), grad)

    def test_a_returned_gradient_is_a_copy(self, data):
        truth = bce_loss_oracle(data, BatchOracleConfig(mode="fixed")).truth_access
        w = init_weights(13, 10, seed=2)
        first = truth.g(w)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(truth.g(w), expected)

    def test_only_a_new_point_recomputes(self, data, monkeypatch):
        import noisygs.mldemo as mldemo

        calls = {"f": 0, "g": 0}
        forward, backward = mldemo._forward_loss, mldemo.loss_and_grad

        def counted_forward(*args):
            calls["f"] += 1
            return forward(*args)

        def counted_backward(*args):
            calls["g"] += 1
            return backward(*args)

        monkeypatch.setattr(mldemo, "_forward_loss", counted_forward)
        monkeypatch.setattr(mldemo, "loss_and_grad", counted_backward)
        truth = bce_loss_oracle(data, BatchOracleConfig(mode="fixed")).truth_access
        w = init_weights(13, 10, seed=3)
        for _ in range(3):
            truth.f(w)
            truth.g(w.copy())
        assert calls == {"f": 1, "g": 1}
        moved = w.copy()
        moved[0] += 1e-12
        assert truth.f(moved) == forward(moved, data.features, data.labels, 10)
        assert np.array_equal(truth.g(moved), backward(moved, data.features, data.labels)[1])
        assert calls == {"f": 2, "g": 2}


class TestAdaptiveOracle:
    def test_meta_tracks_consumption(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="adaptive", eps_f=0.05))
        w = init_weights(13, 10, seed=0)
        f = oracle.eval_f(w)
        g = oracle.eval_g(w)
        used = oracle.meta["last_used"]
        assert used >= 16
        assert oracle.meta["samples_total"] == used
        # Same point, so the cached pair must be returned without new rows.
        assert oracle.eval_f(w) == f
        assert oracle.meta["samples_total"] == used
        w2 = init_weights(13, 10, seed=1)
        oracle.eval_f(w2)
        assert oracle.meta["samples_total"] > used
        assert g.shape == (151,)
        assert oracle.deterministic

    def test_truth_access_sees_the_full_dataset(self, data):
        oracle = bce_loss_oracle(data, BatchOracleConfig(mode="adaptive", eps_f=0.5))
        w = init_weights(13, 10, seed=6)
        assert oracle.truth_access.f(w) == loss_and_grad(w, data.features, data.labels)[0]


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchOracleConfig(mode="bogus")
    with pytest.raises(ValueError):
        BatchOracleConfig(batch_size=0)
    with pytest.raises(ValueError):
        BatchOracleConfig(eps_f=0.0)
