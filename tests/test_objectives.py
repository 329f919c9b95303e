import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedecado.objectives import (
    Dataset,
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    accuracy,
    load_csv_dataset,
    make_blobs,
    random_quadratic,
    save_csv_dataset,
    weighted_sum,
)
from fedecado.oracles import (
    finite_diff_gradient,
    finite_diff_hessian_diag,
    weighted_gradient,
    weighted_loss,
)
from fedecado.partition import dirichlet_partition


class TestQuadratic:
    def test_loss_identity_matrix(self):
        obj = QuadraticObjective(np.eye(2), np.zeros(2))
        assert obj.loss(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_loss_zero_at_center(self, simple_quadratic):
        assert simple_quadratic.loss(simple_quadratic.center) == 0.0

    def test_gradient_formula(self, simple_quadratic):
        g = simple_quadratic.gradient(np.array([2.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0])

    def test_gradient_zero_at_center(self, simple_quadratic):
        np.testing.assert_array_equal(simple_quadratic.gradient(simple_quadratic.center), 0.0)

    def test_mean_hessian_is_diagonal_of_matrix(self, simple_quadratic):
        np.testing.assert_allclose(simple_quadratic.mean_hessian(), [2.0, 4.0])

    def test_dimension_mismatch_raises(self, simple_quadratic):
        with pytest.raises(ValueError):
            simple_quadratic.loss(np.zeros(3))
        with pytest.raises(ValueError):
            simple_quadratic.gradient(np.zeros(5))

    def test_non_finite_rejected(self, simple_quadratic):
        with pytest.raises(ValueError):
            simple_quadratic.loss(np.array([np.nan, 0.0]))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            QuadraticObjective(np.diag([1.0, -0.5]), np.zeros(2))

    def test_random_quadratic_condition(self):
        rng = np.random.default_rng(0)
        obj = random_quadratic(8, rng, 2.0, 20.0)
        eig = np.linalg.eigvalsh(obj.matrix)
        assert eig.min() >= 2.0 * (1 - 1e-9)
        assert eig.max() <= 20.0 * (1 + 1e-9)


class TestLogistic:
    def test_uniform_loss_at_zero(self, toy_logistic):
        assert toy_logistic.loss(np.zeros(toy_logistic.dim)) == pytest.approx(4 * np.log(2.0))

    def test_gradient_matches_finite_differences(self, toy_logistic):
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.normal(size=toy_logistic.dim) * 0.5
            g = toy_logistic.gradient(x)
            fd = finite_diff_gradient(toy_logistic, x, h=1e-6)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel <= 1e-5

    def test_curvature_close_to_second_differences(self, toy_logistic):
        x = np.random.default_rng(2).normal(size=toy_logistic.dim) * 0.3
        gn = toy_logistic.mean_hessian(x)
        fd = finite_diff_hessian_diag(toy_logistic, x, h=1e-4)
        scale = np.abs(fd).max()
        assert np.abs(gn - fd).max() <= 0.1 * scale

    def test_curvature_nonnegative(self, toy_logistic):
        x = np.random.default_rng(3).normal(size=toy_logistic.dim)
        assert (toy_logistic.mean_hessian(x) >= 0).all()

    def test_subsampled_curvature_scale(self, blob_data):
        obj = LogisticObjective(blob_data)
        rng = np.random.default_rng(4)
        full = obj.mean_hessian(np.zeros(obj.dim))
        sub = obj.mean_hessian(np.zeros(obj.dim), sample_budget=30, rng=rng)
        # the subsample estimates the full-sum curvature, so same magnitude
        assert 0.3 * full.sum() <= sub.sum() <= 3.0 * full.sum()

    def test_minibatch_gradient_unbiased_scale(self, blob_data):
        obj = LogisticObjective(blob_data)
        x = np.zeros(obj.dim)
        full = obj.gradient(x)
        all_idx = np.arange(len(blob_data))
        np.testing.assert_allclose(obj.gradient(x, sample_indices=all_idx), full, atol=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            LogisticObjective(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2))


class TestMlp:
    def test_gradient_matches_finite_differences(self, blob_data):
        obj = MlpObjective(blob_data, hidden=5)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.normal(size=obj.dim) * 0.4
            g = obj.gradient(x)
            fd = finite_diff_gradient(obj, x, h=1e-6)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel <= 1e-5

    def test_curvature_nonnegative_at_random_points(self, blob_data):
        obj = MlpObjective(blob_data, hidden=6)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.normal(size=obj.dim)
            assert (obj.mean_hessian(x) >= -1e-12).all()

    def test_accuracy_range(self, blob_data):
        obj = MlpObjective(blob_data, hidden=4)
        acc = accuracy(obj, np.zeros(obj.dim))
        assert 0.0 <= acc <= 1.0


class TestDatasets:
    def test_blobs_deterministic(self):
        a = make_blobs(50, 3, 4, seed=9)
        b = make_blobs(50, 3, 4, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_csv_round_trip(self, tmp_path, blob_data):
        path = tmp_path / "data.csv"
        save_csv_dataset(blob_data, path)
        loaded = load_csv_dataset(path)
        np.testing.assert_allclose(loaded.features, blob_data.features)
        np.testing.assert_array_equal(loaded.labels, blob_data.labels)

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)


def _dirichlet_clients(kind, seed, n_clients, alpha):
    """Client objectives on uneven Dirichlet shards of one blob dataset, with
    their weights |D_i| / |D|."""
    data = make_blobs(30 * n_clients, 3, 4, seed=seed)
    part = dirichlet_partition(data.labels, n_clients, alpha, seed)
    shards = [data.subset(idx) for idx in part.client_indices]
    if kind == "logistic":
        return [LogisticObjective(s) for s in shards], part.weights, data
    return [MlpObjective(s, hidden=4) for s in shards], part.weights, data


def _assert_matches_per_client_loop(objectives, weights, x):
    fast = weighted_sum(objectives, weights)
    ref_loss = weighted_loss(objectives, weights, x)
    assert abs(fast.loss(x) - ref_loss) <= 1e-12 * abs(ref_loss)
    # relative to the summed magnitudes, since client gradients can cancel
    scale = np.linalg.norm(sum(w * np.abs(obj.gradient(x))
                               for w, obj in zip(weights, objectives)))
    gap = np.linalg.norm(fast.gradient(x) - weighted_gradient(objectives, weights, x))
    assert gap <= 1e-12 * scale


class TestWeightedSum:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), d=st.integers(1, 10))
    def test_quadratic_stack_matches_per_client_loop(self, seed, n, d):
        rng = np.random.default_rng(seed)
        objectives = [random_quadratic(d, rng, 0.1, 50.0, center_scale=3.0) for _ in range(n)]
        weights = rng.dirichlet(np.full(n, 0.3))
        _assert_matches_per_client_loop(objectives, weights, rng.normal(size=d) * 2.0)

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["logistic", "mlp"]), seed=st.integers(0, 10_000),
           n=st.integers(1, 8), alpha=st.sampled_from([0.1, 0.5, 5.0]))
    def test_dataset_objective_matches_per_client_loop(self, kind, seed, n, alpha):
        objectives, weights, _ = _dirichlet_clients(kind, seed, n, alpha)
        x = np.random.default_rng(seed).normal(size=objectives[0].dim)
        _assert_matches_per_client_loop(objectives, weights, x)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_pooled_accuracy_is_dataset_accuracy(self, kind):
        objectives, weights, data = _dirichlet_clients(kind, 8, 6, 0.2)
        whole = (LogisticObjective(data) if kind == "logistic"
                 else MlpObjective(data, hidden=4))
        x = np.random.default_rng(9).normal(size=whole.dim)
        assert accuracy(weighted_sum(objectives, weights), x) == accuracy(whole, x)


class TestSampleWeights:
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_weighted_gradient_matches_finite_differences(self, blob_data, kind):
        rng = np.random.default_rng(10)
        omega = rng.uniform(0.0, 2.0, len(blob_data))
        obj = (LogisticObjective(blob_data, sample_weights=omega) if kind == "logistic"
               else MlpObjective(blob_data, hidden=5, sample_weights=omega))
        for _ in range(3):
            x = rng.normal(size=obj.dim) * 0.4
            fd = finite_diff_gradient(obj, x, h=1e-6)
            assert np.linalg.norm(obj.gradient(x) - fd) / np.linalg.norm(fd) <= 1e-5

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_minibatch_gradient_uses_the_batch_weights(self, blob_data, kind):
        rng = np.random.default_rng(12)
        omega = rng.uniform(0.0, 2.0, len(blob_data))
        idx = rng.choice(len(blob_data), 15, replace=False)

        def build(data, weights):
            if kind == "logistic":
                return LogisticObjective(data, sample_weights=weights)
            return MlpObjective(data, hidden=5, sample_weights=weights)

        x = rng.normal(size=build(blob_data, omega).dim) * 0.4
        batch = build(blob_data.subset(idx), omega[idx]).gradient(x)
        np.testing.assert_allclose(build(blob_data, omega).gradient(x, sample_indices=idx),
                                   batch * len(blob_data) / len(idx), rtol=1e-12, atol=1e-12)

    def test_weights_scale_each_sample(self, toy_2class):
        # doubling one sample's weight adds its cross-entropy once more
        x = np.random.default_rng(11).normal(size=LogisticObjective(toy_2class).dim)
        omega = np.array([1.0, 2.0, 1.0, 1.0])
        weighted = LogisticObjective(toy_2class, sample_weights=omega).loss(x)
        extra = LogisticObjective(toy_2class.subset([1])).loss(x)
        assert weighted == pytest.approx(LogisticObjective(toy_2class).loss(x) + extra,
                                         rel=1e-13)

    def test_bad_sample_weights_rejected(self, toy_2class):
        with pytest.raises(ValueError, match="sample_weights"):
            LogisticObjective(toy_2class, sample_weights=np.ones(3))
        with pytest.raises(ValueError, match="sample_weights"):
            MlpObjective(toy_2class, sample_weights=-np.ones(4))
