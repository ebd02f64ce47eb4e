import json
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

from oracles import central_difference_grads, fusion_loop_oracle, max_relative_error
from leadlag_fuse import fusion, neural
from leadlag_fuse.fusion import (
    EmbeddingFrame,
    FusionArchitecture,
    FusionModel,
    ModelSettings,
    TrainingDiverged,
    TrainingSettings,
    extract_embeddings,
    load_model,
    save_model,
    train,
)
from leadlag_fuse.pipeline import cosine_similarity

TINY = FusionArchitecture(graph_count=2, input_dim=5, per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3)


def make_samples(rng, count, graphs=2, dim=5):
    """Graph-major samples; the same draws as a (count, graphs, dim) array, transposed."""
    return np.ascontiguousarray(rng.random((count, graphs, dim)).transpose(1, 0, 2))


class TestArchitecture:
    @pytest.mark.parametrize("graph_count", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("input_dim", [3, 10, 20])
    def test_dimension_chains(self, graph_count, input_dim):
        arch = FusionArchitecture(graph_count=graph_count, input_dim=input_dim)
        enc = arch.per_graph_encoder_dims()
        shared_enc = arch.shared_encoder_dims()
        shared_dec = arch.shared_decoder_dims()
        dec = arch.per_graph_decoder_dims()
        assert enc[0] == input_dim
        assert shared_enc[0] == graph_count * enc[-1]
        assert shared_enc[-1] == arch.embedding_dim
        assert shared_dec == tuple(reversed(shared_enc))
        assert dec == tuple(reversed(enc))
        assert dec[-1] == input_dim
        assert shared_dec[-1] % graph_count == 0

    @pytest.mark.parametrize("graph_count", [1, 3, 6])
    def test_model_shapes_round_trip(self, graph_count):
        arch = FusionArchitecture(graph_count=graph_count, input_dim=7, per_graph_dims=(6, 4), shared_dims=(5,), embedding_dim=3)
        model = FusionModel(arch, seed=1)
        rng = np.random.default_rng(2)
        z = model.encode_batch(rng.random((graph_count, 4, 7)))
        assert z.shape == (4, 3)
        assert model.decode_batch(z).shape == (graph_count, 4, 7)

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ValueError):
            FusionArchitecture(graph_count=0, input_dim=5)
        with pytest.raises(ValueError):
            FusionArchitecture(graph_count=2, input_dim=5, per_graph_dims=())

    def test_architecture_is_the_model_settings_plus_its_data_shape(self):
        names = lambda kind: [f.name for f in fields(kind)]
        assert issubclass(FusionArchitecture, ModelSettings)
        assert names(FusionArchitecture) == [*names(ModelSettings), "graph_count", "input_dim"]
        settings = ModelSettings(per_graph_dims=[6, 4], shared_dims=[5], embedding_dim=3)
        assert settings.per_graph_dims == (6, 4) and settings.shared_dims == (5,)
        arch = FusionArchitecture(graph_count=2, input_dim=7, **asdict(settings))
        assert ModelSettings(**{name: getattr(arch, name) for name in names(ModelSettings)}) == settings

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"per_graph_dims": ()}, "per_graph_dims must not be empty"),
            ({"per_graph_dims": (25, 0)}, r"layer widths must be positive, got \(25, 0\) and \(30,\)"),
            ({"shared_dims": (-1,)}, r"layer widths must be positive, got \(25, 10\) and \(-1,\)"),
            ({"embedding_dim": 0}, "embedding_dim must be positive, got 0"),
        ],
    )
    def test_model_settings_check_their_widths(self, values, message):
        with pytest.raises(ValueError, match=message):
            ModelSettings(**values)
        with pytest.raises(ValueError, match=message):
            FusionArchitecture(graph_count=2, input_dim=5, **values)


class TestTrainingSettings:
    @pytest.mark.parametrize(
        "values, message",
        [
            ({"max_epochs": 0}, "max_epochs must be at least 1, got 0"),
            ({"learning_rate": -1.0}, "learning_rate must be finite and positive"),
            ({"learning_rate": 0.0}, "learning_rate must be finite and positive"),
            ({"learning_rate": float("inf")}, "learning_rate must be finite and positive"),
            ({"learning_rate": float("nan")}, "learning_rate must be finite and positive"),
            ({"min_delta": -1e-9}, "min_delta must be nonnegative"),
            ({"patience": -1}, "patience must be nonnegative"),
            ({"validation_fraction": 1.0}, r"validation_fraction must lie in \[0, 1\), got 1.0"),
            ({"validation_fraction": -0.1}, r"validation_fraction must lie in \[0, 1\)"),
        ],
    )
    def test_out_of_range_settings_refused(self, values, message):
        with pytest.raises(ValueError, match=message):
            TrainingSettings(**values)

    def test_edge_values_accepted(self):
        TrainingSettings(max_epochs=1, patience=0, min_delta=0.0, validation_fraction=0.0)
        TrainingSettings(patience=None)


class TestEncodeDecode:
    def test_zero_input_zero_bias_gives_zero_embedding(self):
        model = FusionModel(TINY, seed=3)  # init biases are zero
        assert np.array_equal(model.encode_batch(np.zeros((2, 1, 5))), np.zeros((1, 3)))

    def test_zero_embedding_zero_bias_decodes_to_zero(self):
        model = FusionModel(TINY, seed=3)
        assert np.array_equal(model.decode_batch(np.zeros((1, 3))), np.zeros((2, 1, 5)))

    def test_tiny_hand_set_forward(self):
        arch = FusionArchitecture(graph_count=2, input_dim=3, per_graph_dims=(2,), shared_dims=(), embedding_dim=2)
        model = FusionModel(arch, seed=0)
        w_enc0 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]])
        w_enc1 = np.array([[0.2, 0.0, 0.3], [1.0, 1.0, 1.0]])
        w_shared = np.array([[1.0, 0.0, -1.0, 0.5], [0.0, 2.0, 0.0, 1.0]])
        enc, shared = model.graph_encoder.layers[0], model.shared_encoder.layers[0]
        for layer, c, weight in ((enc, 0, w_enc0), (enc, 1, w_enc1), (shared, 0, w_shared)):
            layer.weight[c] = weight
            layer.bias[c] = 0.1
        x0 = np.array([0.3, 0.6, 0.2])
        x1 = np.array([0.5, 0.1, 0.4])
        h0 = np.maximum(w_enc0 @ x0 + 0.1, 0.0)
        h1 = np.maximum(w_enc1 @ x1 + 0.1, 0.0)
        expected = np.maximum(w_shared @ np.concatenate([h0, h1]) + 0.1, 0.0)
        assert np.allclose(model.encode_batch(np.stack([x0, x1])[:, np.newaxis])[0], expected, atol=1e-15)

    def test_graph_permutation_requires_matching_shared_weights(self):
        arch = FusionArchitecture(graph_count=2, input_dim=4, per_graph_dims=(3,), shared_dims=(), embedding_dim=2)
        model = FusionModel(arch, seed=9)
        rng = np.random.default_rng(10)
        model.params += 0.1 * rng.standard_normal(model.params.size)
        sample = rng.random((2, 1, 4))

        permuted = FusionModel(arch, seed=9)
        permuted.params[:] = model.params
        for layer in permuted.graph_encoder.layers:  # swap the two graphs' encoders in place
            layer.weight[:] = layer.weight[::-1].copy()
            layer.bias[:] = layer.bias[::-1].copy()
        swapped_sample = sample[::-1].copy()

        # with the shared encoder unchanged the embeddings differ...
        assert not np.allclose(permuted.encode_batch(swapped_sample), model.encode_batch(sample))
        # ...and agree once its input columns are permuted the same way
        k = arch.per_graph_out
        w = permuted.shared_encoder.layers[0].weight
        w[:] = np.concatenate([w[:, :, k:], w[:, :, :k]], axis=2)
        assert np.allclose(permuted.encode_batch(swapped_sample), model.encode_batch(sample), atol=1e-15)

        # the gradient of the permuted model lands in the slots of the weights it moved
        samples = np.concatenate([swapped_sample, rng.random((2, 2, 4)) + 0.05], axis=1)
        _, grad = permuted.loss_and_gradients(samples)
        numeric = central_difference_grads(lambda: permuted.reconstruction_loss(samples), [permuted.params], h=1e-5)
        assert max_relative_error([grad], numeric, floor=1e-8) < 1e-4

    def test_round_trip_shapes(self):
        model = FusionModel(TINY, seed=4)
        sample = np.random.default_rng(5).random((2, 1, 5))
        recon = model.decode_batch(model.encode_batch(sample))
        assert recon.shape == (2, 1, 5)

    def test_shape_mismatches_rejected(self):
        model = FusionModel(TINY, seed=4)
        with pytest.raises(ValueError, match="expected"):
            model.encode_batch(np.zeros((1, 1, 5)))  # wrong graph count
        with pytest.raises(ValueError, match="expected"):
            model.encode_batch(np.zeros((2, 1, 6)))  # wrong feature dim
        with pytest.raises(ValueError, match="expected"):
            model.encode_batch(np.zeros((2, 5)))  # one graph's block, not a sample array
        with pytest.raises(ValueError, match="expected"):
            model.decode_batch(np.zeros((1, 7)))  # wrong embedding dim


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        model = FusionModel(TINY, seed=6)
        # zero-weight model reconstructs zero inputs exactly
        model.params[:] = 0.0
        assert model.reconstruction_loss(np.zeros((2, 1, 5))) == 0.0

    def test_mean_over_graphs(self):
        model = FusionModel(TINY, seed=7)
        model.params[:] = 0.0  # reconstructions are all zero
        rows = np.stack([np.full(5, np.sqrt(2.0)), np.full(5, 2.0)])
        # per-graph MSEs are 2.0 and 4.0, so the fused loss is their mean
        assert model.reconstruction_loss(rows[:, np.newaxis]) == pytest.approx(3.0, abs=1e-15)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        model = FusionModel(TINY, seed=8)
        samples = make_samples(rng, 4)
        recons = model.decode_batch(model.encode_batch(samples))
        expected = np.mean([np.mean((recons[g] - samples[g]) ** 2) for g in range(2)])
        assert model.reconstruction_loss(samples) == pytest.approx(expected, abs=1e-15)


class TestGradients:
    def test_fusion_gradients_match_finite_differences(self):
        model = FusionModel(TINY, seed=0)
        rng = np.random.default_rng(1000)
        model.params += 0.05 * rng.standard_normal(model.params.size)
        samples = np.ascontiguousarray((rng.random((3, 2, 5)) + 0.05).transpose(1, 0, 2))

        enc = neural.forward(model.graph_encoder, samples)
        concat = np.concatenate(list(enc.output), axis=1)[np.newaxis]
        ser = neural.forward(model.shared_encoder, concat)
        sdr = neural.forward(model.shared_decoder, ser.output)
        chunks = np.stack(np.split(sdr.output[0], 2, axis=1))
        dec = neural.forward(model.graph_decoder, chunks)
        pre = [z for r in (enc, ser, sdr, dec) for z in r.pre_activations]
        assert min(np.abs(z).min() for z in pre) > 1e-6  # away from ReLU kinks

        _, grad = model.loss_and_gradients(samples)
        numeric = central_difference_grads(lambda: model.reconstruction_loss(samples), [model.params], h=1e-5)
        assert max_relative_error([grad], numeric, floor=1e-8) < 1e-4

    @pytest.mark.parametrize(
        "graphs, assets, rows, dims",
        [
            (6, 50, 315, ModelSettings()),  # the staged benchmark's training shape
            (3, 7, 11, ModelSettings(per_graph_dims=(5, 4), shared_dims=(6, 5), embedding_dim=3)),
        ],
    )
    def test_stacked_layers_match_graph_by_graph_composition(self, graphs, assets, rows, dims):
        arch = FusionArchitecture(graph_count=graphs, input_dim=assets, **asdict(dims))
        model = FusionModel(arch, seed=5)
        rng = np.random.default_rng(6)
        train_rows, val_rows = rng.random((graphs, rows, assets)), rng.random((graphs, rows // 2, assets))
        for state in range(3):  # at the initial weights, then after perturbing every parameter twice
            loss, grad = model.loss_and_gradients(train_rows)
            expected_loss, expected_grads, _ = fusion_loop_oracle(model, train_rows)
            assert loss == expected_loss
            for mlp_grads, expected in zip(neural.layer_views(model._mlps(), grad), expected_grads):
                for (d_weight, d_bias), (want_weight, want_bias) in zip(mlp_grads, expected):
                    assert np.array_equal(d_weight, want_weight)
                    assert np.array_equal(d_bias, want_bias)
            val_loss, _, z = fusion_loop_oracle(model, val_rows)
            assert model.reconstruction_loss(val_rows) == val_loss
            assert np.array_equal(model.encode_batch(val_rows), z)
            model.params += 0.05 * rng.standard_normal(model.params.size)

    def test_wide_training_step_memory_budget(self):
        # One step at the wide benchmark's training shape (6 graphs, 200 assets,
        # 420 rows) peaks at 8.9 MiB: two (6, 420, 200) arrays, the reconstruction
        # that becomes the residual and its square. A separate residual array or
        # the graph encoders' unused dL/dx adds another 4 MiB each.
        model = FusionModel(FusionArchitecture(graph_count=6, input_dim=200), seed=0)
        samples = np.random.default_rng(7).random((6, 420, 200))
        tracemalloc.start()
        try:
            model.loss_and_gradients(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_wide_float32_training_step_memory_budget(self):
        # The float32 twin of the step above, on samples already cast as ``train`` casts
        # them once: 4.8 MiB, half the float64 peak.
        model = FusionModel(FusionArchitecture(graph_count=6, input_dim=200), seed=0, dtype=np.float32)
        samples = np.random.default_rng(7).random((6, 420, 200)).astype(np.float32)
        tracemalloc.start()
        try:
            model.loss_and_gradients(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20


def repeated_rows(rng, distinct=5, copies=(1, 4, 2, 3, 6)):
    """Graph-major samples of ``distinct`` rows, row ``k`` repeated ``copies[k]`` times, shuffled."""
    base = make_samples(rng, distinct)
    order = rng.permutation(np.repeat(np.arange(distinct), copies))
    return np.take(base, order, axis=1)


class TestDistinctRows:
    """Training on the distinct rows weighted by their counts is training on all rows."""

    def test_rows_are_whole_samples_compared_in_every_graph(self):
        samples = repeated_rows(np.random.default_rng(40))
        _, before = fusion.distinct_rows(samples)
        row = np.flatnonzero(before == np.bincount(before).argmax())[0]  # a row with 5 copies
        samples[1, row] += 1.0  # ... now differs from them in the second graph only
        distinct, inverse = fusion.distinct_rows(samples)
        assert np.array_equal(np.take(distinct, inverse, axis=1), samples)
        assert distinct.shape == (2, 6, 5) and distinct.flags.c_contiguous
        assert np.count_nonzero(inverse == inverse[row]) == 1

    def test_weighted_distinct_rows_give_the_loss_and_gradient_of_all_rows(self):
        rng = np.random.default_rng(41)
        model = FusionModel(TINY, seed=41)
        model.params += 0.05 * rng.standard_normal(model.params.size)
        samples = repeated_rows(rng)
        distinct, inverse = fusion.distinct_rows(samples)
        counts = np.bincount(inverse)
        assert counts.tolist() != [1] * len(counts)
        loss, grad = model.loss_and_gradients(distinct, counts)
        all_loss, all_grad = model.loss_and_gradients(samples)
        assert loss == pytest.approx(all_loss, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(grad, all_grad, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(model.graph_losses(distinct, counts), model.graph_losses(samples), rtol=1e-12, atol=0.0)
        assert model.reconstruction_loss(distinct, counts) == pytest.approx(model.reconstruction_loss(samples), rel=1e-12, abs=0.0)

    def test_unit_weights_are_the_unweighted_loss(self):
        model = FusionModel(TINY, seed=42)
        samples = make_samples(np.random.default_rng(42), 6)
        loss, grad = model.loss_and_gradients(samples, np.ones(6))
        unweighted_loss, unweighted_grad = model.loss_and_gradients(samples)
        assert loss == unweighted_loss and np.array_equal(grad, unweighted_grad)
        assert model.graph_losses(samples, np.ones(6)) == model.graph_losses(samples)

    def test_weighted_gradients_match_finite_differences(self):
        model = FusionModel(TINY, seed=0)
        rng = np.random.default_rng(1000)
        model.params += 0.05 * rng.standard_normal(model.params.size)
        samples = np.ascontiguousarray((rng.random((3, 2, 5)) + 0.05).transpose(1, 0, 2))
        weights = np.array([0.5, 3.0, 1.75])
        _, grad = model.loss_and_gradients(samples, weights)
        numeric = central_difference_grads(lambda: model.reconstruction_loss(samples, weights), [model.params], h=1e-5)
        assert max_relative_error([grad], numeric, floor=1e-8) < 1e-4

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, -1.0, 2.0], "nonnegative"),
            ([1.0, np.nan, 2.0], "finite"),
            ([1.0, np.inf, 2.0], "finite"),
            ([0.0, 0.0, 0.0], "positive sum"),
            ([1.0, 2.0], r"expected \(3,\)"),
            ([[1.0, 2.0, 3.0]], r"expected \(3,\)"),
        ],
        ids=["negative", "nan", "inf", "all_zero", "too_short", "two_dimensional"],
    )
    @pytest.mark.parametrize("method", ["loss_and_gradients", "graph_losses", "reconstruction_loss"])
    def test_bad_weights_refused(self, method, weights, message):
        model = FusionModel(TINY, seed=43)
        samples = make_samples(np.random.default_rng(43), 3)
        with pytest.raises(ValueError, match=message):
            getattr(model, method)(samples, np.array(weights))


class TestPrecision:
    """A model computes in its ``params`` dtype; float64 is the reference the float32 model must track."""

    def test_float32_training_epoch_never_upcasts(self, monkeypatch):
        seen = {"records": [], "output_grads": [], "adam": []}

        def recording(name, original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if name == "forward":
                    seen["records"].append(result)
                elif name == "backward":
                    seen["output_grads"].append(args[2])
                else:
                    state, params, grad = args
                    seen["adam"].append((state.first_moment, state.second_moment, state.scratch, params, grad))
                return result

            return wrapper

        for name in ("forward", "backward", "adam_step"):
            monkeypatch.setattr(fusion, name, recording(name, getattr(fusion, name)))
        model = FusionModel(TINY, seed=31, dtype=np.float32)
        train(model, make_samples(np.random.default_rng(31), 12), 1, TrainingSettings(max_epochs=1))
        assert model.params.dtype == np.float32
        # per epoch: 4 training forwards, 4 validation forwards, 4 backwards, 1 Adam step
        assert (len(seen["records"]), len(seen["output_grads"]), len(seen["adam"])) == (8, 4, 1)
        arrays = [a for r in seen["records"] for a in (*r.inputs, *r.pre_activations, r.output)]
        arrays += seen["output_grads"]  # the first is the residual, scaled in place into dL/drecon
        arrays += list(seen["adam"][0])  # both moments, the scratch, the params and the gradient
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)

    def test_float32_and_float64_models_agree(self):
        narrow = FusionModel(TINY, seed=32, dtype=np.float32)
        wide = FusionModel(TINY, seed=32)
        rng = np.random.default_rng(32)
        narrow.params += (0.05 * rng.standard_normal(narrow.params.size)).astype(np.float32)
        wide.params[:] = narrow.params  # the same float32-representable values
        samples = make_samples(rng, 12).astype(np.float32)
        narrow_loss, narrow_grad = narrow.loss_and_gradients(samples)
        wide_loss, wide_grad = wide.loss_and_gradients(samples)
        assert narrow_grad.dtype == np.float32 and wide_grad.dtype == np.float64
        assert abs(narrow_loss - wide_loss) / wide_loss < 1e-3
        assert max_relative_error([narrow_grad], [wide_grad], floor=1e-6) < 1e-3

    def test_default_precision_is_float64(self):
        model = FusionModel(TINY, seed=33)
        assert model.params.dtype == np.float64
        assert model.encode_batch(make_samples(np.random.default_rng(33), 4).astype(np.float32)).dtype == np.float64


class TestTrain:
    def test_loss_decreases(self):
        rng = np.random.default_rng(11)
        model = FusionModel(TINY, seed=11)
        samples = make_samples(rng, 12)
        report = train(model, samples, 1, TrainingSettings(max_epochs=50, patience=None))
        assert np.isfinite(report.train_losses).all()
        assert report.train_losses[-1] < report.train_losses[0]

    def test_deterministic_given_seeds(self):
        def run():
            rng = np.random.default_rng(12)
            model = FusionModel(TINY, seed=12)
            samples = make_samples(rng, 12)
            report = train(model, samples, 2, TrainingSettings(max_epochs=40))
            frame = extract_embeddings(model, samples, [f"A{i}" for i in range(12)], [0])
            return report, frame

        first_report, first_frame = run()
        second_report, second_frame = run()
        assert first_report.train_losses == second_report.train_losses
        assert first_report.val_losses == second_report.val_losses
        assert first_report.stop_epoch == second_report.stop_epoch
        assert np.array_equal(first_frame.vectors, second_frame.vectors)

    def test_overfits_five_samples(self):
        rng = np.random.default_rng(21)
        arch = FusionArchitecture(graph_count=2, input_dim=6, per_graph_dims=(25, 10), shared_dims=(30,), embedding_dim=15)
        model = FusionModel(arch, seed=3)
        samples = make_samples(rng, 5, dim=6)
        report = train(
            model, samples, 1, TrainingSettings(max_epochs=2000, patience=None, validation_fraction=0.0)
        )
        assert min(report.train_losses) < 1e-3
        assert report.val_losses == []
        assert report.validation_copy_share is None

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(13)
        base = rng.random((2, 5))
        model = FusionModel(TINY, seed=13)
        samples = np.repeat(base[:, np.newaxis], 20, axis=1)
        report = train(model, samples, 3, TrainingSettings(max_epochs=500, patience=10, learning_rate=0.01))
        assert report.stop_reason == "early_stop"
        assert report.stop_epoch < 500
        assert report.best_epoch <= report.stop_epoch
        # best is tracked with min_delta slack, so it sits within that of the minimum
        assert report.best_val_loss <= min(report.val_losses) + 1e-6
        assert report.best_val_loss <= report.val_losses[0]
        # the model holds the best epoch's weights, not the last epoch's; the validation
        # loss is that of the part's distinct rows weighted by their counts
        perm = np.random.default_rng(3).permutation(samples.shape[1])
        val_rows = samples[:, perm[samples.shape[1] - report.config["n_val"] :]]
        distinct, inverse = fusion.distinct_rows(val_rows)
        assert model.reconstruction_loss(distinct, np.bincount(inverse)) == report.best_val_loss
        assert model.reconstruction_loss(val_rows) == pytest.approx(report.best_val_loss, rel=1e-12, abs=0.0)

    def test_validation_copy_share_counts_exact_copies_across_all_graphs(self):
        half = make_samples(np.random.default_rng(16), 10)
        samples = np.concatenate([half, half], axis=1)  # row r + 10 copies row r
        samples[1, 19] += 1.0  # ... except that row 19 differs from row 9 in the second graph
        report = train(FusionModel(TINY, seed=16), samples, 5, TrainingSettings(max_epochs=1))
        perm = np.random.default_rng(5).permutation(20)
        train_rows, val_rows = set(perm[:14].tolist()), perm[14:].tolist()
        copied = [(v + 10) % 20 in train_rows and v not in (9, 19) for v in val_rows]
        assert report.validation_copy_share == np.mean(copied)
        assert 0.0 < report.validation_copy_share < 1.0

    def test_split_requires_ten_samples(self):
        model = FusionModel(TINY, seed=14)
        samples = make_samples(np.random.default_rng(14), 5)
        with pytest.raises(ValueError, match="10 samples"):
            train(model, samples, 1, TrainingSettings())

    def test_non_finite_loss_aborts_with_report(self):
        model = FusionModel(TINY, seed=15)
        samples = make_samples(np.random.default_rng(15), 12)
        samples[0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDiverged) as excinfo:
                train(model, samples, 1, TrainingSettings(max_epochs=10))
        assert excinfo.value.report.stop_reason == "non_finite_loss"


class TestEmbeddings:
    def test_count_and_purity(self):
        rng = np.random.default_rng(16)
        model = FusionModel(TINY, seed=16)
        samples = make_samples(rng, 4)
        samples = np.concatenate([samples, samples], axis=1)  # the same rows on both dates
        frame = extract_embeddings(model, samples, [f"A{i}" for i in range(4)], [100, 200])
        assert frame.vectors.shape == (2, 4, TINY.embedding_dim)
        # identical feature rows on both dates give identical embeddings
        assert np.array_equal(frame.vectors[0], frame.vectors[1])

    def test_copies_get_bitwise_equal_vectors(self):
        model = FusionModel(TINY, seed=44, dtype=np.float32)
        model.params += (0.05 * np.random.default_rng(44).standard_normal(model.params.size)).astype(np.float32)
        samples = repeated_rows(np.random.default_rng(44), distinct=4, copies=(2, 5, 1, 4))  # 3 dates x 4 assets
        _, inverse = fusion.distinct_rows(samples)
        vectors = extract_embeddings(model, samples, ["A0", "A1", "A2", "A3"], [100, 200, 300]).vectors.reshape(12, -1)
        for k in range(4):
            copies = vectors[inverse == k]
            assert (copies == copies[0]).all()
        first, second = np.flatnonzero(inverse == np.bincount(inverse).argmax())[:2]
        assert cosine_similarity(vectors[first], vectors[second]) == 1.0

    def test_rows_are_date_major(self):
        model = FusionModel(TINY, seed=19)
        samples = make_samples(np.random.default_rng(19), 6)
        frame = extract_embeddings(model, samples, ["A0", "A1", "A2"], [100, 200])
        assert frame.universe == ("A0", "A1", "A2")
        assert frame.window_ends == (100, 200)
        assert np.allclose(frame.vectors[1, 1], model.encode_batch(samples[:, 4:5])[0], rtol=0.0, atol=1e-12)

    def test_row_count_must_cover_assets_and_dates(self):
        model = FusionModel(TINY, seed=20)
        with pytest.raises(ValueError, match="2 dates x 3 assets"):
            extract_embeddings(model, make_samples(np.random.default_rng(20), 5), ["A0", "A1", "A2"], [100, 200])

    def test_negative_features_rejected(self):
        model = FusionModel(TINY, seed=21)
        samples = make_samples(np.random.default_rng(21), 12)
        samples[1, 3, 2] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            train(model, samples, 1, TrainingSettings(max_epochs=1))
        with pytest.raises(ValueError, match="nonnegative"):
            extract_embeddings(model, samples, [f"A{i}" for i in range(12)], [0])

    def test_default_architecture_embeds_in_15_dims(self):
        arch = FusionArchitecture(graph_count=2, input_dim=4)
        model = FusionModel(arch, seed=17)
        samples = make_samples(np.random.default_rng(17), 3, dim=4)
        frame = extract_embeddings(model, samples, ["A0", "A1", "A2"], [0])
        assert frame.embedding_dim == 15

    def test_model_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        model = FusionModel(TINY, seed=18)
        samples = make_samples(rng, 3)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert np.array_equal(model.encode_batch(samples), loaded.encode_batch(samples))
        assert np.array_equal(loaded.params, model.params)
        for m in (model, loaded):
            for mlp in m._mlps():
                for layer in mlp.layers:
                    assert np.shares_memory(layer.weight, m.params)
                    assert np.shares_memory(layer.bias, m.params)

    def test_model_file_is_the_stream_encoder_text(self, tmp_path):
        # json.dump (the pure-Python encoder) and json.dumps (the C encoder) write the same text
        save_model(FusionModel(TINY, seed=19), tmp_path / "model.json")
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        with open(tmp_path / "streamed.json", "w", encoding="utf-8") as fh:
            json.dump(json.loads(text), fh)
            fh.write("\n")
        assert (tmp_path / "streamed.json").read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("edit", ["input_dim"])
    def test_checkpoint_layers_must_match_architecture(self, tmp_path, edit):
        arch = FusionArchitecture(graph_count=2, input_dim=6, per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3)
        save_model(FusionModel(arch, seed=22), tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        payload["architecture"][edit] = 5
        (tmp_path / "model.json").write_text(json.dumps(payload))
        # one input column fewer: each of the 2 graphs loses 4 encoder weights, 4 decoder weights and 1 bias
        with pytest.raises(ValueError, match="model.json: 267 stored parameters, the architecture has 249"):
            load_model(tmp_path / "model.json")

    def test_frame_validation(self):
        with pytest.raises(ValueError, match=r"expected \(2, 1, embedding_dim\)"):
            EmbeddingFrame(universe=("A",), window_ends=(1, 2), vectors=np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="strictly increasing"):
            EmbeddingFrame(universe=("A",), window_ends=(2, 1), vectors=np.zeros((2, 1, 3)))


class TestCheckpoint:
    """``model.json`` as ``save_model`` writes it and ``load_model`` reads it."""

    def saved_payload(self, tmp_path):
        save_model(FusionModel(TINY, seed=23), tmp_path / "model.json")
        return json.loads((tmp_path / "model.json").read_text())

    def test_round_trip_bitwise(self, tmp_path):
        model = FusionModel(TINY, seed=23)
        train(model, make_samples(np.random.default_rng(23), 12), 1, TrainingSettings(max_epochs=3))
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert np.array_equal(loaded.params, model.params)
        activations = lambda m: [layer.activation for mlp in m._mlps() for layer in mlp.layers]
        assert activations(loaded) == activations(model)
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()

    def test_float32_model_round_trips_in_its_dtype(self, tmp_path):
        model = FusionModel(TINY, seed=24, dtype=np.float32)
        train(model, make_samples(np.random.default_rng(24), 12), 1, TrainingSettings(max_epochs=3))
        save_model(model, tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())["dtype"] == "float32"
        loaded = load_model(tmp_path / "model.json")
        assert loaded.params.dtype == np.float32
        assert np.array_equal(loaded.params, model.params)
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"dtype": "float16"}, "unsupported dtype 'float16'"),
            ({"dtype": None}, "unsupported dtype None"),
            ({"format_version": 1}, "unsupported model format version 1"),
            ({"format_version": 2}, "unsupported model format version 2"),
        ],
    )
    def test_unknown_dtype_and_version_1_files_refused(self, tmp_path, edit, message):
        """Version-1 files (no dtype) and version-2 files (one entry per MLP copy) are refused."""
        payload = self.saved_payload(tmp_path)
        payload.update(edit)
        if edit == {"format_version": 1}:
            del payload["dtype"]  # a version-1 file records no dtype
        (tmp_path / "old.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"old.json: {message}"):
            load_model(tmp_path / "old.json")

    def test_file_is_the_architecture_and_one_parameter_vector(self, tmp_path):
        model = FusionModel(TINY, seed=23)
        payload = self.saved_payload(tmp_path)
        assert list(payload) == ["format_version", "dtype", "architecture", "params"]
        assert (payload["format_version"], payload["dtype"]) == (3, "float64")
        assert payload["architecture"] == json.loads(json.dumps(asdict(TINY)))
        assert payload["params"] == model.params.tolist()
        # in layer_views order: the first graph encoder's weight stack comes first, its copy 0 first
        first = model.graph_encoder.layers[0].weight
        assert payload["params"][: first.size] == first.ravel().tolist()

    def test_version_checked(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["format_version"] = 99
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, value):
        payload = self.saved_payload(tmp_path)
        payload["params"][7] = value
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="model.json: stored parameters must be finite"):
            load_model(tmp_path / "model.json")

    def test_entry_of_the_wrong_size_rejected(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        size = len(payload["params"])
        payload["params"].pop()
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model.json: {size - 1} stored parameters, the architecture has {size}"):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload.pop("params"), "missing key 'params'"),
            (lambda payload: payload.pop("architecture"), "missing key 'architecture'"),
            (lambda payload: payload["params"].__setitem__(3, "x"), "could not convert string to float"),
            (lambda payload: payload["architecture"].update(embedding_dim=0), "embedding_dim must be positive"),
            (lambda payload: payload["architecture"].update(depth=2), "unexpected keyword argument 'depth'"),
        ],
        ids=["no-params", "no-architecture", "non-numeric", "bad-architecture", "unknown-architecture-key"],
    )
    def test_malformed_file_refused_naming_it(self, tmp_path, edit, message):
        payload = self.saved_payload(tmp_path)
        edit(payload)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^model.json: .*{message}"):
            load_model(tmp_path / "model.json")

    @pytest.mark.parametrize("text, message", [("[1.0, 2.0]", "expected a JSON object"), ('{"params": [', "not valid JSON")])
    def test_non_object_file_refused(self, tmp_path, text, message):
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(ValueError, match=f"^model.json: {message}"):
            load_model(tmp_path / "model.json")
