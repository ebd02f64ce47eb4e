import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from oracles import central_difference_grads, fusion_loop_oracle, max_relative_error
from leadlag_fuse import neural
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
        # the model holds the best epoch's weights, not the last epoch's
        perm = np.random.default_rng(3).permutation(samples.shape[1])
        val_rows = samples[:, perm[samples.shape[1] - report.config["n_val"] :]]
        assert model.reconstruction_loss(val_rows) == report.best_val_loss

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
        assert len(frame) == samples.shape[1]
        # identical feature rows on both dates give identical embeddings
        assert np.array_equal(frame.vectors[:4], frame.vectors[4:])
        assert frame.lookup("A0", 100) is not None
        assert frame.lookup("A0", 999) is None

    def test_rows_are_date_major(self):
        model = FusionModel(TINY, seed=19)
        samples = make_samples(np.random.default_rng(19), 6)
        frame = extract_embeddings(model, samples, ["A0", "A1", "A2"], [100, 200])
        assert frame.asset_ids == ("A0", "A1", "A2", "A0", "A1", "A2")
        assert frame.window_ends == (100, 100, 100, 200, 200, 200)
        assert np.allclose(frame.lookup("A1", 200), model.encode_batch(samples[:, 4:5])[0], rtol=0.0, atol=1e-12)

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

    @pytest.mark.parametrize("edit", ["input_dim", "extra_encoder"])
    def test_checkpoint_layers_must_match_architecture(self, tmp_path, edit):
        arch = FusionArchitecture(graph_count=2, input_dim=6, per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3)
        save_model(FusionModel(arch, seed=22), tmp_path / "model.json")
        payload = json.loads((tmp_path / "model.json").read_text())
        if edit == "input_dim":
            payload["architecture"]["input_dim"] = 5
        else:
            payload["graph_encoders"].append(payload["graph_encoders"][0])
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="do not match"):
            load_model(tmp_path / "model.json")

    def test_frame_validation(self):
        with pytest.raises(ValueError, match="matching"):
            EmbeddingFrame(asset_ids=("A",), window_ends=(1, 2), vectors=np.zeros((1, 3)), universe=("A",))
