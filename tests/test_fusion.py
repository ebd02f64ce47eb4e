import numpy as np
import pytest

from oracles import central_difference_grads, max_relative_error
from leadlag_fuse import neural
from leadlag_fuse.fusion import (
    EmbeddingFrame,
    FusionArchitecture,
    FusionModel,
    TrainingDiverged,
    TrainingSample,
    TrainingSettings,
    decode,
    encode,
    extract_embeddings,
    load_model,
    reconstruction_loss,
    save_model,
    train,
)

TINY = FusionArchitecture(graph_count=2, input_dim=5, per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3)


def make_samples(rng, count, graphs=2, dim=5, date_index=0):
    return [TrainingSample(i, date_index, rng.random((graphs, dim))) for i in range(count)]


def blocks_of(samples):
    rows = np.stack([s.rows for s in samples])
    return [rows[:, l, :] for l in range(rows.shape[1])]


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
        blocks = [rng.random((4, 7)) for _ in range(graph_count)]
        z = model.encode_batch(blocks)
        assert z.shape == (4, 3)
        recons = model.decode_batch(z)
        assert len(recons) == graph_count
        assert all(r.shape == (4, 7) for r in recons)

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ValueError):
            FusionArchitecture(graph_count=0, input_dim=5)
        with pytest.raises(ValueError):
            FusionArchitecture(graph_count=2, input_dim=5, per_graph_dims=())


class TestEncodeDecode:
    def test_zero_input_zero_bias_gives_zero_embedding(self):
        model = FusionModel(TINY, seed=3)  # init biases are zero
        sample = TrainingSample(0, 0, np.zeros((2, 5)))
        assert np.array_equal(encode(model, sample), np.zeros(3))

    def test_zero_embedding_zero_bias_decodes_to_zero(self):
        model = FusionModel(TINY, seed=3)
        assert np.array_equal(decode(model, np.zeros(3)), np.zeros((2, 5)))

    def test_tiny_hand_set_forward(self):
        arch = FusionArchitecture(graph_count=2, input_dim=3, per_graph_dims=(2,), shared_dims=(), embedding_dim=2)
        model = FusionModel(arch, seed=0)
        w_enc0 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -1.0]])
        w_enc1 = np.array([[0.2, 0.0, 0.3], [1.0, 1.0, 1.0]])
        w_shared = np.array([[1.0, 0.0, -1.0, 0.5], [0.0, 2.0, 0.0, 1.0]])
        for mlp, weight in ((model.graph_encoders[0], w_enc0), (model.graph_encoders[1], w_enc1), (model.shared_encoder, w_shared)):
            mlp.layers[0].weight[:] = weight
            mlp.layers[0].bias[:] = 0.1
        x0 = np.array([0.3, 0.6, 0.2])
        x1 = np.array([0.5, 0.1, 0.4])
        sample = TrainingSample(0, 0, np.stack([x0, x1]))
        h0 = np.maximum(w_enc0 @ x0 + 0.1, 0.0)
        h1 = np.maximum(w_enc1 @ x1 + 0.1, 0.0)
        expected = np.maximum(w_shared @ np.concatenate([h0, h1]) + 0.1, 0.0)
        assert np.allclose(encode(model, sample), expected, atol=1e-15)

    def test_graph_permutation_requires_matching_shared_weights(self):
        arch = FusionArchitecture(graph_count=2, input_dim=4, per_graph_dims=(3,), shared_dims=(), embedding_dim=2)
        model = FusionModel(arch, seed=9)
        rng = np.random.default_rng(10)
        for p in model.parameters():
            p += 0.1 * rng.standard_normal(p.shape)
        sample = TrainingSample(0, 0, rng.random((2, 4)))

        permuted = FusionModel(arch, seed=9)
        for dst, src in zip(permuted.parameters(), model.parameters()):
            dst[:] = src
        permuted.graph_encoders = [permuted.graph_encoders[1], permuted.graph_encoders[0]]
        swapped_sample = TrainingSample(0, 0, sample.rows[::-1].copy())

        # with the shared encoder unchanged the embeddings differ...
        assert not np.allclose(encode(permuted, swapped_sample), encode(model, sample))
        # ...and agree once its input columns are permuted the same way
        k = arch.per_graph_out
        w = permuted.shared_encoder.layers[0].weight
        w[:] = np.concatenate([w[:, k:], w[:, :k]], axis=1)
        assert np.allclose(encode(permuted, swapped_sample), encode(model, sample), atol=1e-15)

    def test_round_trip_shapes(self):
        model = FusionModel(TINY, seed=4)
        sample = TrainingSample(0, 0, np.random.default_rng(5).random((2, 5)))
        recon = decode(model, encode(model, sample))
        assert recon.shape == (2, 5)

    def test_shape_mismatches_rejected(self):
        model = FusionModel(TINY, seed=4)
        with pytest.raises(ValueError, match="blocks"):
            model.encode_batch([np.zeros((1, 5))])  # wrong graph count
        with pytest.raises(ValueError, match="expected"):
            model.encode_batch([np.zeros((1, 6)), np.zeros((1, 6))])  # wrong feature dim
        with pytest.raises(ValueError, match="expected"):
            model.decode_batch(np.zeros((1, 7)))  # wrong embedding dim


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        model = FusionModel(TINY, seed=6)
        samples = [TrainingSample(0, 0, np.zeros((2, 5)))]
        # zero-weight model reconstructs zero inputs exactly
        for p in model.parameters():
            p[:] = 0.0
        assert reconstruction_loss(model, samples) == 0.0

    def test_mean_over_graphs(self):
        model = FusionModel(TINY, seed=7)
        for p in model.parameters():
            p[:] = 0.0  # reconstructions are all zero
        rows = np.stack([np.full(5, np.sqrt(2.0)), np.full(5, 2.0)])
        samples = [TrainingSample(0, 0, rows)]
        # per-graph MSEs are 2.0 and 4.0, so the fused loss is their mean
        assert reconstruction_loss(model, samples) == pytest.approx(3.0, abs=1e-15)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        model = FusionModel(TINY, seed=8)
        samples = make_samples(rng, 4)
        blocks = blocks_of(samples)
        recons = model.decode_batch(model.encode_batch(blocks))
        expected = np.mean([np.mean((r - x) ** 2) for r, x in zip(recons, blocks)])
        assert reconstruction_loss(model, samples) == pytest.approx(expected, abs=1e-15)


class TestGradients:
    def test_fusion_gradients_match_finite_differences(self):
        model = FusionModel(TINY, seed=0)
        rng = np.random.default_rng(1000)
        for p in model.parameters():
            p += 0.05 * rng.standard_normal(p.shape)
        samples = [TrainingSample(0, 0, rng.random((2, 5)) + 0.05) for _ in range(3)]
        blocks = blocks_of(samples)

        records = [neural.forward(e, b) for e, b in zip(model.graph_encoders, blocks)]
        concat = np.concatenate([r.output for r in records], axis=1)
        ser = neural.forward(model.shared_encoder, concat)
        sdr = neural.forward(model.shared_decoder, ser.output)
        chunks = np.split(sdr.output, 2, axis=1)
        dec_recs = [neural.forward(d, c) for d, c in zip(model.graph_decoders, chunks)]
        pre = [z for r in records + [ser, sdr] + dec_recs for z in r.pre_activations]
        assert min(np.abs(z).min() for z in pre) > 1e-6  # away from ReLU kinks

        _, grads = model.loss_and_gradients(blocks)
        numeric = central_difference_grads(lambda: model.reconstruction_loss(blocks), model.parameters(), h=1e-5)
        assert max_relative_error(grads, numeric, floor=1e-8) < 1e-4


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
        samples = [TrainingSample(i, 0, base.copy()) for i in range(20)]
        report = train(model, samples, 3, TrainingSettings(max_epochs=500, patience=10, learning_rate=0.01))
        assert report.stop_reason == "early_stop"
        assert report.stop_epoch < 500
        assert report.best_epoch <= report.stop_epoch
        # best is tracked with min_delta slack, so it sits within that of the minimum
        assert report.best_val_loss <= min(report.val_losses) + 1e-6
        assert report.best_val_loss <= report.val_losses[0]

    def test_split_requires_ten_samples(self):
        model = FusionModel(TINY, seed=14)
        samples = make_samples(np.random.default_rng(14), 5)
        with pytest.raises(ValueError, match="10 samples"):
            train(model, samples, 1, TrainingSettings())

    def test_non_finite_loss_aborts_with_report(self):
        model = FusionModel(TINY, seed=15)
        samples = make_samples(np.random.default_rng(15), 12)
        samples[0].rows[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDiverged) as excinfo:
                train(model, samples, 1, TrainingSettings(max_epochs=10))
        assert excinfo.value.report.stop_reason == "non_finite_loss"


class TestEmbeddings:
    def test_count_and_purity(self):
        rng = np.random.default_rng(16)
        model = FusionModel(TINY, seed=16)
        samples = make_samples(rng, 4)
        samples += [TrainingSample(s.asset_index, 1, s.rows.copy()) for s in samples]
        frame = extract_embeddings(model, samples, [f"A{i}" for i in range(4)], [100, 200])
        assert len(frame) == len(samples)
        # identical feature rows on both dates give identical embeddings
        assert np.array_equal(frame.vectors[:4], frame.vectors[4:])
        assert frame.lookup("A0", 100) is not None
        assert frame.lookup("A0", 999) is None

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
        for s in samples:
            assert np.array_equal(encode(model, s), encode(loaded, s))

    def test_frame_validation(self):
        with pytest.raises(ValueError, match="matching"):
            EmbeddingFrame(asset_ids=("A",), window_ends=(1, 2), vectors=np.zeros((1, 3)), universe=("A",))
