import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from avq360 import audiofe, nn
from avq360.errors import DataError, NumericError, ValidationError
from avq360.manifest import AudioClip, FrameSequence, load_wav, write_wav
from avq360.model import (
    SCORE_GROUP,
    AVQAModel,
    ModelConfig,
    SequenceFeatures,
    _ConvStack,
    _overlap_matrix,
    audio_input,
    preprocess_sequence,
    sample_frame_indices,
    sinusoidal_positions,
    train_model,
    video_input,
)

from conftest import tiny_features, tiny_model_config
from oracles import (LatitudeWeights, aggregate_band_features, area_resize,
                     finite_difference_store_grads, gradient_rel_err, reference_audio_input,
                     relu_pool_backward, relu_pool_forward, traced_peak, whole_clip_patches)

# the meta/ tensors of checkpoints written while the position codes, the
# input geometry and the feed-forward width were settings and the
# cross-attention schedule was recorded
OLDER_FORMAT_META = {
    "meta/temporal_pos_enc": np.float32(1),
    "meta/audio_pos_enc": np.float32(0),
    "meta/cross_attention_blocks": np.array([1], dtype=np.float32),
    "meta/band_input_hw": np.array([16, 32], dtype=np.float32),
    "meta/patch_frames": np.float32(96),
    "meta/num_mel": np.float32(64),
    "meta/ff_mult": np.float32(2),
}


class TestPreprocessing:
    def test_sample_frame_indices_even_coverage(self):
        np.testing.assert_array_equal(sample_frame_indices(8, 8), np.arange(8))
        idx = sample_frame_indices(20, 5)
        assert idx[0] == 0 and idx[-1] == 19
        assert len(idx) == 5
        with pytest.raises(ValidationError, match="available"):
            sample_frame_indices(4, 8)

    def test_area_resize_downsample_averages(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        out = area_resize(img, 2, 2)
        np.testing.assert_allclose(
            out, [[img[:2, :2].mean(), img[:2, 2:].mean()],
                  [img[2:, :2].mean(), img[2:, 2:].mean()]]
        )

    def test_area_resize_upsample_replicates(self):
        img = np.array([[1.0, 2.0]])
        out = area_resize(img, 2, 4)
        np.testing.assert_allclose(out, [[1, 1, 2, 2], [1, 1, 2, 2]])

    def test_area_resize_preserves_mean(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(10, 14))
        out = area_resize(img, 7, 6)  # non-integer ratios
        assert out.mean() == pytest.approx(img.mean(), rel=1e-12)

    def test_video_input_shapes_and_prior(self):
        cfg = tiny_model_config()
        rng = np.random.default_rng(1)
        seq = FrameSequence(
            frames=rng.integers(0, 256, size=(8, 32, 64), dtype=np.uint8), fps=8.0
        )
        video, prior = video_input(seq, cfg)
        assert video.shape == (2, 2, 16, 32)
        assert prior.shape == (2,)
        assert prior.sum() == pytest.approx(1.0)
        assert np.all(video >= 0.0) and np.all(video <= 1.0)

    def test_overlap_matrix_is_read_only(self):
        mat = _overlap_matrix(64, 32)
        assert _overlap_matrix(64, 32) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_video_input_rejects_non_erp(self):
        cfg = tiny_model_config()
        seq = FrameSequence(frames=np.zeros((2, 32, 32), dtype=np.uint8), fps=1.0)
        with pytest.raises(DataError, match="2:1"):
            video_input(seq, cfg)

    def test_audio_input_patch_stack(self):
        rng = np.random.default_rng(2)
        clip = AudioClip(samples=rng.uniform(-0.5, 0.5, (2, 16000)), sample_rate=16000)
        patches = audio_input(clip)
        assert patches.shape == (2, 96, 64)

    def test_audio_input_resamples_other_rates(self):
        rng = np.random.default_rng(3)
        clip = AudioClip(samples=rng.uniform(-0.5, 0.5, (1, 48000)), sample_rate=48000)
        patches = audio_input(clip)
        assert patches.shape[0] >= 1

    @pytest.mark.parametrize("channels, sr", [(4, 48000), (2, 16000), (1, 16000)])
    def test_audio_input_equals_reference_pipeline(self, tmp_path, channels, sr):
        pcm = np.random.default_rng(channels).integers(
            -32768, 32768, size=(int(2.3 * sr), channels)).astype("<i2")
        path = tmp_path / "a.wav"
        write_wav(AudioClip(samples=pcm.T / 32768.0, sample_rate=sr), path)
        out = audio_input(load_wav(path))
        ref = reference_audio_input(pcm, sr)
        assert out.shape == (3, 96, 64)
        assert np.array_equal(out, ref)

    # frame counts around one and two patches, and a 30 s clip (2 998 frames)
    @pytest.mark.parametrize("n_frames", [1, 95, 96, 97, 191, 192, 193, 2998])
    def test_audio_input_equals_the_whole_clip_functions(self, n_frames):
        x = np.random.default_rng(n_frames).uniform(-0.9, 0.9, 400 + (n_frames - 1) * 160 + 7)
        clip = AudioClip(samples=x[None], sample_rate=16000)
        patches = audio_input(clip)
        assert patches.shape == (-(-n_frames // 96), 96, 64)
        assert patches.tobytes() == whole_clip_patches(clip).tobytes()

    def test_audio_input_of_a_48_khz_wav_decoded_at_16_khz(self, tmp_path):
        pcm = np.random.default_rng(37).integers(
            -32768, 32768, size=(int(2.3 * 48000), 4)).astype("<i2")
        path = tmp_path / "a.wav"
        write_wav(AudioClip(samples=pcm.T / 32768.0, sample_rate=48000), path)
        clip = load_wav(path, audiofe.SAMPLE_RATE)
        assert clip.sample_rate == 16000
        patches = audio_input(clip)
        assert patches.shape == (3, 96, 64)
        assert patches.tobytes() == whole_clip_patches(clip).tobytes()

    @pytest.mark.parametrize("channels, n, sr", [(1, 399, 16000), (2, 0, 16000),
                                                 (4, 1000, 48000)])
    def test_audio_input_shorter_than_one_frame_is_data_error(self, channels, n, sr):
        clip = AudioClip(samples=np.zeros((channels, n)), sample_rate=sr)
        with pytest.raises(DataError) as e:
            audio_input(clip)
        assert str(e.value) == (f"audio of {n} samples at {sr} Hz is shorter than one "
                                "25 ms analysis frame")

    def test_sinusoidal_positions(self):
        pe = sinusoidal_positions(4, 8)
        assert pe.shape == (4, 8)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-12)  # sin(0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-12)  # cos(0)


class TestConfig:
    def test_alternate_blocks_are_odd_indices(self):
        for n, cross in ((2, [1]), (4, [1, 3]), (6, [1, 3, 5])):
            blocks = AVQAModel(tiny_model_config(fusion_blocks=n)).fusion_blocks
            assert [i for i, blk in enumerate(blocks) if blk.cross] == cross

    def test_odd_block_count_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            ModelConfig(fusion_blocks=3).validate()

    def test_head_divisibility(self):
        with pytest.raises(ValidationError, match="divisible"):
            ModelConfig(d_model=10, heads=4).validate()

    def test_band_input_pool_divisibility(self):
        with pytest.raises(ValidationError, match="divisible"):
            ModelConfig(band_channels=(4, 8, 16, 32, 64)).validate()

    def test_unknown_fusion_mode(self):
        with pytest.raises(ValidationError, match="fusion_mode"):
            ModelConfig(fusion_mode="blend").validate()

    def test_default_and_test_configs_validate(self):
        ModelConfig().validate()
        tiny_model_config().validate()


class TestVideoBranch:
    def test_identical_frames_give_identical_tokens_without_pos_enc(self):
        # the band features are the frame tokens before their position codes
        cfg = tiny_model_config(frames_per_clip=3)
        m = AVQAModel(cfg)
        one = np.random.default_rng(4).uniform(size=(1, 2, 16, 32))
        feat = SequenceFeatures(
            video=np.repeat(one, 3, axis=0),
            audio=np.zeros((1, 96, 64)),
            lat_prior=np.array([0.5, 0.5]),
        )
        tokens, (_, stacked, _, _) = m._video_tokens(feat)
        assert tokens.shape == (3, cfg.d_model)
        assert stacked.shape == (2, 3, cfg.d_model)
        assert np.abs(stacked - stacked[:, :1]).max() < 1e-10
        # the position codes are always added, so the tokens differ
        assert np.abs(tokens - tokens[0]).max() > 1e-6

    def test_single_band_aggregation_is_identity(self):
        cfg = tiny_model_config(bands=1)
        m = AVQAModel(cfg)
        feat = tiny_features(seed=5, m=1)
        enc_out, _ = m.band_encoders[0].forward(
            feat.video.astype(np.float64)[:, 0][:, None]
        )
        tokens, (_, stacked, eff, _) = m._video_tokens(feat)
        # aggregation over one band cannot change the encoder output;
        # the temporal block then mixes it
        np.testing.assert_allclose(stacked[0], enc_out, atol=1e-12)
        np.testing.assert_allclose(eff, [1.0])
        assert tokens.shape == (2, cfg.d_model)

    def test_aggregation_matches_reference_operation(self):
        cfg = tiny_model_config()
        m = AVQAModel(cfg)
        feat = tiny_features(seed=6)
        _, (_, stacked, eff, _) = m._video_tokens(feat)
        weights = LatitudeWeights.from_logits(
            feat.lat_prior, m.store.params["video.lat_logits"]
        )
        np.testing.assert_allclose(eff, weights.effective_weights, atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("m,mtd->td", eff, stacked),
            aggregate_band_features(list(stacked), weights),
            atol=1e-12,
        )

    def test_every_band_encoder_receives_gradient(self):
        cfg = tiny_model_config()
        m = AVQAModel(cfg)
        names = [n for n in m.store.param_names() if n.startswith("video.band")]
        assert {n.split(".")[1] for n in names} == {"band0", "band1"}
        m.store.zero_grads()
        m.forward(tiny_features(seed=7))
        m.backward(1.0)
        for b in range(cfg.bands):
            g = m.store.grads[f"video.band{b}.conv0.w"]
            assert np.abs(g).max() > 0.0


class TestConvStack:
    def test_matches_relu_then_pool(self):
        rng = np.random.default_rng(22)
        store = nn.ParamStore()
        stack = _ConvStack(store, "s", (3, 4), 5, rng)
        x = rng.normal(size=(2, 1, 8, 8))
        x[:, :, :4] = 0.0  # conv outputs there are the zero bias: tied windows of zeros
        y, cache = stack.forward(x)
        gy = rng.normal(size=y.shape)
        stack.backward(gy, cache)
        grads = {k: g.copy() for k, g in store.grads.items()}
        store.zero_grads()
        # the same stack with each stage in the order relu, then pool
        h, caches = x, []
        for conv in stack.convs:
            h, conv_cache = conv.forward(h)
            h, stage_cache = relu_pool_forward(h)
            caches.append((conv_cache, stage_cache))
        h, gap_cache = nn.global_mean_pool_forward(h)
        want_y, proj_cache = stack.proj.forward(h)
        g = nn.global_mean_pool_backward(stack.proj.backward(gy, proj_cache), gap_cache)
        for conv, (conv_cache, stage_cache) in zip(reversed(stack.convs), reversed(caches)):
            g = conv.backward(relu_pool_backward(g, stage_cache), conv_cache)
        assert y.tobytes() == want_y.tobytes()
        for k, g in store.grads.items():
            assert g.tobytes() == grads[k].tobytes(), k


class TestScoring:
    # patch counts around one group and around two, and past them
    @pytest.mark.parametrize("p", [1, SCORE_GROUP - 1, SCORE_GROUP, SCORE_GROUP + 1,
                                   2 * SCORE_GROUP - 1, 2 * SCORE_GROUP, 2 * SCORE_GROUP + 1,
                                   2 * SCORE_GROUP + 3, 4 * SCORE_GROUP + 3])
    @pytest.mark.parametrize("make_cfg", [ModelConfig, tiny_model_config])
    def test_predict_is_100_times_forward(self, make_cfg, p):
        cfg = make_cfg()
        m = AVQAModel(cfg)
        feat = tiny_features(seed=p, t=cfg.frames_per_clip, m=cfg.bands, p=p)
        assert m.predict(feat) == 100.0 * m.forward(feat)

    @pytest.mark.parametrize("taped", [True, False])
    def test_overflow_names_the_layer_path(self, taped):
        m = AVQAModel(tiny_model_config())
        m.store.params["audio.cnn.conv0.w"][...] = 1.0
        feat = tiny_features(seed=36)
        feat.audio[...] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as e:
            (m.forward if taped else m.predict)(feat)
        assert str(e.value) == "audio.cnn.conv0: conv2d: non-finite values detected"

    def test_predict_leaves_the_tape_to_backward(self):
        cfg = tiny_model_config()
        feat = tiny_features(seed=30)
        want = AVQAModel(cfg)
        want.forward(feat)
        want.backward(1.0)
        m = AVQAModel(cfg)
        m.forward(feat)
        m.predict(tiny_features(seed=31, p=SCORE_GROUP + 1))
        m.backward(1.0)
        for name in want.store.param_names():
            assert m.store.grads[name].tobytes() == want.store.grads[name].tobytes(), name

    def test_predict_memory_does_not_grow_with_the_clip(self):
        # at the default model, 32 patches' training tape peaks above 100 MB
        m = AVQAModel(ModelConfig())
        feat = tiny_features(seed=32, t=8, m=4, p=32)
        assert traced_peak(lambda: m.predict(feat)) < 16 * 2 ** 20

    def test_predict_holds_one_group_of_four_patches(self):
        # the bound is the first audio conv's buffers for 4 patches of 96x64
        # with 8 channels out (columns, output, pool pairs and pooled output),
        # plus 2 MiB, about 6.6 MB; groups of 8 patches peaked near 10.6 MB
        m = AVQAModel(ModelConfig())
        feat = tiny_features(seed=32, t=8, m=4, p=32)
        cols, out = 4 * 9 * 96 * 64 * 8, 4 * 8 * 96 * 64 * 8
        assert traced_peak(lambda: m.predict(feat)) < cols + out + out // 2 + out // 4 + 2 * 2 ** 20

    def test_video_input_converts_one_frame_at_a_time(self):
        # 8 float64 copies of a 1024x512 frame are 33.5 MB
        frames = np.random.default_rng(33).integers(0, 256, (32, 512, 1024), dtype=np.uint8)
        seq = FrameSequence(frames=frames, fps=30.0)
        assert traced_peak(lambda: video_input(seq, ModelConfig())) < 8 * 2 ** 20

    def test_audio_input_squares_no_whole_spectrum(self):
        # a 30 s 48 kHz clip: the bound is the 16 kHz row, the 6.2 MB
        # spectrum, the log-mel and its patch stack, plus 1 MB; a squared
        # copy of the spectrum put the peak near 18 MB
        clip = AudioClip(samples=np.random.default_rng(35).uniform(-0.9, 0.9, (1, 30 * 48000)),
                         sample_rate=48000)
        row = 30 * 16000 * 8
        frames = 1 + (30 * 16000 - 400) // 160
        spectrum, mel = frames * 257 * 8, frames * 64 * 8
        patches = -(-frames // 96) * 96 * 64 * 8
        peak = traced_peak(lambda: audio_input(clip))
        assert peak < row + spectrum + mel + patches + 2 ** 20

    def test_audio_input_holds_no_whole_clip_spectrum(self):
        # a 30 s 48 kHz clip: the bound is the 16 kHz row and the patch stack,
        # plus 2 MiB, about 7.5 MB; the 6.2 MB whole-clip spectrum put the
        # peak near 13.6 MB
        clip = AudioClip(samples=np.random.default_rng(35).uniform(-0.9, 0.9, (1, 30 * 48000)),
                         sample_rate=48000)
        row = 30 * 16000 * 8
        patches = -(-(1 + (30 * 16000 - 400) // 160) // 96) * 96 * 64 * 8
        assert traced_peak(lambda: audio_input(clip)) < row + patches + 2 * 2 ** 20


class TestAudioBranch:
    def test_identical_patches_identical_tokens(self):
        cfg = tiny_model_config()
        m = AVQAModel(cfg)
        patch = np.random.default_rng(8).normal(size=(1, 96, 64))
        feat = SequenceFeatures(
            video=tiny_features(seed=8).video,
            audio=np.repeat(patch, 3, axis=0),
            lat_prior=np.array([0.5, 0.5]),
        )
        tokens, _ = m._audio_tokens(feat)
        assert tokens.shape == (3, cfg.d_model)
        assert np.abs(tokens - tokens[0]).max() < 1e-12

    def test_wrong_patch_shape_rejected(self):
        cfg = tiny_model_config()
        m = AVQAModel(cfg)
        feat = tiny_features(seed=9)
        feat.audio = np.zeros((2, 50, 64))
        with pytest.raises(ValidationError):
            m.forward(feat)


class TestFusion:
    @staticmethod
    def fusion_score(m, v_tokens, a_tokens):
        v = v_tokens
        for blk in m.fusion_blocks:
            v, _ = blk.forward(v, a_tokens)
        v, _ = m.final_ln.forward(v)
        return float(nn.sigmoid(m.head.forward(v.mean(axis=0))[0])[0])

    def test_cross_attention_is_live(self):
        # replacing the audio token matrix by zeros vs ones must move the
        # score: the cross-attention sublayers are actually wired in
        cfg = tiny_model_config()
        m = AVQAModel(cfg)
        v, _ = m._video_tokens(tiny_features(seed=10))
        s_zeros = self.fusion_score(m, v, np.zeros((2, cfg.d_model)))
        s_ones = self.fusion_score(m, v, np.ones((2, cfg.d_model)))
        assert s_zeros != s_ones

    def test_audio_patch_permutation_invariance(self):
        # audio tokens carry no position code
        cfg = tiny_model_config()
        m = AVQAModel(cfg)
        feat = tiny_features(seed=11, p=4)
        s1 = m.forward(feat)
        perm = SequenceFeatures(
            feat.video, feat.audio[[2, 0, 3, 1]], feat.lat_prior
        )
        s2 = m.forward(perm)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_score_in_unit_interval(self):
        m = AVQAModel(tiny_model_config())
        for seed in range(5):
            s = m.forward(tiny_features(seed=seed))
            assert 0.0 < s < 1.0

    @pytest.mark.parametrize("mode", ["cat", "add"])
    def test_ablation_modes_forward_and_train(self, mode):
        cfg = tiny_model_config(fusion_mode=mode, train_steps=5, batch_size=2)
        m = AVQAModel(cfg)
        feats = [tiny_features(seed=s) for s in range(4)]
        targets = np.linspace(0.2, 0.8, 4)
        result = train_model(m, feats, targets)
        assert len(result.history) == 5
        assert np.isfinite(result.final_loss)
        s = m.forward(feats[0])
        assert 0.0 < s < 1.0


class TestGradient:
    def test_full_model_gradient_spot_check(self):
        """Subset FD check per tensor; the acceptance suite sweeps all."""
        m = AVQAModel(tiny_model_config())
        feat = tiny_features(seed=13)
        target = 0.65

        def loss_fn():
            s = m.forward(feat)
            return (s - target) ** 2

        m.store.zero_grads()
        s = m.forward(feat)
        m.backward(2.0 * (s - target))
        numeric = finite_difference_store_grads(
            loss_fn, m.store, max_coords_per_tensor=4, seed=0
        )
        worst = 0.0
        for name, (idx, vals) in numeric.items():
            analytic = m.store.grads[name].reshape(-1)[idx]
            worst = max(worst, gradient_rel_err(analytic, vals))
        assert worst < 1e-4

    def test_predict_between_forward_and_backward_keeps_gradients(self):
        m = AVQAModel(tiny_model_config())
        feat_a, feat_b = tiny_features(seed=15), tiny_features(seed=16)

        def grads(between):
            m.store.zero_grads()
            m.forward(feat_a)
            between()
            m.backward(0.5)
            return {name: g.copy() for name, g in m.store.grads.items()}

        plain = grads(lambda: None)
        interleaved = grads(lambda: m.predict(feat_b))
        for name, g in plain.items():
            np.testing.assert_array_equal(interleaved[name], g, err_msg=name)

    def test_backward_consumes_the_forward(self):
        m = AVQAModel(tiny_model_config())
        with pytest.raises(ValidationError, match="forward"):
            m.backward(1.0)
        m.forward(tiny_features(seed=17))
        m.backward(1.0)
        with pytest.raises(ValidationError, match="forward"):
            m.backward(1.0)

    def test_modules_hold_no_activations(self):
        # every array reachable from the modules is a parameter; only the
        # model's own tape holds the cache of the last forward
        m = AVQAModel(tiny_model_config())
        m.forward(tiny_features(seed=18))
        m.predict(tiny_features(seed=19))
        params = {id(p) for p in m.store.params.values()}
        seen = set()

        def walk(obj, where):
            if id(obj) in seen or isinstance(obj, (nn.ParamStore, ModelConfig)):
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                assert id(obj) in params, where
            elif isinstance(obj, (list, tuple)):
                for i, x in enumerate(obj):
                    walk(x, f"{where}[{i}]")
            elif isinstance(obj, dict):
                for k, x in obj.items():
                    walk(x, f"{where}[{k!r}]")
            elif hasattr(obj, "__dict__"):
                for k, x in vars(obj).items():
                    if not (obj is m and k == "_tape"):
                        walk(x, f"{where}.{k}")

        walk(m, "model")

    @pytest.mark.parametrize("mode", ["cat", "add"])
    def test_ablation_gradients(self, mode):
        m = AVQAModel(tiny_model_config(fusion_mode=mode))
        feat = tiny_features(seed=14)

        def loss_fn():
            return (m.forward(feat) - 0.3) ** 2

        m.store.zero_grads()
        s = m.forward(feat)
        m.backward(2.0 * (s - 0.3))
        numeric = finite_difference_store_grads(
            loss_fn, m.store, max_coords_per_tensor=4, seed=1
        )
        for name, (idx, vals) in numeric.items():
            analytic = m.store.grads[name].reshape(-1)[idx]
            assert gradient_rel_err(analytic, vals) < 1e-4, name


class TestTraining:
    def make_dataset(self, n=6):
        feats = [tiny_features(seed=100 + i) for i in range(n)]
        targets = np.linspace(0.25, 0.85, n)
        return feats, targets

    def test_zero_steps_keeps_initialization(self, tmp_path):
        cfg = tiny_model_config(train_steps=0)
        m = AVQAModel(cfg)
        init = {k: v.copy() for k, v in m.store.params.items()}
        feats, targets = self.make_dataset()
        train_model(m, feats, targets)
        for name, value in init.items():
            np.testing.assert_array_equal(m.store.params[name], value)
        path = tmp_path / "init.avqc"
        m.save(path)
        fresh = AVQAModel(cfg)
        path2 = tmp_path / "fresh.avqc"
        fresh.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_same_seed_same_loss_curve(self):
        feats, targets = self.make_dataset()

        def run():
            m = AVQAModel(tiny_model_config(train_steps=12, batch_size=3))
            return train_model(m, feats, targets).history

        assert run() == run()

    def test_loss_decreases_over_first_ten_steps_most_seeds(self):
        # Adam's normalized steps oscillate slightly near the basin, so the
        # workable reading is net progress over the window: the loss after
        # ten full-batch steps must not exceed the starting loss.
        feats, targets = self.make_dataset()
        ok = 0
        for seed in range(10):
            cfg = tiny_model_config(seed=seed, train_steps=10, batch_size=len(feats))
            m = AVQAModel(cfg)
            hist = train_model(m, feats, targets).history
            losses = [h[1] for h in hist]
            if losses[-1] <= losses[0]:
                ok += 1
        assert ok >= 9

    def test_target_validation(self):
        m = AVQAModel(tiny_model_config())
        feats, _ = self.make_dataset(2)
        with pytest.raises(ValidationError, match="normalized"):
            train_model(m, feats, np.array([0.5, 50.0]))
        with pytest.raises(ValidationError, match="empty"):
            train_model(m, [], np.array([]))


class TestPersistence:
    def test_save_load_roundtrip_preserves_predictions(self, tmp_path):
        cfg = tiny_model_config(train_steps=3, batch_size=1)
        m = AVQAModel(cfg)
        feat = tiny_features(seed=15)
        feats, targets = [feat], np.array([0.4])
        train_model(m, feats, targets)
        path = tmp_path / "model.avqc"
        m.save(path)
        loaded = AVQAModel.load(path)
        assert loaded.cfg == cfg or loaded.cfg.fusion_mode == cfg.fusion_mode
        # parameters pass through f32 serialization
        assert loaded.predict(feat) == pytest.approx(m.predict(feat), abs=1e-3)
        assert loaded.predict(feat) == loaded.predict(feat)

    def test_predict_range_and_bias_monotonicity(self):
        m = AVQAModel(tiny_model_config())
        feat = tiny_features(seed=16)
        s0 = m.predict(feat)
        assert 0.0 < s0 < 100.0
        m.store.params["head.b"][0] += 1.0
        assert m.predict(feat) > s0

    def test_missing_tensor_is_config_mismatch(self, tmp_path):
        m = AVQAModel(tiny_model_config())
        path = tmp_path / "model.avqc"
        tensors = dict(m.store.params)
        from avq360.model import _config_to_meta

        tensors.update(_config_to_meta(m.cfg))
        del tensors["head.w"]
        nn.write_checkpoint(path, tensors)
        with pytest.raises(DataError, match="mismatch"):
            AVQAModel.load(path)

    @pytest.mark.parametrize("key,value", [
        ("bands", np.float32("nan")),
        ("band_channels", np.ones((2, 2), dtype=np.float32)),
        ("d_model", np.float32(8.7)),
        ("fusion_mode", np.float32(3)),  # codes 0-2 name the 3 modes
        ("heads", np.float32(0)),
    ])
    def test_malformed_meta_is_data_error(self, tmp_path, key, value):
        from avq360.model import _config_to_meta

        m = AVQAModel(tiny_model_config())
        tensors = dict(m.store.params)
        tensors.update(_config_to_meta(m.cfg))
        tensors[f"meta/{key}"] = value
        path = tmp_path / "model.avqc"
        nn.write_checkpoint(path, tensors)
        with pytest.raises(DataError, match=str(path)):
            AVQAModel.load(path)

    # the first tensor of the tiny model that each oversized meta/ value contradicts
    LARGER_MODEL_MISMATCH = {
        "d_model": "shape mismatch for video.band0.proj.w: checkpoint (3, 8) vs model (3, 8192)",
        "fusion_blocks": "checkpoint lacks parameter fusion.block2.ln1.gamma",
        "band_channels": "shape mismatch for video.band0.conv1.w: "
                         "checkpoint (3, 2, 3, 3) vs model (16777216, 2, 3, 3)",
        "bands": "checkpoint lacks parameter video.band2.conv0.w",
        "audio_channels": "shape mismatch for audio.cnn.conv3.w: "
                          "checkpoint (3, 2, 3, 3) vs model (16777216, 2, 3, 3)",
    }

    @pytest.mark.parametrize("key,value", [
        ("d_model", np.float32(8192)),
        ("fusion_blocks", np.float32(2 ** 29)),
        ("band_channels", np.array([2, 2 ** 24], dtype=np.float32)),
        ("bands", np.float32(2 ** 30)),
        ("audio_channels", np.array([1, 2, 2, 2 ** 24], dtype=np.float32)),
    ])
    def test_meta_of_a_larger_model_is_refused_before_building(self, tmp_path, key, value):
        from avq360.model import _config_to_meta

        m = AVQAModel(tiny_model_config())
        tensors = dict(m.store.params)
        tensors.update(_config_to_meta(m.cfg))
        tensors[f"meta/{key}"] = value
        path = tmp_path / "model.avqc"
        nn.write_checkpoint(path, tensors)
        tracemalloc.start()
        try:
            with pytest.raises(DataError) as e:
                AVQAModel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = self.LARGER_MODEL_MISMATCH[key]
        assert str(e.value) == f"{path}: checkpoint/config mismatch: {message}"
        assert peak < 2 ** 20

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        cfg = tiny_model_config(train_steps=2, batch_size=1)
        feat = tiny_features(seed=15)
        m = AVQAModel(cfg)
        train_model(m, [feat], np.array([0.3]))
        path = tmp_path / "model.avqc"
        m.save(path)
        # the model as it was loaded before: seeded init, then the checkpoint copied in
        want = AVQAModel(cfg)
        for name, value in nn.read_checkpoint(path).items():
            if not name.startswith("meta/"):
                want.store.params[name][...] = value

        def no_draw(*args):
            raise AssertionError("random init drawn")

        monkeypatch.setattr(nn, "kaiming_uniform", no_draw)
        with pytest.raises(AssertionError, match="random init drawn"):
            AVQAModel(cfg)
        loaded = AVQAModel.load(path)
        assert loaded.store.param_names() == want.store.param_names()
        for name in want.store.param_names():
            assert loaded.store.params[name].tobytes() == want.store.params[name].tobytes()
        assert loaded.predict(feat) == want.predict(feat)
        # one array per name, shared by the store and its layer
        assert loaded.head.w is loaded.store.params["head.w"]

    def test_loaded_model_holds_no_gradients_until_it_trains(self, tmp_path):
        cfg = tiny_model_config(train_steps=3, batch_size=2)
        path = tmp_path / "model.avqc"
        AVQAModel(cfg).save(path)
        loaded = AVQAModel.load(path)
        assert loaded.store.grads == {}
        eager = AVQAModel(cfg)
        for name, value in loaded.store.params.items():
            eager.store.params[name][...] = value
        # the training settings a checkpoint does not record
        loaded.cfg = cfg
        feats = [tiny_features(seed=s) for s in (40, 41, 42)]
        targets = np.array([0.2, 0.7, 0.5])
        assert train_model(loaded, feats, targets).history == \
            train_model(eager, feats, targets).history
        for name in eager.store.param_names():
            assert loaded.store.params[name].tobytes() == eager.store.params[name].tobytes()

    def test_load_errors_keep_their_messages(self, tmp_path):
        from avq360.model import _config_to_meta

        m = AVQAModel(tiny_model_config())
        d = m.cfg.d_model
        path = tmp_path / "model.avqc"
        cases = [
            (lambda t: t.pop("head.w"), "checkpoint lacks parameter head.w"),
            (lambda t: t.update({"head.x": t["head.w"], "audio.extra": t["head.b"]}),
             "unexpected parameters ['audio.extra', 'head.x']"),
            (lambda t: t.update({"head.w": t["head.w"].reshape(1, d)}),
             f"shape mismatch for head.w: checkpoint (1, {d}) vs model ({d}, 1)"),
        ]
        for edit, message in cases:
            tensors = dict(m.store.params)
            tensors.update(_config_to_meta(m.cfg))
            edit(tensors)
            nn.write_checkpoint(path, tensors)
            with pytest.raises(DataError) as e:
                AVQAModel.load(path)
            assert str(e.value) == f"{path}: checkpoint/config mismatch: {message}"

    def test_unknown_meta_is_refused(self, tmp_path):
        from avq360.model import _config_to_meta

        m = AVQAModel(tiny_model_config())
        tensors = {**m.store.params, **_config_to_meta(m.cfg), **OLDER_FORMAT_META}
        path = tmp_path / "model.avqc"
        nn.write_checkpoint(path, tensors)
        with pytest.raises(DataError) as e:
            AVQAModel.load(path)
        assert str(e.value) == f"{path}: unknown architecture metadata {sorted(OLDER_FORMAT_META)}"

    @pytest.mark.parametrize("key,value", [("fusion_blocks", 2), ("fusion_mode", 2)])
    def test_edited_fusion_meta_is_config_mismatch(self, tmp_path, key, value):
        # the parameter names carry the cross-attention schedule: a file
        # whose fusion meta/ disagrees with its parameters is refused
        from avq360.model import _config_to_meta

        m = AVQAModel(tiny_model_config(fusion_blocks=4))
        tensors = {**m.store.params, **_config_to_meta(m.cfg)}
        tensors[f"meta/{key}"] = np.float32(value)  # 2 blocks, or the code of "add"
        path = tmp_path / "model.avqc"
        nn.write_checkpoint(path, tensors)
        with pytest.raises(DataError) as e:
            AVQAModel.load(path)
        assert str(e.value).startswith(
            f"{path}: checkpoint/config mismatch: unexpected parameters ['fusion.block")

    # SHA-256 of each parameter's name and float64 bytes, in name order,
    # taken from the seeded init before the layers drew it lazily
    @pytest.mark.parametrize("cfg,digest", [
        (ModelConfig(), "8d3fa6df1cf589790c5e1c89cd81e2d6851e55a7f81f3f442b4d4dd78060d12f"),
        (tiny_model_config(), "0dd888f2052704361880219158dbd1dcaa819677d613758393cd3a241ccda11f"),
        (ModelConfig(fusion_mode="cat", seed=3),
         "47fa4d054a573923039869397fda9bad097fb4f55e29e68de4636d9fccbccf3f"),
    ])
    def test_seeded_init_is_unchanged(self, cfg, digest):
        store = AVQAModel(cfg).store
        h = hashlib.sha256()
        for name in store.param_names():
            h.update(name.encode())
            h.update(store.params[name].tobytes())
        assert h.hexdigest() == digest

    def test_f32_on_disk_f64_in_memory(self, tmp_path):
        from avq360.model import _config_to_meta

        m = AVQAModel(tiny_model_config())
        path = tmp_path / "model.avqc"
        m.save(path)
        # the file is the sorted named records of every tensor as <f4
        tensors = {**m.store.params, **_config_to_meta(m.cfg)}
        expected = b"AVQC" + struct.pack("<II", 1, len(tensors))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f4")
            expected += struct.pack("<I", len(name)) + name.encode()
            expected += struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape) + arr.tobytes()
        assert path.read_bytes() == expected
        loaded = AVQAModel.load(path)
        for name, p in loaded.store.params.items():
            assert p.dtype == np.float64
            np.testing.assert_array_equal(p, m.store.params[name].astype("<f4"))
        again = tmp_path / "again.avqc"
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_distinct_fusion_modes_distinct_checkpoints(self, tmp_path):
        blobs = {}
        for mode in ("transformer", "cat", "add"):
            cfg = tiny_model_config(fusion_mode=mode)
            m = AVQAModel(cfg)
            path = tmp_path / f"{mode}.avqc"
            m.save(path)
            blobs[mode] = path.read_bytes()
        assert len(set(blobs.values())) == 3


class TestEndToEndPreprocess:
    def test_preprocess_sequence_from_media(self):
        rng = np.random.default_rng(17)
        seq = FrameSequence(
            frames=rng.integers(0, 256, size=(8, 32, 64), dtype=np.uint8), fps=8.0
        )
        clip = AudioClip(samples=rng.uniform(-0.5, 0.5, (2, 16000)), sample_rate=16000)
        cfg = tiny_model_config()
        feat = preprocess_sequence(seq, clip, cfg, "demo")
        assert feat.sequence_id == "demo"
        m = AVQAModel(cfg)
        assert 0.0 < m.forward(feat) < 1.0
