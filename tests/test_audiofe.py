import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360 import audiofe
from avq360.audiofe import (
    PATCH_FRAMES,
    hz_to_mel,
    log_mel,
    log_mel_patches,
    mel_filterbank,
    mel_to_hz,
    next_pow2,
    resample_linear,
    stft_magnitude,
    write_features,
)
from avq360.errors import DataError, ValidationError
from avq360.manifest import AudioClip

from oracles import (filter_center_frequencies, gathered_stft_magnitude, interp_resample,
                     one_shot_stft_magnitude, read_features)


def mono(x, sr=16000):
    return AudioClip(samples=np.asarray(x, dtype=np.float64)[None, :], sample_rate=sr)


def tone(freq, sr=16000, dur=1.0, amp=1.0):
    t = np.arange(int(sr * dur)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestSTFT:
    def test_frame_count_formula(self):
        # 1 s at 16 kHz, 25 ms window, 10 ms hop -> 1 + (16000-400)//160 = 98
        mag = stft_magnitude(mono(np.zeros(16000)))
        assert mag.shape == (98, 257)

    def test_silence_all_zero(self):
        mag = stft_magnitude(mono(np.zeros(16000)))
        assert np.all(mag == 0.0)

    def test_sine_at_exact_bin_has_dominant_bin(self):
        # 1 kHz is bin 32 of a 512-point FFT at 16 kHz; Hann mainlobe
        # leakage spreads into neighbours, so only the argmax is asserted
        mag = stft_magnitude(mono(tone(1000.0)))
        assert np.all(mag.argmax(axis=1) == 32)
        peak = mag[5, 32]
        assert mag[5, 27] < 0.02 * peak and mag[5, 37] < 0.02 * peak

    def test_short_clip_yields_zero_frames(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mag = stft_magnitude(mono(np.zeros(100)))
        assert mag.shape == (0, 257)

    def test_stereo_rejected(self):
        clip = AudioClip(samples=np.zeros((2, 1000)), sample_rate=16000)
        with pytest.raises(ValidationError, match="mono"):
            stft_magnitude(clip)

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 16000)
        full = stft_magnitude(mono(x))
        shifted = stft_magnitude(mono(x[160:]))  # drop exactly one hop
        np.testing.assert_allclose(shifted[:60], full[1:61], atol=1e-9)

    @pytest.mark.parametrize("n, sr", [(400, 16000), (559, 16000), (560, 16000),
                                       (16000, 16000), (8821, 8000), (44100, 44100)])
    def test_equals_gathered_framing(self, n, sr):
        # frame counts at, just below and just above a hop boundary
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        assert np.array_equal(stft_magnitude(mono(x, sr)), gathered_stft_magnitude(x, sr))

    @pytest.mark.parametrize("n_frames", [1, PATCH_FRAMES - 1, PATCH_FRAMES, PATCH_FRAMES + 1,
                                          3 * PATCH_FRAMES + 5])
    def test_blocks_equal_one_transform(self, n_frames):
        # frame counts around the block of PATCH_FRAMES frames
        x = np.random.default_rng(n_frames).uniform(-1.0, 1.0, 400 + (n_frames - 1) * 160)
        mag = stft_magnitude(mono(x))
        assert mag.shape[0] == n_frames
        assert mag.tobytes() == one_shot_stft_magnitude(x).tobytes()

    @pytest.mark.parametrize("n_frames", [1, PATCH_FRAMES - 1, 2 * PATCH_FRAMES,
                                          2 * PATCH_FRAMES + 3])
    @pytest.mark.parametrize("sr", [8000, 44100])
    def test_blocks_equal_one_transform_at_other_rates(self, n_frames, sr):
        # other window lengths and FFT sizes: 200 in 256 at 8 kHz, 1102 in 2048 at 44.1 kHz
        win, hop = round(audiofe.FRAME_LEN_S * sr), round(audiofe.HOP_S * sr)
        x = np.random.default_rng(n_frames + sr).uniform(-1.0, 1.0, win + (n_frames - 1) * hop)
        mag = stft_magnitude(mono(x, sr))
        assert mag.shape[0] == n_frames
        assert mag.tobytes() == one_shot_stft_magnitude(x, sr).tobytes()

    def test_memory_is_output_plus_one_block(self):
        clip = mono(np.random.default_rng(34).uniform(-1.0, 1.0, 30 * 16000))
        tracemalloc.start()
        try:
            mag = stft_magnitude(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one-shot transform of 30 s peaks at 28 MB
        assert peak <= mag.nbytes + 2 * 2 ** 20

    def test_deterministic(self):
        x = tone(440.0)
        a = stft_magnitude(mono(x))
        b = stft_magnitude(mono(x))
        assert np.array_equal(a, b)

    def test_next_pow2(self):
        assert next_pow2(400) == 512
        assert next_pow2(512) == 512
        assert next_pow2(1) == 1


class TestMelFilterbank:
    def test_mel_scale_formula(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * math.log10(2.0), abs=1e-9)
        assert mel_to_hz(hz_to_mel(1234.5)) == pytest.approx(1234.5, rel=1e-12)

    def test_cached_and_read_only(self):
        fb = mel_filterbank(fft_bins=257)
        assert mel_filterbank(fft_bins=257) is fb
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_support_within_range(self):
        fb = mel_filterbank(fft_bins=257)
        freqs = np.arange(257) * 16000 / 512
        outside = (freqs < 125.0) | (freqs > 7500.0)
        assert np.all(fb[:, outside] == 0.0)
        assert np.all(fb >= 0.0)

    def test_peaks_at_one(self):
        # each triangle peaks at exactly 1.0 at its center frequency; the
        # discrete FFT grid samples near but not exactly on the centers
        fb = mel_filterbank(fft_bins=2049)
        assert fb.max() <= 1.0 + 1e-12
        assert np.all(fb.max(axis=1) > 0.4)  # grid point near every peak
        edges = mel_to_hz(np.linspace(hz_to_mel(125.0), hz_to_mel(7500.0), 66))
        for m in range(64):
            lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
            rising = (center - lo) / (center - lo)
            falling = (hi - center) / (hi - center)
            assert min(rising, falling) == 1.0

    def test_interior_bins_covered(self):
        fb = mel_filterbank(fft_bins=257)
        freqs = np.arange(257) * 16000 / 512
        interior = (freqs > 130.0) & (freqs < 7400.0)
        assert np.all(fb[:, interior].sum(axis=0) > 0.0)

    def test_tone_at_filter_center_maps_to_that_filter(self):
        centers = filter_center_frequencies()
        fb = mel_filterbank(fft_bins=257)
        for m in (5, 20, 40, 60):
            mag = stft_magnitude(mono(tone(centers[m])))
            energies = (mag[5] ** 2) @ fb.T
            assert energies.argmax() == m


class TestLogMel:
    def test_silence_is_log_offset(self):
        mag = np.zeros((10, 257))
        fb = mel_filterbank(fft_bins=257)
        mel = log_mel(mag, fb)
        np.testing.assert_allclose(mel, math.log(0.01), atol=1e-12)

    def test_amplitude_doubling_quadruples_energy(self):
        x = tone(440.0, amp=0.4)
        fb = mel_filterbank(fft_bins=257)
        e1 = np.exp(log_mel(stft_magnitude(mono(x)), fb)) - 0.01
        e2 = np.exp(log_mel(stft_magnitude(mono(2.0 * x)), fb)) - 0.01
        mask = e1 > 1e-6
        np.testing.assert_allclose(e2[mask] / e1[mask], 4.0, rtol=1e-6)

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(1)
        mag = rng.uniform(0.0, 2.0, size=(4, 257))
        fb = mel_filterbank(fft_bins=257)
        base = log_mel(mag, fb)
        bumped_mag = mag.copy()
        bumped_mag[2, 100] += 0.5
        bumped = log_mel(bumped_mag, fb)
        assert np.all(bumped >= base - 1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            log_mel(np.zeros((3, 100)), mel_filterbank(fft_bins=257))

    @pytest.mark.parametrize("n_frames", [0, 1, 18, PATCH_FRAMES - 1, PATCH_FRAMES,
                                          PATCH_FRAMES + 1, 3 * PATCH_FRAMES + 5])
    def test_blocks_equal_one_product(self, n_frames):
        # frame counts around the block of PATCH_FRAMES rows, and a tail of one row
        mag = np.random.default_rng(n_frames).uniform(0.0, 8.0, (n_frames, 257))
        fb = mel_filterbank(fft_bins=257)
        assert log_mel(mag, fb).tobytes() == np.log((mag * mag) @ fb.T + 0.01).tobytes()

    def test_blocks_equal_one_product_on_a_30_s_clip(self):
        mag = stft_magnitude(mono(np.random.default_rng(36).uniform(-1.0, 1.0, 30 * 16000)))
        fb = mel_filterbank(fft_bins=mag.shape[1])
        assert mag.shape[0] % PATCH_FRAMES != 0
        assert log_mel(mag, fb).tobytes() == np.log((mag * mag) @ fb.T + 0.01).tobytes()


class TestPatches:
    """``log_mel_patches``, the block loop that turns a clip into its patch
    stack, against the whole-clip functions."""

    def clip(self, n_frames):
        x = np.random.default_rng(2).uniform(-1.0, 1.0, 400 + (n_frames - 1) * 160)
        return mono(x)

    def whole_clip_mel(self, clip):
        mag = stft_magnitude(clip)
        return log_mel(mag, mel_filterbank(fft_bins=mag.shape[1]))

    def test_98_frames_two_patches(self):
        clip = self.clip(98)
        mel = self.whole_clip_mel(clip)
        patches = log_mel_patches(clip)
        assert patches.shape == (2, 96, 64)
        assert np.array_equal(patches[0], mel[:96])
        assert np.array_equal(patches[1, :2], mel[96:])
        assert np.all(patches[1, 2:] == 0.0)  # 94 zero-padded tail rows

    def test_exact_fit_single_patch(self):
        clip = self.clip(96)
        patches = log_mel_patches(clip)
        assert patches.shape == (1, 96, 64)
        assert np.array_equal(patches[0], self.whole_clip_mel(clip))  # no zero-padded tail rows

    def test_empty_input(self):
        # shorter than one 400-sample window: no frames, no patches
        assert log_mel_patches(mono(np.zeros(399))).shape == (0, 96, 64)

    def test_full_pipeline_deterministic(self):
        clip = mono(tone(523.25, amp=0.6))
        assert np.array_equal(log_mel_patches(clip), log_mel_patches(clip))


class TestResample:
    def test_identity_when_rate_matches(self):
        clip = mono(tone(440.0))
        assert resample_linear(clip, 16000) is clip

    def test_halving_preserves_duration(self):
        clip = mono(tone(440.0))
        down = resample_linear(clip, 8000)
        assert down.n_samples == 8000
        assert down.sample_rate == 8000

    # lengths that are and are not multiples of the rate ratio
    LENGTHS = (1, 2, 7, 10, 11, 4801, 48000)

    @staticmethod
    def _clip(n, sr, channels=2):
        rng = np.random.default_rng(n + sr)
        return AudioClip(samples=rng.uniform(-1.0, 1.0, (channels, n)), sample_rate=sr)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("sr", [48000, 32000])
    def test_integer_ratio_is_exact_decimation(self, sr, n):
        clip = self._clip(n, sr)
        out = resample_linear(clip, 16000)
        ref = interp_resample(clip.samples, sr, 16000)
        assert np.array_equal(out.samples, ref)
        assert np.array_equal(out.samples, clip.samples[:, :: sr // 16000][:, : ref.shape[1]])
        assert out.samples.flags.c_contiguous

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("sr, target", [(44100, 16000), (16000, 48000), (22050, 16000)])
    def test_other_ratios_match_interp(self, sr, target, n):
        clip = self._clip(n, sr)
        out = resample_linear(clip, target)
        ref = interp_resample(clip.samples, sr, target)
        assert out.samples.shape == ref.shape
        assert out.sample_rate == target
        np.testing.assert_allclose(out.samples, ref, rtol=0.0, atol=1e-9)


class TestFeatureDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(2, 96, 64)).astype(np.float32)
        path = tmp_path / "f.avqf"
        write_features(path, arr)
        out = read_features(path)
        assert out.shape == (2, 96, 64)
        assert np.array_equal(out, arr)
        raw = path.read_bytes()
        assert raw[:4] == b"AVQF"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.avqf"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(DataError, match="magic"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.avqf"
        write_features(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="size"):
            read_features(path)

    def test_interrupted_write_leaves_earlier_dump_and_no_temporary_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "f.avqf"
        write_features(path, np.ones((2, 3), dtype=np.float32))
        before = path.read_bytes()

        def fail(f, arr):
            f.write(b"\0" * 8)
            raise OSError("disk full")

        monkeypatch.setattr(audiofe, "write_tensor_record", fail)
        with pytest.raises(OSError, match="disk full"):
            write_features(path, np.zeros((2, 3), dtype=np.float32))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
