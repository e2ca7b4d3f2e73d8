import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360.errors import ValidationError
from avq360.manifest import FrameSequence, Y4MFrames, load_y4m, write_y4m
from avq360.siti import (
    sobel_magnitude,
    spatial_information,
    summarize_siti,
    temporal_information,
)

from oracles import exact_ti, naive_sobel_si, naive_ti


def seq_from_uint8(frames):
    return FrameSequence(frames=np.asarray(frames, dtype=np.uint8), fps=10.0)


class TestSpatialInformation:
    def test_constant_frame_zero(self):
        seq = seq_from_uint8(np.full((3, 16, 32), 77))
        assert np.all(spatial_information(seq) == 0.0)

    def test_vertical_step_edge_matches_oracle_and_closed_form(self):
        f = np.zeros((64, 64))
        f[:, 32:] = 255.0
        seq = seq_from_uint8(f[None])
        si = spatial_information(seq)[0]
        assert si == pytest.approx(naive_sobel_si(f.tolist()), abs=1e-9)
        # interior rows hold two magnitude-1020 columns among 62:
        # si = 1020 * sqrt(120) / 62
        assert si == pytest.approx(1020.0 * math.sqrt(120.0) / 62.0, abs=1e-9)

    def test_matches_naive_oracle_on_random_frames(self):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, size=(8, 32, 32), dtype=np.uint8)
        si = spatial_information(FrameSequence(frames=frames, fps=8.0))
        for k in range(8):
            assert si[k] == pytest.approx(
                naive_sobel_si(frames[k].astype(float).tolist()), abs=1e-9
            )

    def test_too_small_frame(self):
        with pytest.raises(ValidationError, match="3x3"):
            spatial_information(seq_from_uint8(np.zeros((1, 2, 4))))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(-40, 40))
    def test_invariant_to_constant_offset(self, seed, offset):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.2, 0.8, size=(2, 12, 24))
        seq_a = FrameSequence(frames=base, fps=1.0)
        seq_b = FrameSequence(frames=base + offset / 255.0, fps=1.0)
        np.testing.assert_allclose(
            spatial_information(seq_a), spatial_information(seq_b), atol=1e-9
        )

    def test_scales_linearly_with_pixel_scale(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.0, 0.4, size=(2, 12, 24))
        si1 = spatial_information(FrameSequence(frames=base, fps=1.0))
        si2 = spatial_information(FrameSequence(frames=2.0 * base, fps=1.0))
        np.testing.assert_allclose(si2, 2.0 * si1, rtol=1e-12)


class TestTemporalInformation:
    def test_static_video_zero(self):
        f = np.random.default_rng(1).integers(0, 256, size=(16, 32), dtype=np.uint8)
        seq = seq_from_uint8(np.stack([f, f, f]))
        assert np.all(temporal_information(seq) == 0.0)

    def test_alternating_constant_frames_zero(self):
        # difference is constant +/-255, so its spatial std is zero
        black = np.zeros((8, 16))
        white = np.full((8, 16), 255.0)
        seq = seq_from_uint8(np.stack([black, white, black]))
        assert np.all(temporal_information(seq) == 0.0)

    def test_one_pixel_change_closed_form(self):
        a = np.zeros((10, 10))
        b = a.copy()
        b[3, 4] = 255.0
        seq = seq_from_uint8(np.stack([a, b]))
        ti = temporal_information(seq)[0]
        assert ti == pytest.approx(255.0 * math.sqrt(99.0) / 100.0, abs=1e-9)
        assert ti == pytest.approx(naive_ti(a.tolist(), b.tolist()), abs=1e-9)

    def test_matches_naive_oracle_on_random_sequence(self):
        rng = np.random.default_rng(2)
        frames = rng.integers(0, 256, size=(8, 32, 32), dtype=np.uint8)
        seq = FrameSequence(frames=frames, fps=8.0)
        ti = temporal_information(seq)
        assert len(ti) == 7
        for k in range(7):
            assert ti[k] == pytest.approx(
                naive_ti(frames[k].astype(float).tolist(),
                         frames[k + 1].astype(float).tolist()),
                abs=1e-9,
            )

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(4)
        frames = rng.integers(0, 256, size=(5, 8, 16), dtype=np.uint8)
        fwd = temporal_information(FrameSequence(frames=frames, fps=5.0))
        rev = temporal_information(FrameSequence(frames=frames[::-1], fps=5.0))
        np.testing.assert_allclose(fwd, rev[::-1], atol=1e-12)

    def test_single_frame_errors(self):
        with pytest.raises(ValidationError, match="2 frames"):
            temporal_information(seq_from_uint8(np.zeros((1, 8, 8))))


class TestSummarize:
    def test_constant_video_all_zero(self):
        seq = seq_from_uint8(np.full((4, 8, 16), 128))
        r = summarize_siti(seq)
        assert r.si_mean == r.si_max == r.ti_mean == r.ti_max == 0.0

    def test_aggregates(self):
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 256, size=(6, 16, 32), dtype=np.uint8)
        seq = FrameSequence(frames=frames, fps=6.0)
        r = summarize_siti(seq)
        assert r.si_mean == pytest.approx(r.si_per_frame.mean())
        assert r.si_max == pytest.approx(r.si_per_frame.max())
        assert r.ti_mean == pytest.approx(r.ti_per_frame.mean())
        assert r.ti_max == pytest.approx(r.ti_per_frame.max())
        assert r.si_max >= r.si_mean
        assert len(r.ti_per_frame) == 5


def float64_reference(frames):
    """SI and TI of a whole sequence computed at once in float64."""
    f = np.asarray(frames, dtype=np.float64)
    gx = (
        (f[:, :-2, 2:] + 2.0 * f[:, 1:-1, 2:] + f[:, 2:, 2:])
        - (f[:, :-2, :-2] + 2.0 * f[:, 1:-1, :-2] + f[:, 2:, :-2])
    )
    gy = (
        (f[:, 2:, :-2] + 2.0 * f[:, 2:, 1:-1] + f[:, 2:, 2:])
        - (f[:, :-2, :-2] + 2.0 * f[:, :-2, 1:-1] + f[:, :-2, 2:])
    )
    si = np.sqrt(gx * gx + gy * gy).std(axis=(1, 2))
    ti = np.diff(f, axis=0).std(axis=(1, 2))
    return si, ti


def checkerboard(h, w, block):
    r, c = np.indices((h, w))
    return (255 * ((r // block + c // block) % 2)).astype(np.uint8)


def exact_ti_per_pair(frames):
    return np.array([exact_ti(a.tolist(), b.tolist()) for a, b in zip(frames, frames[1:])])


def assert_exact_uint8_ti(ti, frames, ti_ref):
    """uint8 TI is the exact oracle's, and within 1 ulp of float64's."""
    assert np.array_equal(ti, exact_ti_per_pair(frames))
    assert np.all(np.abs(ti - ti_ref) <= np.spacing(ti_ref))


class TestStreamingPath:
    """The per-frame integer path for uint8 luma against float64: SI bit
    for bit, TI exact (within 1 ulp of float64's two-pass std)."""

    def assert_bit_identical(self, frames):
        si_ref, ti_ref = float64_reference(frames)
        seq = FrameSequence(frames=frames, fps=1.0)
        assert np.array_equal(spatial_information(seq), si_ref)
        assert_exact_uint8_ti(temporal_information(seq), frames, ti_ref)

    def test_random_uint8_bit_identical_to_float64(self):
        rng = np.random.default_rng(11)
        self.assert_bit_identical(rng.integers(0, 256, size=(6, 48, 96), dtype=np.uint8))
        self.assert_bit_identical(rng.integers(0, 256, size=(3, 17, 41), dtype=np.uint8))

    def test_checkerboards_bit_identical_to_float64(self):
        # 0/255 blocks give the largest gradients; consecutive inverted
        # boards give frame differences of +/-255 everywhere
        boards = [checkerboard(40, 80, k) for k in (1, 2, 3, 5)]
        frames = np.stack([f for b in boards for f in (b, 255 - b)])
        self.assert_bit_identical(frames)

    def test_every_binary_3x3_patch_matches_float64(self):
        for bits in itertools.product((0, 255), repeat=9):
            patch = np.array(bits, dtype=np.uint8).reshape(3, 3)
            assert np.array_equal(sobel_magnitude(patch),
                                  sobel_magnitude(patch.astype(np.float64)))

    def test_uint16_and_float_sequences_agree(self):
        # every dtype but uint8 takes the float64 path, here with values
        # whose integer Gx² + Gy² would overflow int32
        rng = np.random.default_rng(12)
        frames = rng.integers(0, 65536, size=(4, 24, 48), dtype=np.uint16)
        wide = FrameSequence(frames=frames, fps=1.0)
        flt = FrameSequence(frames=frames.astype(np.float64), fps=1.0)
        assert np.array_equal(spatial_information(wide), spatial_information(flt))
        assert np.array_equal(temporal_information(wide), temporal_information(flt))
        si_ref, ti_ref = float64_reference(frames)
        assert np.array_equal(spatial_information(wide), si_ref)
        assert np.array_equal(temporal_information(wide), ti_ref)

    def test_peak_memory_bounded_by_frames_not_sequence(self):
        h, w = 256, 512
        rng = np.random.default_rng(13)

        def peak_bytes(n_frames):
            seq = FrameSequence(
                frames=rng.integers(0, 256, size=(n_frames, h, w), dtype=np.uint8), fps=1.0
            )
            tracemalloc.start()
            try:
                summarize_siti(seq)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        float64_frame = h * w * 8
        short, long = peak_bytes(4), peak_bytes(16)
        assert long < 4 * float64_frame
        assert abs(long - short) < h * w


def walk_cases():
    rng = np.random.default_rng(21)
    boards = [checkerboard(40, 80, k) for k in (1, 2, 3, 5)]
    return {
        "random uint8": rng.integers(0, 256, size=(6, 48, 96), dtype=np.uint8),
        # Sobel extremes of +/-1020 and frame differences of +/-255
        "checkerboards": np.stack([f for b in boards for f in (b, 255 - b)]),
        "3x3 frames": rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8),
        "2 frames": rng.integers(0, 256, size=(2, 17, 41), dtype=np.uint8),
        "uint16": rng.integers(0, 65536, size=(4, 24, 48), dtype=np.uint16),
        "float64": rng.uniform(0.0, 255.0, size=(4, 24, 48)),
    }


class TestOneWalk:
    """summarize_siti's single walk against the per-statistic functions."""

    @pytest.mark.parametrize("case", list(walk_cases()))
    def test_bit_identical_to_each_statistic_and_float64(self, case):
        frames = walk_cases()[case]
        seq = FrameSequence(frames=frames, fps=1.0)
        r = summarize_siti(seq)
        si_ref, ti_ref = float64_reference(frames)
        for si in (spatial_information(seq), si_ref):
            assert np.array_equal(r.si_per_frame, si)
        assert np.array_equal(r.ti_per_frame, temporal_information(seq))
        if frames.dtype == np.uint8:
            assert_exact_uint8_ti(r.ti_per_frame, frames, ti_ref)
            ti_ref = exact_ti_per_pair(frames)
        assert np.array_equal(r.ti_per_frame, ti_ref)
        assert (r.si_mean, r.si_max) == (float(si_ref.mean()), float(si_ref.max()))
        assert (r.ti_mean, r.ti_max) == (float(ti_ref.mean()), float(ti_ref.max()))

    def test_reads_each_luma_plane_once(self, tmp_path, monkeypatch):
        frames = np.random.default_rng(22).integers(0, 256, size=(7, 20, 40), dtype=np.uint8)
        write_y4m(FrameSequence(frames=frames, fps=7.0), tmp_path / "v.y4m")
        seq = load_y4m(tmp_path / "v.y4m")
        read_into = Y4MFrames._read_into
        reads = []

        def counted(self, i, plane):
            reads.append(i)
            return read_into(self, i, plane)

        monkeypatch.setattr(Y4MFrames, "_read_into", counted)
        r = summarize_siti(seq)
        assert reads == list(range(7))
        in_memory = summarize_siti(FrameSequence(frames=frames, fps=7.0))
        assert np.array_equal(r.si_per_frame, in_memory.si_per_frame)
        assert np.array_equal(r.ti_per_frame, in_memory.ti_per_frame)

    def test_too_few_frames_or_too_small_frames(self):
        with pytest.raises(ValidationError, match="2 frames"):
            summarize_siti(seq_from_uint8(np.zeros((1, 8, 8))))
        with pytest.raises(ValidationError, match="3x3"):
            summarize_siti(seq_from_uint8(np.zeros((4, 2, 8))))

    def test_temporal_information_takes_frames_under_3x3(self):
        frames = np.array([[[0, 255]], [[255, 255]]], dtype=np.uint8)
        assert temporal_information(seq_from_uint8(frames))[0] == 127.5



def test_uint8_ti_equals_the_exact_oracle():
    rng = np.random.default_rng(31)
    board = checkerboard(40, 80, 1)
    cases = [f for f in walk_cases().values() if f.dtype == np.uint8]
    cases.append(rng.integers(0, 256, size=(3, 23, 40), dtype=np.uint8))   # odd height
    # inverted boards: a difference of +/-255 at every pixel
    cases.append(np.stack([board, 255 - board, board]))
    # n² times the variance is above 2**53: rounding it to float first would
    # round twice and miss the correctly rounded quotient for this seed
    big = (255 * np.random.default_rng(0).integers(0, 2, size=(2, 1023, 1025))).astype(np.uint8)
    r = summarize_siti(FrameSequence(frames=big, fps=1.0))
    assert np.array_equal(r.ti_per_frame, exact_ti_per_pair(big))
    for frames in cases:
        r = summarize_siti(FrameSequence(frames=frames, fps=1.0))
        assert np.array_equal(r.ti_per_frame, exact_ti_per_pair(frames))
    assert r.ti_per_frame.tolist() == [255.0, 255.0]


def test_an_empty_frame_is_a_validation_error():
    frames = np.zeros((2, 0, 4), np.uint8)
    with pytest.raises(ValidationError, match="at least one pixel"):
        temporal_information(seq_from_uint8(frames))
