import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360.audiofe import resample_linear
from avq360.errors import DataError, ValidationError
from avq360.manifest import (
    SCENES,
    AudioClip,
    FrameSequence,
    RatingRecord,
    SequenceManifestEntry,
    downmix_mono,
    load_manifest,
    load_scores_csv,
    load_wav,
    load_y4m,
    write_manifest,
    write_scores_csv,
    write_wav,
    write_y4m,
)
from avq360.synthetic import make_rating_table


# (field, JSON value of another type than the field takes): each is a
# DataError naming the entry and the field
MISTYPED_VALUES = [
    ("sequence_id", None), ("sequence_id", 5), ("width", 64.9), ("audio_channels", True),
    ("fps", "8"), ("audio_sample_rate", 16000.7), ("split", None),
]


def make_entry(i, **overrides):
    kwargs = dict(
        sequence_id=f"seq{i:03d}",
        width=64,
        height=32,
        fps=8.0,
        duration_s=20.0,
        scene=SCENES[i % len(SCENES)],
        device="Synthetic",
        audio_channels=(1, 2, 4)[i % 3],
        audio_sample_rate=16000,
        motion="static" if i % 2 == 0 else "dynamic",
        split="unassigned",
    )
    kwargs.update(overrides)
    return SequenceManifestEntry(**kwargs)


class TestManifest:
    def test_load_300_entries_10_scenes(self, tmp_path):
        entries = [make_entry(i) for i in range(300)]
        path = tmp_path / "manifest.json"
        write_manifest(entries, path)
        loaded = load_manifest(path)
        assert len(loaded) == 300
        assert {e.scene for e in loaded} == set(SCENES)
        # order-preserving
        assert [e.sequence_id for e in loaded] == [e.sequence_id for e in entries]
        # idempotent
        assert load_manifest(path) == loaded

    def test_empty_manifest_errors(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(DataError, match="empty manifest"):
            load_manifest(path)
        path.write_text("[]")
        with pytest.raises(DataError, match="empty manifest"):
            load_manifest(path)

    def test_non_erp_aspect_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        entry = make_entry(0)
        entry.width = 1024
        entry.height = 1024
        path.write_text(json.dumps([entry.__dict__]))
        with pytest.raises(DataError, match="not 2:1 ERP"):
            load_manifest(path)

    def test_invalid_entry_is_validation_error_when_written(self, tmp_path):
        # an entry a library caller builds is a precondition, not a file's data
        with pytest.raises(ValidationError, match="unknown scene 'underwater'"):
            write_manifest([make_entry(0, scene="underwater")], tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        e = make_entry(0)
        path.write_text(json.dumps([e.__dict__, e.__dict__]))
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize("sequence_id", ["../../evil", "a\\b", "a\0b"])
    def test_path_separator_or_nul_in_id_rejected(self, tmp_path, sequence_id):
        path = tmp_path / "sep.json"
        path.write_text(json.dumps([make_entry(0).__dict__, make_entry(1).__dict__
                                    | {"sequence_id": sequence_id}]))
        with pytest.raises(DataError) as info:
            load_manifest(path)
        assert str(info.value) == (f"{path}: entry 1: sequence {sequence_id!r}: "
                                   "sequence_id must not contain '/', '\\' or NUL")

    def test_parse_error_has_line_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('[{"sequence_id": "a",]')
        with pytest.raises(DataError, match="line 1"):
            load_manifest(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        obj = make_entry(0).__dict__ | {"bogus": 1}
        path.write_text(json.dumps([obj]))
        with pytest.raises(DataError, match="unknown fields"):
            load_manifest(path)

    def test_overflowing_number_is_data_error(self, tmp_path):
        path = tmp_path / "overflow.json"
        text = json.dumps([make_entry(0).__dict__]).replace('"width": 64', '"width": 1e999')
        path.write_text(text)
        with pytest.raises(DataError, match="entry 0"):
            load_manifest(path)

    @pytest.mark.parametrize("field, value", [
        ("fps", "NaN"), ("fps", "Infinity"), ("duration_s", "NaN"), ("duration_s", "Infinity"),
    ])
    def test_non_finite_rate_or_duration_rejected(self, tmp_path, field, value):
        path = tmp_path / "nonfinite.json"
        obj = make_entry(0).__dict__
        text = json.dumps([obj]).replace(f'"{field}": {obj[field]!r}', f'"{field}": {value}')
        assert value in text
        path.write_text(text)
        with pytest.raises(DataError, match=f"entry 0: .*{field} must be finite and > 0"):
            load_manifest(path)

    @pytest.mark.parametrize("field, value", MISTYPED_VALUES)
    def test_value_of_another_json_type_is_data_error(self, tmp_path, field, value):
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps([make_entry(0).__dict__,
                                    make_entry(1).__dict__ | {field: value}]))
        with pytest.raises(DataError, match=re.escape(
                f"{path}: entry 1: bad {field} {json.dumps(value)} (expected ")):
            load_manifest(path)

    def test_integer_too_large_for_a_float_field_is_data_error(self, tmp_path):
        path = tmp_path / "huge_fps.json"
        path.write_text(json.dumps([make_entry(0).__dict__ | {"fps": 10 ** 400}]))
        with pytest.raises(DataError, match="entry 0: bad fps 10{400} \\(expected a number\\)"):
            load_manifest(path)

    def test_integer_fps_is_taken_as_a_float(self, tmp_path):
        path = tmp_path / "int_fps.json"
        path.write_text(json.dumps([make_entry(0).__dict__ | {"fps": 8}]))
        (entry,) = load_manifest(path)
        assert type(entry.fps) is float and entry.fps == 8.0


class TestY4M:
    def test_roundtrip_8_frames(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, size=(8, 32, 64), dtype=np.uint8)
        seq = FrameSequence(frames=frames, fps=8.0, fps_rational=(8, 1))
        path = tmp_path / "clip.y4m"
        write_y4m(seq, path)
        loaded = load_y4m(path)
        assert loaded.n_frames == 8
        assert (loaded.width, loaded.height) == (64, 32)
        assert loaded.fps == 8.0
        assert np.array_equal(loaded.frames, frames)
        # second round trip reproduces identical luma bytes
        path2 = tmp_path / "clip2.y4m"
        write_y4m(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_chroma_discarded_from_420(self, tmp_path):
        luma = np.arange(64 * 32, dtype=np.uint8).reshape(32, 64)
        chroma = bytes([99] * (32 * 16 * 2))
        payload = b"YUV4MPEG2 W64 H32 F25:1 Ip A1:1 C420\n"
        payload += b"FRAME\n" + luma.tobytes() + chroma
        path = tmp_path / "c.y4m"
        path.write_bytes(payload)
        loaded = load_y4m(path)
        assert loaded.n_frames == 1
        assert np.array_equal(loaded.frames[0], luma)
        assert loaded.fps == 25.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"YUV4MPEG3 W4 H2 F1:1\nFRAME\n" + bytes(8))
        with pytest.raises(DataError, match="magic"):
            load_y4m(path)

    def test_truncated_frame(self, tmp_path):
        path = tmp_path / "trunc.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H2 F1:1 Cmono\nFRAME\n" + bytes(7))
        with pytest.raises(DataError, match="truncated"):
            load_y4m(path)

    def test_unsupported_chroma(self, tmp_path):
        path = tmp_path / "c444.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H2 F1:1 C444\nFRAME\n" + bytes(24))
        with pytest.raises(DataError, match="chroma"):
            load_y4m(path)

    def test_no_frames(self, tmp_path):
        path = tmp_path / "nf.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H2 F1:1 Cmono\n")
        with pytest.raises(DataError, match="no frames"):
            load_y4m(path)


class TestLazyY4M:
    """load_y4m reads the header and the FRAME lines; each luma plane is
    read from the file when a frame is used."""

    def write(self, path, n=5, h=4, w=8):
        frames = np.arange(n * h * w, dtype=np.uint8).reshape(n, h, w)
        write_y4m(FrameSequence(frames=frames, fps=8.0), path)
        return frames

    def test_frames_offer_the_array_surface_callers_use(self, tmp_path):
        path = tmp_path / "v.y4m"
        frames = self.write(path)
        got = load_y4m(path).frames
        assert (len(got), got.shape, got.dtype, got.ndim) == (5, (5, 4, 8), np.uint8, 3)
        assert np.array_equal(got[0], frames[0]) and np.array_equal(got[-1], frames[4])
        assert np.array_equal(got[np.int64(2)], frames[2])
        assert np.array_equal(got[1:4], frames[1:4]) and got[5:].shape == (0, 4, 8)
        assert all(np.array_equal(a, b) for a, b in zip(got, frames, strict=True))
        assert np.array_equal(np.asarray(got), frames)
        assert np.asarray(got, dtype=np.float64).dtype == np.float64
        with pytest.raises(IndexError):
            got[5]

    def test_each_read_is_a_fresh_array(self, tmp_path):
        path = tmp_path / "v.y4m"
        frames = self.write(path)
        got = load_y4m(path).frames
        first = got[0]
        first[:] = 0
        assert np.array_equal(got[0], frames[0])

    def test_walk_reads_every_step_into_one_plane(self, tmp_path):
        path = tmp_path / "v.y4m"
        frames = self.write(path)
        seq = load_y4m(path)
        planes = []
        for want, plane in zip(frames[[4, 0, 2]], seq.walk([4, 0, 2]), strict=True):
            assert np.array_equal(plane, want)
            planes.append(plane)
        assert all(plane is planes[0] for plane in planes)
        assert [np.array_equal(a, b) for a, b in zip(seq.walk(), frames, strict=True)] == [True] * 5
        # indexing still gives every other caller a fresh array
        assert seq.frames[1] is not seq.frames[1]

    def test_walk_of_an_array_gives_views_of_its_frames(self):
        frames = np.arange(3 * 4 * 8, dtype=np.uint8).reshape(3, 4, 8)
        seq = FrameSequence(frames=frames, fps=8.0)
        walked = list(seq.walk([2, 0]))
        assert all(np.shares_memory(plane, frames) for plane in walked)
        assert np.array_equal(walked[0], frames[2]) and np.array_equal(walked[1], frames[0])

    def test_file_shortened_after_loading_is_data_error_naming_frame(self, tmp_path):
        path = tmp_path / "v.y4m"
        frames = self.write(path)
        seq = load_y4m(path)
        path.write_bytes(path.read_bytes()[:-1])
        assert np.array_equal(seq.frames[3], frames[3])
        with pytest.raises(DataError, match=re.escape(f"{path}: frame 4: truncated payload")):
            seq.frames[4]
        with pytest.raises(DataError, match="frame 4: truncated"):
            np.asarray(seq.frames)

    def test_file_removed_after_loading_is_data_error_naming_frame(self, tmp_path):
        path = tmp_path / "v.y4m"
        self.write(path)
        seq = load_y4m(path)
        path.unlink()
        with pytest.raises(DataError, match=re.escape(f"{path}: frame 0: cannot read")):
            list(seq.frames)

    def test_loading_reads_no_luma(self, tmp_path):
        # 32 frames of 1024x512: 16.8 MB of luma, none of it held by the load
        path = tmp_path / "big.y4m"
        plane = np.arange(512 * 1024, dtype=np.uint32).astype(np.uint8).reshape(512, 1024)
        with open(path, "wb") as f:
            f.write(b"YUV4MPEG2 W1024 H512 F8:1 Cmono\n")
            for _ in range(32):
                f.write(b"FRAME\n" + plane.tobytes())
        tracemalloc.start()
        try:
            seq = load_y4m(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.n_frames == 32
        assert peak < 1_000_000
        assert np.array_equal(seq.frames[31], plane)


def wav_bytes(channels, sample_rate, frames, extra=b""):
    """A PCM16 RIFF/WAVE file: fmt chunk, then ``extra`` chunks, then data."""
    fmt = struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                      sample_rate * 2 * channels, 2 * channels, 16)
    body = b"WAVE" + b"fmt " + fmt + extra + b"data" + struct.pack("<I", len(frames)) + frames
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestWAV:
    def test_mono_silence(self, tmp_path):
        clip = AudioClip(samples=np.zeros((1, 16000)), sample_rate=16000)
        path = tmp_path / "s.wav"
        write_wav(clip, path)
        loaded = load_wav(path)
        assert loaded.channels == 1
        assert loaded.n_samples == 16000
        assert np.all(loaded.samples == 0.0)

    def test_four_channels_decode_to_their_mean(self, tmp_path):
        rng = np.random.default_rng(1)
        clip = AudioClip(samples=rng.uniform(-0.5, 0.5, (4, 512)), sample_rate=48000)
        path = tmp_path / "q.wav"
        write_wav(clip, path)
        loaded = load_wav(path)
        assert loaded.channels == 1
        assert loaded.sample_rate == 48000
        assert np.abs(loaded.samples - clip.samples.mean(axis=0)).max() < 1.0 / 32768

    def test_full_scale_negative_is_exact(self, tmp_path):
        clip = AudioClip(samples=np.array([[-1.0, 0.0, 0.25]]), sample_rate=8000)
        path = tmp_path / "n.wav"
        write_wav(clip, path)
        loaded = load_wav(path)
        assert loaded.samples[0, 0] == -1.0

    def test_non_pcm_rejected(self, tmp_path):
        clip = AudioClip(samples=np.zeros((1, 4)), sample_rate=8000)
        path = tmp_path / "f.wav"
        write_wav(clip, path)
        raw = bytearray(path.read_bytes())
        raw[20] = 3  # format tag -> IEEE float
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="non-PCM"):
            load_wav(path)

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_c_order_rows_exact(self, tmp_path, channels):
        # the decoded row equals downmix_mono of the exact per-channel C-order rows
        pcm = np.random.default_rng(channels).integers(
            -32768, 32768, size=(1001, channels)).astype("<i2")
        pcm[0] = -32768
        path = tmp_path / "c.wav"
        path.write_bytes(wav_bytes(channels, 48000, pcm.tobytes()))
        loaded = load_wav(path)
        rows = AudioClip(samples=pcm.T / 32768.0, sample_rate=48000)
        assert rows.samples.flags.c_contiguous
        assert loaded.samples.flags.c_contiguous
        assert loaded.samples.dtype == np.float64
        assert np.array_equal(loaded.samples, downmix_mono(rows).samples)
        assert loaded.samples[0, 0] == -1.0

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_mono_decode_equals_downmix_bitwise(self, tmp_path, channels):
        pcm = np.random.default_rng(channels).integers(
            -32768, 32768, size=(1001, channels)).astype("<i2")
        pcm[0] = -32768
        pcm[1] = 32767
        pcm[2] = [1, -1, 1, -1][:channels]  # cancels to zero for 2 and 4 channels
        path = tmp_path / "m.wav"
        # odd chunk before the data chunk: the pad byte must be skipped
        path.write_bytes(wav_bytes(channels, 48000, pcm.tobytes(), extra=b"LIST\x03\0\0\0abc\0"))
        got = load_wav(path)
        assert got.sample_rate == 48000
        assert got.samples.flags.c_contiguous
        assert (got.samples.dtype, got.samples.shape) == (np.float64, (1, 1001))
        assert got.samples.tobytes() == (pcm.T / 32768.0).mean(axis=0, keepdims=True).tobytes()
        assert got.samples[0, 0] == -1.0

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_block_decode_equals_whole_chunk_decode_bitwise(self, tmp_path, channels):
        # a data chunk of two full 64 Ki-frame blocks and part of a third
        block = 2 ** 16
        n = 2 * block + 1001
        pcm = np.random.default_rng(channels).integers(
            -32768, 32768, size=(n, channels)).astype("<i2")
        pcm[[0, block, n - 1]] = -32768
        pcm[block - 1] = 32767
        path = tmp_path / "long.wav"
        path.write_bytes(wav_bytes(channels, 48000, pcm.tobytes()))
        got = load_wav(path)
        assert got.samples.shape == (1, n)
        assert got.samples.tobytes() == (pcm.T / 32768.0).mean(axis=0, keepdims=True).tobytes()
        if channels == 1:
            assert got.samples[0, block] == -1.0

    def test_peak_memory_near_the_decoded_row(self, tmp_path):
        # 30 s of 4-channel 48 kHz audio: an 11.5 MB file and an 11.5 MB row
        n = 30 * 48000
        pcm = np.random.default_rng(0).integers(-32768, 32768, size=(n, 4)).astype("<i2")
        path = tmp_path / "long.wav"
        path.write_bytes(wav_bytes(4, 48000, pcm.tobytes()))
        del pcm
        tracemalloc.start()
        try:
            clip = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clip.samples.nbytes == 8 * n
        assert peak < 1.25 * clip.samples.nbytes

    # 65 536 frames per block is 1 (mod 3): a block past the first starts
    # off the phase of the kept frames
    BLOCKS = 2 * 2 ** 16

    @pytest.mark.parametrize("channels", [1, 2, 4])
    @pytest.mark.parametrize("sr, n", [
        (48000, 3000), (48000, 3001), (48000, 3002),
        (48000, BLOCKS + 1000), (48000, BLOCKS + 1001), (48000, BLOCKS + 1002),
        (32000, 3001), (32000, BLOCKS + 1001), (96000, 3001), (96000, BLOCKS + 1001),
        (44100, 3001), (8000, 3001), (16000, 3001),
    ])
    def test_decode_at_rate_equals_resampled_whole_decode(self, tmp_path, channels, sr, n):
        pcm = np.random.default_rng(n + channels).integers(
            -32768, 32768, size=(n, channels)).astype("<i2")
        pcm[[0, n - 1]] = -32768
        path = tmp_path / "r.wav"
        path.write_bytes(wav_bytes(channels, sr, pcm.tobytes()))
        got = load_wav(path, 16000)
        whole = load_wav(path)
        # a multiple of 16 kHz comes back decimated to it, any other rate as it is
        want = resample_linear(whole, 16000) if sr % 16000 == 0 else whole
        assert got.sample_rate == want.sample_rate == (16000 if sr % 16000 == 0 else sr)
        assert got.samples.flags.c_contiguous
        assert got.samples.tobytes() == want.samples.tobytes()

    def test_decode_at_rate_holds_no_whole_rate_row(self, tmp_path):
        # 30 s of 4-channel 48 kHz audio: an 11.5 MB file, an 11.5 MB row at
        # 48 kHz and a 3.8 MB one at 16 kHz
        n = 30 * 48000
        pcm = np.random.default_rng(0).integers(-32768, 32768, size=(n, 4)).astype("<i2")
        path = tmp_path / "long.wav"
        path.write_bytes(wav_bytes(4, 48000, pcm.tobytes()))
        del pcm
        tracemalloc.start()
        try:
            clip = load_wav(path, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert clip.samples.nbytes == 8 * n // 3
        assert peak < 1.25 * clip.samples.nbytes + 2 ** 20

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_rate_not_positive_is_validation_error(self, tmp_path, rate):
        path = tmp_path / "s.wav"
        path.write_bytes(wav_bytes(1, 48000, bytes(8)))
        with pytest.raises(ValidationError, match="rate must be > 0"):
            load_wav(path, rate)

    def test_zero_sample_rate_is_data_error(self, tmp_path):
        path = tmp_path / "zero.wav"
        path.write_bytes(wav_bytes(1, 0, bytes(8)))
        with pytest.raises(DataError, match="zero.wav: sample rate 0"):
            load_wav(path)

    def test_sample_rate_below_8000_is_data_error(self, tmp_path):
        # 8 KB of PCM at 50 Hz would resample to 640 000 samples per channel
        path = tmp_path / "slow.wav"
        path.write_bytes(wav_bytes(2, 50, bytes(2 * 2 * 2000)))
        with pytest.raises(DataError, match="slow.wav: sample rate 50 .*below 8000 Hz"):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(wav_bytes(2, 8000, bytes(16))[:-2])
        with pytest.raises(DataError, match="truncated b'data' chunk"):
            load_wav(path)

    def test_file_written_twice_is_data_error(self, tmp_path):
        path = tmp_path / "twice.wav"
        raw = wav_bytes(2, 8000, bytes(16))
        path.write_bytes(raw + raw)
        with pytest.raises(DataError, match=re.escape(
                f"twice.wav: RIFF size {len(raw) - 8} + 8 is not the file size {2 * len(raw)}")):
            load_wav(path)

    @pytest.mark.parametrize("chunk", [
        b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16),
        b"data" + struct.pack("<I", 4) + bytes(4),
    ], ids=["fmt", "data"])
    def test_second_fmt_or_data_chunk_is_data_error(self, tmp_path, chunk):
        # the RIFF size covers both chunks: only the repeat is wrong
        path = tmp_path / "two.wav"
        path.write_bytes(wav_bytes(1, 8000, bytes(8), extra=chunk))
        with pytest.raises(DataError, match=re.escape(f"two.wav: second {chunk[:4]!r} chunk")):
            load_wav(path)

    def test_bad_channel_count_rejected(self, tmp_path):
        path = tmp_path / "tri.wav"
        path.write_bytes(wav_bytes(3, 8000, bytes(12)))
        with pytest.raises(DataError, match="channel count 3"):
            load_wav(path)


class TestDownmix:
    def test_opposite_channels_cancel(self):
        x = np.linspace(-0.5, 0.5, 100)
        clip = AudioClip(samples=np.stack([x, -x]), sample_rate=16000)
        mono = downmix_mono(clip)
        assert mono.channels == 1
        assert np.abs(mono.samples).max() < 1e-15

    def test_mono_identity(self):
        x = np.sin(np.linspace(0, 6.0, 50))[None, :] * 0.5
        clip = AudioClip(samples=x, sample_rate=16000)
        assert np.array_equal(downmix_mono(clip).samples, x)

    def test_one_hot_channel_mean(self):
        samples = np.zeros((4, 10))
        samples[0] = 1.0
        mono = downmix_mono(AudioClip(samples=samples, sample_rate=16000))
        assert np.allclose(mono.samples, 0.25)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-0.5, 0.5, (2, 64))
        b = rng.uniform(-0.5, 0.5, (2, 64))
        sr = 16000
        left = downmix_mono(AudioClip(samples=a + b, sample_rate=sr)).samples
        right = (
            downmix_mono(AudioClip(samples=a, sample_rate=sr)).samples
            + downmix_mono(AudioClip(samples=b, sample_rate=sr)).samples
        )
        assert np.abs(left - right).max() < 1e-12


class TestScoresCSV:
    def test_roundtrip(self, tmp_path):
        records = [
            RatingRecord("s0", "a", "sess0", 42.5),
            RatingRecord("s1", "a", "sess1", 77.0, ssq_flag=True),
        ]
        path = tmp_path / "scores.csv"
        write_scores_csv(records, path)
        loaded = load_scores_csv(path)
        assert [r.subject_id for r in loaded] == ["s0", "s1"]
        assert loaded[0].score == 42.5
        assert loaded[1].ssq_flag is True

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="bad header"):
            load_scores_csv(path)

    def test_header_only_is_data_error(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("subject_id,sequence_id,session_id,score,ssq_flag\n")
        with pytest.raises(DataError, match="no rating records"):
            load_scores_csv(path)

    def test_large_table_is_read_without_a_copy_of_its_text(self, tmp_path):
        # a 1.37 MB table of 36 000 records (600 sequences, 60 subjects): the
        # slotted records take about 9.8 MB at the peak, and a decoded copy of
        # the whole text would add 4 bytes a character (16.7 MB)
        rng = np.random.default_rng(1)
        targets = {f"rated{j:04d}": float(rng.uniform(15.0, 85.0)) for j in range(600)}
        path = tmp_path / "scores.csv"
        write_scores_csv(make_rating_table(targets, n_consistent=58, planted_subject="planted",
                                           ssq_subject="ssq", seed=1), path)
        tracemalloc.start()
        try:
            records = load_scores_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 36_000 and records[-1].ssq_flag
        assert peak < 11_000_000

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "oor.csv"
        path.write_text(
            "subject_id,sequence_id,session_id,score,ssq_flag\ns0,a,x,140,false\n"
        )
        with pytest.raises(DataError, match="line 2"):
            load_scores_csv(path)
