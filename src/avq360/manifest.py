"""Dataset model and raw-media ingestion.

Everything enters the toolkit through this module: sequence manifests
(JSON), uncompressed video (YUV4MPEG2), PCM audio (RIFF/WAVE) and tabular
subjective scores (CSV). Every CSV table of the toolkit is read by
``read_csv_table`` and written by ``write_csv_table``. Ingestion is
deliberately codec-free so that every byte of every input is deterministic.
Each record decodes through its dataclass fields: one field parser,
chosen by the field's annotated type (``text_parsers`` for text, strict
JSON types for the manifest).
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import (DataError, ValidationError, not_utf8, read_text_utf8,
                     replaced_when_written)

# The ten scene categories covered by the dataset design.
SCENES = (
    "hdr",
    "dark",
    "indoor",
    "outdoor",
    "night",
    "garden_architecture",
    "urban_architecture",
    "indoor_competition",
    "outdoor_competition",
    "studio_program",
)

DEVICES = ("Insta360Pro2", "Insta360X3", "Synthetic")
MOTIONS = ("static", "dynamic")
SPLITS = ("train", "test", "unassigned")
VALID_CHANNEL_COUNTS = (1, 2, 4)
MIN_WAV_RATE = 8000  # Hz; upsampling to 16 kHz then at most doubles a clip
_WAV_BLOCK_FRAMES = 1 << 16  # PCM frames that load_wav decodes at a time

# Continuous rating scale. The numeric range is a toolkit convention.
SCORE_MIN = 0.0
SCORE_MAX = 100.0


@dataclass
class SequenceManifestEntry:
    """Metadata for one A/V sequence in equirectangular projection."""

    sequence_id: str
    width: int
    height: int
    fps: float
    duration_s: float
    scene: str
    device: str
    audio_channels: int
    audio_sample_rate: int
    motion: str
    split: str = "unassigned"

    def validate(self) -> None:
        ctx = f"sequence {self.sequence_id!r}"
        if not self.sequence_id:
            raise ValidationError("empty sequence_id")
        if any(c in self.sequence_id for c in "/\\\0"):
            # the id names media, trace and feature files inside their directories
            raise ValidationError(f"{ctx}: sequence_id must not contain '/', '\\' or NUL")
        if self.width != 2 * self.height:
            raise ValidationError(
                f"{ctx}: {self.width}x{self.height} is not 2:1 ERP"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"{ctx}: non-positive dimensions")
        if not 0 < self.fps < math.inf:
            raise ValidationError(f"{ctx}: fps must be finite and > 0, got {self.fps}")
        if not 0 < self.duration_s < math.inf:
            raise ValidationError(
                f"{ctx}: duration_s must be finite and > 0, got {self.duration_s}"
            )
        if self.scene not in SCENES:
            raise ValidationError(f"{ctx}: unknown scene {self.scene!r}")
        if self.device not in DEVICES:
            raise ValidationError(f"{ctx}: unknown device {self.device!r}")
        if self.audio_channels not in VALID_CHANNEL_COUNTS:
            raise ValidationError(
                f"{ctx}: audio_channels must be one of {VALID_CHANNEL_COUNTS}, "
                f"got {self.audio_channels}"
            )
        if self.audio_sample_rate <= 0:
            raise ValidationError(f"{ctx}: non-positive audio_sample_rate")
        if self.motion not in MOTIONS:
            raise ValidationError(f"{ctx}: unknown motion {self.motion!r}")
        if self.split not in SPLITS:
            raise ValidationError(f"{ctx}: unknown split {self.split!r}")


# The JSON types a manifest field of each annotated type takes (a bool is
# never a number), and their name in messages.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def load_manifest(path) -> list[SequenceManifestEntry]:
    """Load and validate a manifest (UTF-8 JSON array of sequence objects).

    Entries are returned in file order. Every fault of the file is a
    DataError naming it: malformed JSON, wrong field sets, a value of
    another JSON type than its field takes (``_JSON_TYPES``), an entry
    that ``SequenceManifestEntry.validate`` rejects and a duplicate
    sequence id.
    """
    text = read_text_utf8(path)
    if not text.strip():
        raise DataError(f"{path}: empty manifest")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: line {e.lineno}, col {e.colno}: {e.msg}") from e
    if not isinstance(raw, list):
        raise DataError(f"{path}: manifest must be a JSON array")
    if not raw:
        raise DataError(f"{path}: empty manifest")

    hints = typing.get_type_hints(SequenceManifestEntry)
    required = [f.name for f in fields(SequenceManifestEntry) if f.default is MISSING]
    entries = []
    seen = set()
    for i, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise DataError(f"{path}: entry {i} is not an object")
        missing = [f for f in required if f not in obj]
        if missing:
            raise DataError(f"{path}: entry {i}: missing fields {missing}")
        unknown = [k for k in obj if k not in hints]
        if unknown:
            raise DataError(f"{path}: entry {i}: unknown fields {unknown}")
        for name, value in obj.items():
            types, expected = _JSON_TYPES[hints[name]]
            try:
                if isinstance(value, bool) or not isinstance(value, types):
                    raise TypeError
                obj[name] = hints[name](value)  # float() of a huge int overflows
            except (TypeError, OverflowError):
                raise DataError(f"{path}: entry {i}: bad {name} {json.dumps(value)} "
                                f"(expected {expected})") from None
        entry = SequenceManifestEntry(**obj)
        try:
            entry.validate()
        except ValidationError as e:
            raise DataError(f"{path}: entry {i}: {e}") from e
        if entry.sequence_id in seen:
            raise DataError(
                f"{path}: duplicate sequence_id {entry.sequence_id!r}"
            )
        seen.add(entry.sequence_id)
        entries.append(entry)
    return entries


def write_manifest(entries, path) -> None:
    for e in entries:
        e.validate()
    payload = [asdict(e) for e in entries]
    with replaced_when_written(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Video: YUV4MPEG2
# ---------------------------------------------------------------------------

@dataclass
class FrameSequence:
    """Luma planes of one video sequence.

    ``frames`` has shape (n_frames, height, width): an ndarray, or for a
    sequence that ``load_y4m`` loaded, a ``Y4MFrames``. Frames are read by
    walking them (``walk``), which works the same for both. Luma is on the
    8-bit [0, 255] scale in every dtype: a float frame holds the same
    values as its uint8 counterpart. It is normalized only where it becomes
    model input (``model.video_input``).
    """

    frames: np.ndarray | Y4MFrames
    fps: float
    fps_rational: tuple[int, int] | None = None

    def __post_init__(self):
        if not isinstance(self.frames, Y4MFrames):
            self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise ValidationError("frames must be (n>=1, height, width)")
        if self.fps <= 0:
            raise ValidationError("fps must be > 0")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    def walk(self, indices=None):
        """The frames ``indices`` name (every frame by default), one at a
        time, for a caller that is done with each before it asks for the
        next: ``Y4MFrames`` read them all into one plane, which each step
        overwrites, and an ndarray gives views of its frames."""
        if indices is None:
            indices = range(self.n_frames)
        if isinstance(self.frames, Y4MFrames):
            return self.frames.walk(indices)
        return (self.frames[i] for i in indices)


class Y4MFrames:
    """The luma planes of a YUV4MPEG2 file, read from the file when walked.

    ``load_y4m`` records where each plane starts. ``walk`` reads the planes
    it is asked for into one plane reused for every step; no file handle
    stays open between reads. Besides ``walk``, the object offers only
    ``shape``, ``dtype`` and ``ndim``. A plane that the file no longer
    holds in full, or a file that can no longer be read, is a DataError
    naming the file and the frame.
    """

    dtype = np.dtype(np.uint8)
    ndim = 3

    def __init__(self, path, offsets: list[int], height: int, width: int):
        self.path = path
        self._offsets = offsets
        self.shape = (len(offsets), height, width)

    def walk(self, indices):
        """The planes ``indices`` name, each read into one plane that the
        next step overwrites, so a walk faults in the pages of one plane,
        not of one per frame."""
        plane = np.empty(self.shape[1:], self.dtype)
        for i in indices:
            yield self._read_into(i, plane)

    def _read_into(self, i: int, plane: np.ndarray) -> np.ndarray:
        try:
            with open(self.path, "rb") as f:
                f.seek(self._offsets[i])
                n = f.readinto(plane)
        except OSError as e:
            raise DataError(f"{self.path}: frame {i}: cannot read: {e.strerror or e}") from e
        if n != plane.nbytes:
            raise DataError(f"{self.path}: frame {i}: truncated payload")
        return plane


_Y4M_MAGIC = b"YUV4MPEG2"
_Y4M_420_TAGS = {b"420", b"420jpeg", b"420mpeg2", b"420paldv"}


def load_y4m(path) -> FrameSequence:
    """Parse a YUV4MPEG2 stream, keeping luma only.

    Supports 4:2:0 planar (chroma discarded) and mono. Header must
    declare W, H and F; interlace/aspect/extension tags are ignored.

    Only the header and the FRAME lines are read here: the walk from one
    FRAME line to the next checks every frame against the file size and
    records where its luma plane starts, and the planes are read when the
    frames are walked (``Y4MFrames``).
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.readline()
        if not header.endswith(b"\n") or not header.startswith(_Y4M_MAGIC + b" "):
            if header[: len(_Y4M_MAGIC)] != _Y4M_MAGIC:
                raise DataError(f"{path}: bad magic, not a YUV4MPEG2 stream")
            raise DataError(f"{path}: malformed YUV4MPEG2 header")
        width = height = 0
        fps_num = fps_den = 0
        chroma = b"420"
        for token in header[len(_Y4M_MAGIC) + 1 : -1].split(b" "):
            if not token:
                continue
            key, val = token[:1], token[1:]
            try:
                if key == b"W":
                    width = int(val)
                elif key == b"H":
                    height = int(val)
                elif key == b"F":
                    num, den = val.split(b":")
                    fps_num, fps_den = int(num), int(den)
                elif key == b"C":
                    chroma = val
                # I, A, X tags carry no information we use
            except ValueError as e:
                raise DataError(f"{path}: bad header token {token!r}") from e
        if width <= 0 or height <= 0:
            raise DataError(f"{path}: header missing valid W/H")
        if fps_num <= 0 or fps_den <= 0:
            raise DataError(f"{path}: header missing valid frame rate")

        if chroma in _Y4M_420_TAGS:
            if width % 2 or height % 2:
                raise DataError(f"{path}: odd dimensions with 4:2:0 chroma")
            chroma_bytes = 2 * (width // 2) * (height // 2)
        elif chroma == b"mono":
            chroma_bytes = 0
        else:
            raise DataError(f"{path}: unsupported chroma tag C{chroma.decode(errors='replace')}")

        frame_bytes = width * height + chroma_bytes
        offsets = []
        pos = len(header)
        while pos < size:
            f.seek(pos)
            marker = f.read(5)
            if marker == b"FRAME":
                marker += f.readline()  # the FRAME line's parameters, if any
            if marker[:5] != b"FRAME" or marker[-1:] != b"\n":
                raise DataError(f"{path}: frame {len(offsets)}: missing FRAME marker")
            pos += len(marker)
            if pos + frame_bytes > size:
                raise DataError(f"{path}: frame {len(offsets)}: truncated payload")
            offsets.append(pos)
            pos += frame_bytes
    if not offsets:
        raise DataError(f"{path}: stream contains no frames")
    return FrameSequence(
        frames=Y4MFrames(path, offsets, height, width),
        fps=fps_num / fps_den,
        fps_rational=(fps_num, fps_den),
    )


def write_y4m(seq: FrameSequence, path) -> None:
    """Write luma as a mono YUV4MPEG2 stream (exact byte round-trip), one
    walked frame at a time; a frame that is not uint8 is rounded and clipped."""
    if seq.fps_rational is not None:
        num, den = seq.fps_rational
    else:
        frac = Fraction(seq.fps).limit_denominator(1_001_000)
        num, den = frac.numerator, frac.denominator
    with replaced_when_written(path) as f:
        f.write(
            f"YUV4MPEG2 W{seq.width} H{seq.height} F{num}:{den} Ip A1:1 Cmono\n".encode()
        )
        for frame in seq.walk():
            if frame.dtype != np.uint8:
                frame = np.clip(np.rint(frame), 0, 255).astype(np.uint8)
            f.write(b"FRAME\n")
            f.write(np.ascontiguousarray(frame).tobytes())


# ---------------------------------------------------------------------------
# Audio: RIFF/WAVE PCM16
# ---------------------------------------------------------------------------

@dataclass
class AudioClip:
    """Per-channel PCM samples scaled to [-1, 1]: float64 C-order rows of
    shape (channels, n), so each channel is contiguous and a mean over
    channels adds whole rows. ``load_wav`` gives one row."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.ascontiguousarray(np.atleast_2d(self.samples), dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be > 0")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def resampled_length(n: int, rate: int, target_rate: int) -> int:
    """The number of samples n samples at ``rate`` Hz come to at
    ``target_rate`` Hz: round(n*target_rate/rate). ``load_wav`` and
    ``audiofe.resample_linear`` size their output by it."""
    return int(round(n * target_rate / rate))


def load_wav(path, rate: int | None = None) -> AudioClip:
    """Read a RIFF/WAVE file (PCM 16-bit, 1/2/4 channels, at least
    MIN_WAV_RATE Hz) as a mono clip: one row, the mean of the channels.

    ``rate`` is the rate the caller will use. When the file's rate is k
    times it, for an integer k, only every k-th frame is decoded,
    resampled_length(n, file rate, rate) of them, and the clip comes back
    at ``rate``: these are the samples ``audiofe.resample_linear`` keeps
    of the whole decode at that ratio, bit for bit, since each sample
    depends only on its own frame. At any other rate, or none, every
    frame is decoded and the clip comes back at the file's rate.

    A sample is decoded straight from the int16 codes of its frame: the
    channel columns are added in int32 and the sum is scaled once by
    2**-15/channels. So the most negative 16-bit code of a mono file maps
    to -1.0 exactly, and the row equals the float mean of the channels
    scaled by 2**-15, bit for bit: a float sum of at most 4 such values
    is exact, and so is a division by 1, 2 or 4.

    The data chunk is read _WAV_BLOCK_FRAMES frames at a time, and each
    block's kept frames are decoded straight into the preallocated row, so
    the blocks give the bits of one whole-chunk decode, and besides the
    row only one block is alive.
    """
    if rate is not None and rate <= 0:
        raise ValidationError("rate must be > 0")
    with open(path, "rb") as f:
        channels, file_rate, offset, n = _wav_format(f, path)
        k = file_rate // rate if rate and file_rate % rate == 0 else 1
        mono = np.empty(resampled_length(n, file_rate, file_rate // k))
        pcm = np.empty((min(n, _WAV_BLOCK_FRAMES), channels), "<i2")
        total = np.empty(-(-len(pcm) // k), np.int32)
        scale = 2.0 ** -15 / channels
        f.seek(offset)
        for i in range(0, n, _WAV_BLOCK_FRAMES):
            block = pcm[: n - i]
            if f.readinto(block) != block.nbytes:
                raise DataError(f"{path}: truncated b'data' chunk")
            j = -(-i // k)  # the block's first kept frame is frame j*k
            kept = block[j * k - i :: k][: len(mono) - j]
            acc = total[: len(kept)]
            np.copyto(acc, kept[:, 0])
            for c in range(1, channels):
                acc += kept[:, c]
            np.multiply(acc, scale, out=mono[j : j + len(kept)])
    return AudioClip(samples=mono[None], sample_rate=file_rate // k)


def _wav_format(f, path) -> tuple[int, int, int, int]:
    """The channel count and sample rate the fmt chunk of the open
    RIFF/WAVE file ``f`` states, the offset of its data chunk's body and
    its number of frames.

    The chunks are walked by their 8-byte headers against the file size;
    a second fmt or data chunk is a DataError, not a replacement of the
    first, and so is a RIFF size other than the file size less 8."""
    size = os.fstat(f.fileno()).st_size
    riff = f.read(12)
    if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    payload = None  # (offset, size) of the data chunk body
    pos = 12
    while pos + 8 <= size:
        f.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", f.read(8))
        if pos + 8 + chunk_size > size:
            raise DataError(f"{path}: truncated {chunk_id!r} chunk")
        earlier = {b"fmt ": fmt, b"data": payload}.get(chunk_id)
        if earlier is not None:
            raise DataError(f"{path}: second {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DataError(f"{path}: malformed fmt chunk")
            fmt = struct.unpack("<HHIIHH", f.read(16))
        elif chunk_id == b"data":
            payload = (pos + 8, chunk_size)
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    riff_size = struct.unpack("<I", riff[4:8])[0]
    if 8 + riff_size != size:
        raise DataError(f"{path}: RIFF size {riff_size} + 8 is not the file size {size}")
    if fmt is None or payload is None:
        raise DataError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise DataError(f"{path}: non-PCM codec (format tag {audio_format})")
    if bits != 16:
        raise DataError(f"{path}: only PCM 16-bit supported, got {bits}-bit")
    if channels not in VALID_CHANNEL_COUNTS:
        raise DataError(
            f"{path}: channel count {channels} not in {VALID_CHANNEL_COUNTS}"
        )
    if sample_rate < MIN_WAV_RATE:
        raise DataError(
            f"{path}: sample rate {sample_rate} in fmt chunk, below {MIN_WAV_RATE} Hz"
        )
    offset, nbytes = payload
    if nbytes % (2 * channels):
        raise DataError(f"{path}: data chunk size not a multiple of frame size")
    return channels, sample_rate, offset, nbytes // (2 * channels)


def write_wav(clip: AudioClip, path) -> None:
    """Write an AudioClip as PCM16 WAV (values clipped to the int16 range)."""
    pcm = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    interleaved = np.ascontiguousarray(pcm.T).tobytes()
    channels = clip.channels
    byte_rate = clip.sample_rate * channels * 2
    with replaced_when_written(path) as f:
        f.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(interleaved), b"WAVE",
                            b"fmt ", 16, 1, channels, clip.sample_rate, byte_rate,
                            channels * 2, 16, b"data", len(interleaved)))
        f.write(interleaved)


def downmix_mono(clip: AudioClip) -> AudioClip:
    """Arithmetic mean across channels, sample-wise."""
    if clip.channels == 1:
        return AudioClip(samples=clip.samples.copy(), sample_rate=clip.sample_rate)
    mono = clip.samples.mean(axis=0, keepdims=True)
    return AudioClip(samples=mono, sample_rate=clip.sample_rate)


# ---------------------------------------------------------------------------
# CSV tables: one codec for every table the toolkit reads or writes
# ---------------------------------------------------------------------------

def read_csv_table(path, header):
    """Yield ``(line number, fields)`` for each data row of a CSV table.

    The file is read as UTF-8 text, one row at a time as the caller
    consumes them, so no copy of the whole text is held. Its first row
    must equal the list ``header`` and blank rows are skipped. An empty
    file, another header, a row whose field count is not ``len(header)``,
    a row the CSV parser rejects or a byte that is not UTF-8 is a
    DataError naming the path (and the line, for a row or a byte).
    """
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        try:
            found = next(rows, None)
            if found is None:
                raise DataError(f"{path}: empty file")
            if found != header:
                raise DataError(f"{path}: bad header {found}, expected {header}")
            n = len(header)
            for row in rows:
                if len(row) != n:
                    if not row:
                        continue
                    raise DataError(f"{path}: line {rows.line_num}: expected "
                                    f"{n} fields, got {len(row)}")
                yield rows.line_num, row
        except csv.Error as e:
            raise DataError(f"{path}: line {rows.line_num}: {e}") from e
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def write_csv_table(path, header, rows, staged=None) -> None:
    """Write ``header``, then each row of the iterable ``rows`` as it is
    produced, as UTF-8 CSV with CRLF line ends, to a buffered file.

    The table replaces ``path`` only once every row is written, or when
    the ExitStack ``staged`` closes (``replaced_when_written``), so a
    failure while producing the rows leaves an earlier table at ``path``
    as it was.
    """
    with replaced_when_written(path, "w", staged, newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(chain([header], rows))


def _parse_bool(text: str) -> bool:
    token = text.strip().lower()
    if token in ("true", "1"):
        return True
    if token in ("false", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# A tuple field holds integers, written comma-separated.
_TEXT_PARSERS = {bool: _parse_bool, tuple: lambda text: tuple(int(x) for x in text.split(",")),
                 int: int, float: float, str: str}


def text_parsers(cls) -> dict:
    """The text parser of each field of the dataclass ``cls``, chosen by
    its annotated type (bool, tuple of ints, int, float or str); a field
    of any other type has none. A parser raises ValueError on bad text."""
    hints = typing.get_type_hints(cls)
    return {f.name: _TEXT_PARSERS[hints[f.name]] for f in fields(cls)
            if hints[f.name] in _TEXT_PARSERS}


def read_records(path, cls):
    """Yield ``(line number, record)`` for each row of a CSV table whose
    header is the field names of ``cls`` (see ``read_csv_table``).

    Each value is parsed by its field's ``text_parsers`` entry; a str field
    is taken as it is. A value that does not parse is a DataError
    "<path>: line N: bad <field> '<value>'", and a record that ``cls``
    rejects with a ValidationError is a DataError "<path>: line N: <why>".
    """
    names = [f.name for f in fields(cls)]
    parsers = text_parsers(cls)
    convert = [(i, parsers[name]) for i, name in enumerate(names)
               if parsers.get(name, str) is not str]
    for lineno, row in read_csv_table(path, names):
        try:
            for i, parse in convert:
                row[i] = parse(row[i])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad {names[i]} {row[i]!r}") from None
        try:
            record = cls(*row)
        except ValidationError as e:
            raise DataError(f"{path}: line {lineno}: {e}") from e
        yield lineno, record


# ---------------------------------------------------------------------------
# Subjective scores: CSV
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class RatingRecord:
    """One subject's score for one sequence within one session."""

    subject_id: str
    sequence_id: str
    session_id: str
    score: float
    ssq_flag: bool = False

    def __post_init__(self):
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise ValidationError(
                f"score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}] "
                f"(subject {self.subject_id}, sequence {self.sequence_id})"
            )


def load_scores_csv(path) -> list[RatingRecord]:
    """Read the rating table CSV (see ``read_records``); a table with no
    records is a DataError."""
    records = [record for _, record in read_records(path, RatingRecord)]
    if not records:
        raise DataError(f"{path}: no rating records")
    return records


def write_scores_csv(records, path) -> None:
    write_csv_table(path, [f.name for f in fields(RatingRecord)], (
        [r.subject_id, r.sequence_id, r.session_id,
         f"{r.score:.4f}", "true" if r.ssq_flag else "false"]
        for r in records
    ))
