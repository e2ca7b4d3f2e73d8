"""Subjective data processing: SSQ exclusion, subject screening, MOS.

The screening step implements the classic kurtosis-gated outlier count:
per sequence, scores beyond mean +/- k*std are tallied (k = 2 for
normal-ish distributions, sqrt(20) otherwise), and a subject is rejected
when their outlier fraction exceeds 5% while being balanced between the
high and low sides. The rule's thresholds are fixed constants, not
parameters. A single pass is applied; re-screening is left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, ValidationError
from .manifest import (SCORE_MAX, SCORE_MIN, RatingRecord, read_records,
                       write_csv_table)

# Minimum number of valid ratings a sequence should retain after
# screening for its MOS to be considered trustworthy.
MIN_VALID_RATINGS = 15

# Thresholds of the outlier-count rejection rule.
OUTLIER_FRACTION = 0.05   # reject only if (P+Q)/N exceeds this
BALANCE_THRESHOLD = 0.3   # ... and |P-Q|/(P+Q) is below this
KURTOSIS_LO = 2.0         # k = K_NORMAL for kurtosis in [KURTOSIS_LO, KURTOSIS_HI]
KURTOSIS_HI = 4.0
K_NORMAL = 2.0
K_NONNORMAL = math.sqrt(20.0)


@dataclass
class SequenceScoreStats:
    """Per-sequence statistics used by the screening thresholds."""

    mean: float
    std: float        # sample std (n-1 denominator)
    kurtosis: float   # m4/m2^2 on population moments (normal ~ 3); 0 if std == 0


@dataclass
class SubjectScreeningResult:
    subject_id: str
    p_count: int
    q_count: int
    rejected: bool
    n_scores: int = 0


@dataclass
class MOSRecord:
    """Screened per-sequence mean opinion score with 95% CI half-width.

    The MOS lies in [SCORE_MIN, SCORE_MAX], std and the CI half-width are
    finite and >= 0, and n_valid >= 1.
    """

    sequence_id: str
    mos: float
    std: float
    n_valid: int
    ci95_half_width: float

    def __post_init__(self):
        if not SCORE_MIN <= self.mos <= SCORE_MAX:
            raise ValidationError(f"mos {self.mos} outside [{SCORE_MIN}, {SCORE_MAX}]")
        for name in ("std", "ci95_half_width"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValidationError(f"{name} {value} is not finite and >= 0")
        if self.n_valid < 1:
            raise ValidationError(f"n_valid {self.n_valid} < 1")

    def meets_minimum(self) -> bool:
        return self.n_valid >= MIN_VALID_RATINGS


def exclude_ssq(records: list[RatingRecord]) -> list[RatingRecord]:
    """The records whose session was not SSQ-flagged, in order; empty when
    every record is flagged, which the caller reports."""
    return [r for r in records if not r.ssq_flag]


def sequence_score_stats(records: list[RatingRecord]) -> dict[str, SequenceScoreStats]:
    """Mean, sample std and kurtosis per sequence, in first-appearance order."""
    by_seq: dict[str, list[float]] = {}
    for r in records:
        by_seq.setdefault(r.sequence_id, []).append(r.score)
    stats = {}
    for seq, scores in by_seq.items():
        if len(scores) < 2:
            raise DataError(f"sequence {seq!r} rated by fewer than 2 subjects")
        x = np.asarray(scores, dtype=np.float64)
        mean = float(x.mean())
        std = float(x.std(ddof=1))
        d = x - mean
        m2 = float((d * d).mean())
        kurt = float((d ** 4).mean() / (m2 * m2)) if m2 > 0 else 0.0
        stats[seq] = SequenceScoreStats(mean=mean, std=std, kurtosis=kurt)
    return stats


def rejection_rule(p: int, q: int, n: int) -> bool:
    """Reject iff (P+Q)/N > OUTLIER_FRACTION and |P-Q|/(P+Q) < BALANCE_THRESHOLD."""
    if p + q == 0:
        return False
    return (p + q) / n > OUTLIER_FRACTION and abs(p - q) / (p + q) < BALANCE_THRESHOLD


def screen_subjects(
    records: list[RatingRecord],
) -> tuple[list[SubjectScreeningResult], list[RatingRecord]]:
    """Single-pass subject screening over a rating table.

    Per sequence j a score counts toward P when above mean_j + k_j*std_j
    and toward Q when below mean_j - k_j*std_j, where k_j depends on the
    sequence kurtosis. Subject i is rejected iff

        (P+Q)/N > OUTLIER_FRACTION  and  |P-Q|/(P+Q) < BALANCE_THRESHOLD

    with N the number of scores subject i gave. Returns the per-subject
    results plus the table with rejected subjects' records removed.
    """
    subjects = list(dict.fromkeys(r.subject_id for r in records))
    sequences = {r.sequence_id for r in records}
    if len(subjects) < 2 or len(sequences) < 2:
        raise ValidationError(
            "screening needs at least 2 subjects and 2 sequences, got "
            f"{len(subjects)} subject(s) / {len(sequences)} sequence(s)"
        )
    stats = sequence_score_stats(records)

    thresholds = {}
    for seq, s in stats.items():
        k = K_NORMAL if KURTOSIS_LO <= s.kurtosis <= KURTOSIS_HI else K_NONNORMAL
        thresholds[seq] = (s.mean + k * s.std, s.mean - k * s.std)

    counts = {sid: [0, 0, 0] for sid in subjects}  # P, Q, N
    for r in records:
        hi, lo = thresholds[r.sequence_id]
        c = counts[r.subject_id]
        if r.score > hi:
            c[0] += 1
        elif r.score < lo:
            c[1] += 1
        c[2] += 1

    results = []
    rejected_ids = set()
    for sid in subjects:
        p, q, n = counts[sid]
        rejected = rejection_rule(p, q, n)
        if rejected:
            rejected_ids.add(sid)
        results.append(
            SubjectScreeningResult(
                subject_id=sid,
                p_count=p,
                q_count=q,
                rejected=rejected,
                n_scores=n,
            )
        )
    filtered = [r for r in records if r.subject_id not in rejected_ids]
    return results, filtered


def compute_mos(records: list[RatingRecord]) -> list[MOSRecord]:
    """Per-sequence MOS, sample std and 1.96*std/sqrt(n) CI half-width.

    Sequences are emitted in first-appearance order. Sequences with
    fewer than MIN_VALID_RATINGS valid scores are kept, not dropped; their
    ``MOSRecord.meets_minimum()`` is False, which the caller reports.
    """
    by_seq: dict[str, list[float]] = {}
    for r in records:
        by_seq.setdefault(r.sequence_id, []).append(r.score)
    if not by_seq:
        raise DataError("no rating records to aggregate")
    out = []
    for seq, scores in by_seq.items():
        x = np.asarray(scores, dtype=np.float64)
        n = len(x)
        std = float(x.std(ddof=1)) if n > 1 else 0.0
        out.append(MOSRecord(
            sequence_id=seq,
            mos=float(x.mean()),
            std=std,
            n_valid=n,
            ci95_half_width=1.96 * std / math.sqrt(n),
        ))
    return out


def write_mos_csv(records: list[MOSRecord], path) -> None:
    write_csv_table(path, [f.name for f in fields(MOSRecord)], (
        [r.sequence_id, f"{r.mos:.6f}", f"{r.std:.6f}",
         r.n_valid, f"{r.ci95_half_width:.6f}"]
        for r in records
    ))


def read_mos_csv(path) -> dict[str, MOSRecord]:
    """Read a MOS table (see ``manifest.read_records``) back as a
    sequence_id -> MOSRecord mapping; a table with no rows or a repeated
    sequence_id is a DataError."""
    out: dict[str, MOSRecord] = {}
    for lineno, rec in read_records(path, MOSRecord):
        if rec.sequence_id in out:
            raise DataError(
                f"{path}: line {lineno}: duplicate sequence_id {rec.sequence_id!r}"
            )
        out[rec.sequence_id] = rec
    if not out:
        raise DataError(f"{path}: no MOS rows")
    return out
