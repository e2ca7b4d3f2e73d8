import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from avq360.errors import DataError, ValidationError
from avq360.manifest import RatingRecord
from avq360.subjective import (
    MIN_VALID_RATINGS,
    MOSRecord,
    compute_mos,
    exclude_ssq,
    rejection_rule,
    screen_subjects,
    sequence_score_stats,
    write_mos_csv,
    read_mos_csv,
)
from avq360.synthetic import (
    PLANTED_SUBJECT,
    fixture_sequence_targets,
    make_rating_table,
)

from oracles import screen_oracle


def as_table(records):
    table = {}
    for r in records:
        table.setdefault(r.subject_id, {})[r.sequence_id] = r.score
    return table


class TestExcludeSSQ:
    def test_flagged_removed(self):
        records = [
            RatingRecord(f"s{i}", "a", "x", 50.0, ssq_flag=(i < 2)) for i in range(10)
        ]
        kept = exclude_ssq(records)
        assert len(kept) == 8
        assert all(not r.ssq_flag for r in kept)

    def test_no_flags_identity(self):
        records = [RatingRecord(f"s{i}", "a", "x", 50.0) for i in range(5)]
        assert exclude_ssq(records) == records

    def test_all_flagged_empties_without_warning(self):
        records = [RatingRecord("s0", "a", "x", 50.0, ssq_flag=True)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exclude_ssq(records) == []


class TestRejectionRule:
    def test_balanced_outliers_rejected(self):
        assert rejection_rule(p=3, q=3, n=20)

    def test_one_sided_not_rejected(self):
        # ratio 0.15 > 0.05 but |P-Q|/(P+Q) = 1 >= 0.3
        assert not rejection_rule(p=3, q=0, n=20)

    def test_below_fraction_not_rejected(self):
        assert not rejection_rule(p=1, q=0, n=20)
        assert not rejection_rule(p=0, q=0, n=20)


class TestScreenSubjects:
    def test_identical_scores_no_rejections(self):
        records = [
            RatingRecord(f"s{i}", f"seq{j}", "x", 60.0)
            for i in range(20)
            for j in range(5)
        ]
        results, filtered = screen_subjects(records)
        assert not any(r.rejected for r in results)
        assert filtered == records

    def test_planted_inconsistent_subject_rejected(self):
        """19 consistent subjects plus one whose score is 100 minus the
        consensus on every sequence; only that one must fall."""
        records = make_rating_table(
            fixture_sequence_targets(), ssq_subject=None, seed=7
        )
        results, filtered = screen_subjects(records)
        rejected = {r.subject_id for r in results if r.rejected}
        assert rejected == {PLANTED_SUBJECT}
        assert all(r.subject_id != PLANTED_SUBJECT for r in filtered)
        # agreement with the independent oracle, decisions and counts
        oracle_rejected, oracle_counts = screen_oracle(as_table(records))
        assert oracle_rejected == rejected
        for res in results:
            p, q, n = oracle_counts[res.subject_id]
            assert (res.p_count, res.q_count, res.n_scores) == (p, q, n)

    def test_all_consistent_fixture_no_rejections(self):
        records = make_rating_table(
            fixture_sequence_targets(),
            n_consistent=20,
            planted_subject=None,
            ssq_subject=None,
            seed=7,
        )
        results, filtered = screen_subjects(records)
        assert not any(r.rejected for r in results)
        assert screen_oracle(as_table(records))[0] == set()
        # single pass is stable on this consistent population
        results2, _ = screen_subjects(filtered)
        assert not any(r.rejected for r in results2)

    def test_degenerate_too_few_subjects(self):
        records = [RatingRecord("s0", "a", "x", 10.0), RatingRecord("s0", "b", "x", 20.0)]
        with pytest.raises(ValidationError, match="2 subjects"):
            screen_subjects(records)

    def test_sequence_with_single_rating(self):
        records = [
            RatingRecord("s0", "a", "x", 10.0),
            RatingRecord("s1", "a", "x", 20.0),
            RatingRecord("s0", "b", "x", 30.0),  # only one rating for b
            RatingRecord("s1", "c", "x", 40.0),
        ]
        with pytest.raises(DataError, match="fewer than 2"):
            screen_subjects(records)

    @given(
        a=st.floats(min_value=0.05, max_value=4.0),
        b=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_scale_equivariance(self, a, b):
        """Affine rescaling of all scores rejects exactly the same subjects."""
        base = make_rating_table(fixture_sequence_targets(), ssq_subject=None, seed=13)
        lo = min(r.score for r in base)
        hi = max(r.score for r in base)
        # keep a*x+b inside [0, 100]
        if not (0.0 <= a * lo + b and a * hi + b <= 100.0):
            a = 50.0 / max(abs(lo), abs(hi)) * 0.5
            b = 25.0
        mapped = [
            RatingRecord(r.subject_id, r.sequence_id, r.session_id,
                         a * r.score + b, r.ssq_flag)
            for r in base
        ]
        res1, _ = screen_subjects(base)
        res2, _ = screen_subjects(mapped)
        assert [r.rejected for r in res1] == [r.rejected for r in res2]
        assert [(r.p_count, r.q_count) for r in res1] == [
            (r.p_count, r.q_count) for r in res2
        ]

    def test_kurtosis_convention_normal_is_3(self):
        rng = np.random.default_rng(5)
        records = [
            RatingRecord(f"s{i}", "seq", "x", float(np.clip(50 + rng.normal(0, 8), 0, 100)))
            for i in range(4000)
        ] + [RatingRecord(f"s{i}", "seq2", "x", 50.0) for i in range(4000)]
        stats = sequence_score_stats(records)
        assert abs(stats["seq"].kurtosis - 3.0) < 0.3
        assert stats["seq2"].kurtosis == 0.0  # zero-variance sentinel


class TestComputeMOS:
    def test_constant_scores(self):
        records = [RatingRecord(f"s{i}", "a", "x", 50.0) for i in range(3)]
        (rec,) = compute_mos(records)
        assert rec.mos == 50.0
        assert rec.std == 0.0
        assert rec.ci95_half_width == 0.0
        assert rec.n_valid == 3

    def test_two_scores_hand_computed(self):
        records = [RatingRecord("s0", "a", "x", 40.0), RatingRecord("s1", "a", "x", 60.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rec,) = compute_mos(records)
        assert not rec.meets_minimum()  # n < 15
        assert rec.mos == 50.0
        assert rec.std == pytest.approx(math.sqrt(200.0), abs=1e-12)  # 14.1421...
        assert rec.ci95_half_width == pytest.approx(19.6, abs=1e-12)

    def test_minimum_valid_count_met_on_fixture(self):
        records = make_rating_table(fixture_sequence_targets(), ssq_subject=None, seed=7)
        _, filtered = screen_subjects(records)
        mos = compute_mos(filtered)
        assert all(m.n_valid >= MIN_VALID_RATINGS for m in mos)
        assert all(m.meets_minimum() for m in mos)

    def test_mos_within_score_range(self):
        records = make_rating_table(fixture_sequence_targets(), ssq_subject=None, seed=7)
        _, filtered = screen_subjects(records)
        by_seq = {}
        for r in filtered:
            by_seq.setdefault(r.sequence_id, []).append(r.score)
        for m in compute_mos(filtered):
            assert min(by_seq[m.sequence_id]) <= m.mos <= max(by_seq[m.sequence_id])

    def test_ci_formula(self):
        rng = np.random.default_rng(11)
        records = [
            RatingRecord(f"s{i}", "a", "x", float(rng.uniform(20, 80)))
            for i in range(20)
        ]
        (rec,) = compute_mos(records)
        assert rec.ci95_half_width == pytest.approx(
            1.96 * rec.std / math.sqrt(rec.n_valid), rel=1e-12
        )

    def test_empty_errors(self):
        with pytest.raises(DataError):
            compute_mos([])

    def test_csv_roundtrip(self, tmp_path):
        records = make_rating_table(fixture_sequence_targets(), ssq_subject=None, seed=7)
        _, filtered = screen_subjects(records)
        mos = compute_mos(filtered)
        path = tmp_path / "mos.csv"
        write_mos_csv(mos, path)
        loaded = read_mos_csv(path)
        assert set(loaded) == {m.sequence_id for m in mos}
        for m in mos:
            assert loaded[m.sequence_id].mos == pytest.approx(m.mos, abs=1e-6)
            assert loaded[m.sequence_id].n_valid == m.n_valid

    @pytest.mark.parametrize("column, value", [
        (1, "nan"), (1, "inf"), (1, "-0.5"), (1, "100.5"),
        (2, "nan"), (2, "inf"), (2, "-1.0"),
        (3, "0"), (3, "-4"),
        (4, "nan"), (4, "-inf"), (4, "-0.1"),
    ])
    def test_out_of_range_value_is_data_error(self, tmp_path, column, value):
        row = ["b", "50.000000", "3.000000", "19", "1.348973"]
        row[column] = value
        path = tmp_path / "mos.csv"
        path.write_text("sequence_id,mos,std,n_valid,ci95_half_width\n"
                        "a,50.000000,3.000000,19,1.348973\n" + ",".join(row) + "\n")
        with pytest.raises(DataError, match="line 3"):
            read_mos_csv(path)

    @pytest.mark.parametrize("field, value", [
        ("mos", math.nan), ("mos", -0.5), ("mos", 100.5), ("std", math.inf), ("std", -1.0),
        ("n_valid", 0), ("ci95_half_width", math.nan), ("ci95_half_width", -0.1),
    ])
    def test_record_with_out_of_range_value_is_refused(self, field, value):
        kwargs = dict(sequence_id="a", mos=50.0, std=3.0, n_valid=19, ci95_half_width=1.35)
        MOSRecord(**kwargs)
        with pytest.raises(ValidationError, match=f"^{field} "):
            MOSRecord(**kwargs | {field: value})
