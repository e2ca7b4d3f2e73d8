import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import kendalltau, spearmanr

from avq360 import metrics
from avq360.errors import ValidationError
from avq360.metrics import (
    REFERENCE_RESULTS,
    LogisticFit,
    MetricReport,
    evaluate_predictions,
    krocc,
    logistic4,
    logistic_fit,
    plcc,
    rmse,
    srocc,
    write_report_csv,
)

from oracles import brute_krocc, brute_srocc


class TestWorkedExamples:
    def test_perfect_agreement(self):
        x = [1.0, 2.0, 3.0]
        assert plcc(x, x) == pytest.approx(1.0, abs=1e-12)
        assert srocc(x, x) == pytest.approx(1.0, abs=1e-12)
        assert krocc(x, x) == pytest.approx(1.0, abs=1e-12)
        assert rmse(x, x) == 0.0

    def test_reversed_is_antitone(self):
        x = [1.0, 2.0, 3.0]
        assert srocc(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)
        assert krocc(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_kendall_single_swap(self):
        # pairs: 6 total, 5 concordant, 1 discordant -> (5-1)/6
        assert krocc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4.0 / 6.0, abs=1e-12)
        assert brute_krocc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("func", [plcc, srocc, krocc, rmse],
                             ids=lambda f: f.__name__)
    def test_non_finite_input_is_explicit_error(self, func, bad):
        good = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValidationError, match="x holds NaN or infinite"):
            func([1.0, bad, 3.0, 4.0, 5.0], good)
        with pytest.raises(ValidationError, match="y holds NaN or infinite"):
            func(good, [1.0, 2.0, 3.0, bad, 5.0])

    def test_constant_input_is_explicit_error(self):
        with pytest.raises(ValidationError, match="constant"):
            plcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="constant"):
            srocc([1.0, 2.0], [5.0, 5.0])
        with pytest.raises(ValidationError, match="constant"):
            krocc([2.0, 2.0], [1.0, 2.0])


class TestOracleEquivalence:
    def test_thousand_random_vectors_with_ties(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 9))
            x = rng.integers(0, 4, size=n).astype(float)  # coarse grid forces ties
            y = rng.integers(0, 4, size=n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert srocc(x, y) == pytest.approx(brute_srocc(list(x), list(y)), abs=1e-12)
            assert krocc(x, y) == pytest.approx(brute_krocc(list(x), list(y)), abs=1e-12)
            checked += 1

    def test_krocc_memory_is_bounded(self):
        # every pair of 20 000 scores at once would take gigabytes
        rng = np.random.default_rng(20)
        x = rng.integers(0, 300, 20_000).astype(float)
        y = np.round(x / 30 + rng.normal(0, 3, x.size))
        tracemalloc.start()
        try:
            krocc(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert krocc(x[:300], y[:300]) == pytest.approx(
            brute_krocc(list(x[:300]), list(y[:300])), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        gx = np.exp(0.5 * x) + 3.0          # strictly increasing transform
        assert srocc(gx, y) == pytest.approx(srocc(x, y), abs=1e-12)
        assert krocc(gx, y) == pytest.approx(krocc(x, y), abs=1e-12)


class TestLogisticFit:
    def test_fit_beats_feasible_candidates(self):
        mos = np.linspace(10, 90, 30)
        pred = mos.copy()  # predictions already on the target scale
        fit = logistic_fit(pred, mos)
        sse_const = float(((mos - mos.mean()) ** 2).sum())
        assert fit.sse <= sse_const + 1e-9
        init_sse = float(
            ((logistic4(pred, mos.max(), mos.min(), np.median(pred),
                        pred.std() / 4) - mos) ** 2).sum()
        )
        assert fit.sse <= init_sse + 1e-9

    def test_generate_and_recover(self):
        rng = np.random.default_rng(42)
        x = np.linspace(0.0, 1.0, 200)
        true = logistic4(x, 90.0, 10.0, 0.5, 0.1)
        mos = true + rng.normal(0.0, 0.5, size=x.size)
        fit = logistic_fit(x, mos)
        err = float(np.sqrt(np.mean((fit.mapped - true) ** 2)))
        assert err < 0.5

    def test_affine_predictions_reach_plcc_one(self):
        mos = np.linspace(20, 90, 60)
        pred = 0.013 * mos - 0.4
        fit = logistic_fit(pred, mos)
        assert plcc(fit.mapped, mos) == pytest.approx(1.0, abs=1e-6)

    def test_mapping_is_monotone(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=40)
        mos = 30.0 + 40.0 / (1 + np.exp(-2 * pred)) + rng.normal(0, 1.0, 40)
        fit = logistic_fit(pred, mos)
        order = np.argsort(pred)
        diffs = np.diff(fit.mapped[order])
        assert np.all(diffs >= -1e-9) or np.all(diffs <= 1e-9)

    def test_constant_mos_degenerates_without_warning(self):
        pred = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        mos = np.full(5, 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = logistic_fit(pred, mos)
        assert fit.degenerate
        np.testing.assert_array_equal(fit.mapped, pred)

    def test_collapsed_fit_degenerates_without_warning(self):
        # an untrained model's scores against MOS it barely follows: the
        # fit drives b3 out of range and the curve goes flat
        pred = np.array([84.6088, 85.2264, 87.6288, 87.1802, 88.1632, 85.5861,
                         89.9623, 88.8313, 85.9259, 87.4318, 90.0338, 88.4862])
        mos = np.array([84.4166, 80.94, 73.6788, 67.4811, 63.2739, 56.4764,
                        53.5722, 45.7547, 42.2042, 36.0894, 31.5796, 29.3677])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = logistic_fit(pred, mos)
            report = evaluate_predictions(pred, mos)
        assert fit.degenerate
        np.testing.assert_array_equal(fit.mapped, pred)
        assert report.degenerate
        assert -1.0 <= report.plcc <= 1.0

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="n >= 5"):
            logistic_fit([1, 2, 3], [4, 5, 6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("func", [logistic_fit, evaluate_predictions],
                             ids=lambda f: f.__name__)
    def test_non_finite_input_is_explicit_error(self, func, bad):
        good = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValidationError, match="pred holds NaN or infinite"):
            func([1.0, bad, 3.0, 4.0, 5.0], good)
        with pytest.raises(ValidationError, match="mos holds NaN or infinite"):
            func(good, [1.0, 2.0, 3.0, bad, 5.0])


def scipy_logistic4(x, b1, b2, b3, b4):
    scale = max(abs(b4), 1e-12)
    return (b1 - b2) * expit((np.asarray(x, dtype=np.float64) - b3) / scale) + b2


def scipy_minimize(pred, mos):
    """The SciPy fit that ``logistic_fit`` replaces, with its options."""
    x0 = np.array([mos.max(), mos.min(), float(np.median(pred)),
                   max(float(pred.std()) / 4.0, 1e-6)])

    def sse(beta):
        r = scipy_logistic4(pred, *beta) - mos
        return float(r @ r)

    return minimize(sse, x0, method="Nelder-Mead",
                    options={"maxiter": 2000, "maxfev": 4000, "xatol": 1e-10, "fatol": 1e-12})


def scipy_report(pred, mos):
    """Fit and report as computed with SciPy; returns (result, fit, report)."""
    res = scipy_minimize(pred, mos)
    beta = tuple(float(b) for b in res.x)
    mapped = scipy_logistic4(pred, *res.x)
    if np.ptp(mapped) == 0:
        fit = LogisticFit(beta, pred.copy(), float(((pred - mos) ** 2).sum()), True)
    else:
        fit = LogisticFit(beta, mapped, float(res.fun))
    report = MetricReport(
        plcc=float(np.corrcoef(fit.mapped, mos)[0, 1]),
        srocc=float(spearmanr(pred, mos).correlation),
        krocc=float(kendalltau(pred, mos, variant="b").correlation),
        rmse=float(np.sqrt(np.mean((fit.mapped - mos) ** 2))),
        beta=beta, n=len(pred), degenerate=fit.degenerate)
    return res, fit, report


def random_case(rng):
    """Scores and MOS with ties, n from 5 to 300, related or not."""
    n = int(np.exp(rng.uniform(np.log(5), np.log(300))))
    mos = rng.uniform(1, 5, n)
    if rng.random() < 0.5:
        mos = np.round(mos, int(rng.integers(0, 2)))
    kind = rng.integers(0, 4)
    if kind == 0:
        pred = 0.3 * mos + rng.normal(0, 0.2, n)
    elif kind == 1:
        pred = rng.normal(size=n)                       # unrelated: a flat fit
    elif kind == 2:
        pred = 1 / (1 + np.exp(2 * (3 - mos))) + rng.normal(0, 0.05, n)
    else:
        pred = rng.integers(0, 5, n).astype(float)      # a coarse grid
    if rng.random() < 0.5:
        pred = np.round(pred, int(rng.integers(0, 3)))
    return pred, mos


class TestScipyBitIdentity:
    """The NumPy metrics give the SciPy routines' numbers bit for bit."""

    @pytest.fixture
    def identical(self, monkeypatch):
        """Asserts one input's fit and report equal SciPy's; returns
        (SciPy's optimizer result, the fit)."""
        fits = []

        def keep_fit(pred, mos):
            fits.append(logistic_fit(pred, mos))
            return fits[-1]

        monkeypatch.setattr(metrics, "logistic_fit", keep_fit)

        def check(pred, mos):
            res, want_fit, want = scipy_report(pred, mos)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = evaluate_predictions(pred, mos)
            fit = fits.pop()
            assert fit.beta == want_fit.beta
            np.testing.assert_array_equal(fit.mapped, want_fit.mapped)
            assert fit.sse == want_fit.sse
            assert fit.degenerate == want_fit.degenerate
            assert srocc(pred, mos) == want.srocc
            assert krocc(pred, mos) == want.krocc
            assert report == want
            return res, fit

        return check

    def test_seeded_random_reports(self, identical):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            pred, mos = random_case(rng)
            identical(pred, mos)

    def test_rank_correlations_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 300))
            x = rng.integers(0, int(rng.integers(2, 40)), n) / 7.0
            y = rng.integers(0, int(rng.integers(2, 40)), n) * 0.3
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert srocc(x, y) == float(spearmanr(x, y).correlation)
            assert krocc(x, y) == float(kendalltau(x, y, variant="b").correlation)

    def test_exhausted_evaluation_budget(self, identical):
        rng = np.random.default_rng(3)
        mos = np.round(rng.uniform(1, 5, 12), 1)
        pred = np.round(rng.normal(size=12), 2)
        res, _ = identical(pred, mos)
        assert res.nfev == 4000

    def test_collapsed_curve(self, identical):
        pred = np.array([84.6088, 85.2264, 87.6288, 87.1802, 88.1632, 85.5861,
                         89.9623, 88.8313, 85.9259, 87.4318, 90.0338, 88.4862])
        mos = np.array([84.4166, 80.94, 73.6788, 67.4811, 63.2739, 56.4764,
                        53.5722, 45.7547, 42.2042, 36.0894, 31.5796, 29.3677])
        _, fit = identical(pred, mos)
        assert fit.degenerate

    def test_constant_mos(self):
        pred = np.array([0.3, 0.1, 0.4, 0.1, 0.5, 0.9])
        mos = np.full(6, 3.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = logistic_fit(pred, mos)
        assert fit.degenerate
        assert fit.beta == (3.2, 3.2, float(np.median(pred)), 1.0)
        np.testing.assert_array_equal(fit.mapped, pred)
        assert fit.sse == float(((pred - mos) ** 2).sum())


class TestEvaluate:
    def test_full_report(self):
        rng = np.random.default_rng(8)
        mos = rng.uniform(20, 90, 40)
        pred = 0.02 * mos + rng.normal(0, 0.05, 40)
        report = evaluate_predictions(pred, mos)
        assert -1 <= report.plcc <= 1
        assert -1 <= report.srocc <= 1
        assert -1 <= report.krocc <= 1
        assert report.rmse >= 0
        assert report.n == 40
        assert report.plcc > 0.9  # strongly correlated by construction

    def test_report_csv(self, tmp_path):
        report = MetricReport(plcc=0.9, srocc=0.8, krocc=0.7, rmse=1.5,
                              beta=(90.0, 10.0, 0.5, 0.1), n=12)
        path = tmp_path / "metrics.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "plcc,srocc,krocc,rmse,n,b1,b2,b3,b4"
        fields = lines[1].split(",")
        assert float(fields[0]) == 0.9
        assert int(fields[4]) == 12


class TestReferenceResults:
    def test_reference_constants_documented_not_reproduced(self):
        """The originally reported numbers are reference constants only;
        the toolkit never claims to reproduce them (source dataset and
        pretrained weights are not public)."""
        assert REFERENCE_RESULTS == {
            "srocc": 0.8245,
            "plcc": 0.8590,
            "krocc": 0.6436,
            "rmse": 0.5772,
        }
        import avq360.metrics as m

        doc = open(m.__file__).read()
        assert "NOT reproducible" in doc
