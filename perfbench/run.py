"""avq360 benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/avq360`` must exist). The
run generates its inputs from the seed in set-up processes, then calls
``avq360.cli.main(argv)`` in-process, one call after another (a closed
loop with one client), repeating the workload's round of CLI calls for
about S seconds. Outputs are checked, and the last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an outside-in traced run plus the tracing overhead. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 100

# Every end-to-end metric: (name, unit, workloads it applies to).
END_TO_END = (
    ("setup_s", "s", None),
    ("wall_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("ops_failed_frac", "fraction", None),
    ("train_samples_per_s", "samples/s", ("fixture-train",)),
    ("evaluate_seq_per_s", "seq/s", ("longclip-score",)),
    ("predict_ms_p50", "ms", ("longclip-score",)),
    ("predict_ms_p90", "ms", ("longclip-score",)),
    ("siti_mpix_per_s", "Mpix/s", ("erp-ingest",)),
    ("features_seq_per_s", "seq/s", ("erp-ingest",)),
)
# The metrics every workload measures, and so the ones the JSON result
# line carries for --trace 0 (BENCHMARK.json lists the same).
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fixture-train", "longclip-score", "erp-ingest"))
    p.add_argument("--seed", type=lambda v: int(v) % 2**32, required=True,
                   help="input seed (taken modulo 2**32)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="miniature inputs, for the benchmark's own smoke tests")
    return p.parse_args(argv)


def provenance() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_1m": os.getloadavg()[0],   # from /proc/loadavg
    }


def set_up(args, wdir: Path) -> list[float]:
    """Runs the set-up process SETUP_REPEATS times; returns each wall time."""
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(wdir)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(wdir, ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return times


class Runner:
    """Repeats the workload's round of CLI calls and records every call."""

    def __init__(self, wl, cli, workloads):
        self.wl, self.cli, self.w = wl, cli, workloads
        self.calls = wl.round_calls()
        self.log = workloads.CheckLog()
        self.rounds: list[dict] = []
        self.first: dict | None = None
        self.tracer = None

    def round(self) -> dict:
        w, log = self.w, self.log
        rec = {"calls": [], "facts": {}}
        scores = {}
        if self.tracer is not None:
            self.tracer.begin_round()
        t0, cpu0 = time.perf_counter(), time.process_time()
        for call in self.calls:
            c0 = time.perf_counter()
            if self.tracer is not None:
                rc, out = self.tracer.call("cli.main", w.run_cli, self.cli.main, call.argv)
            else:
                rc, out = w.run_cli(self.cli.main, call.argv)
            dt = time.perf_counter() - c0
            facts = w.check_call(self.wl, call, rc, out, log)
            rec["calls"].append((call.kind, tuple(call.argv), dt))
            if "score" in facts:
                scores[facts["score"][0]] = facts["score"][1]
                rec.setdefault("score_lines", []).append("%s: %.4f" % facts["score"])
            for key in ("final_loss", "checkpoint_sha256", "summary"):
                if key in facts:
                    rec["facts"][key] = facts[key]
        rec["wall"] = time.perf_counter() - t0
        rec["cpu"] = time.process_time() - cpu0
        if scores:
            rec["facts"]["predict_sha256"] = w.sha256_text("\n".join(rec.pop("score_lines")))
            rec["scores"] = scores
        # Same inputs, same bytes: every round must repeat the first exactly.
        if self.first is None:
            self.first = rec["facts"]
        else:
            for key, value in self.first.items():
                log.expect(rec["facts"].get(key) == value,
                           f"round {len(self.rounds)}: {key} differs from round 0")
        self.rounds.append(rec)
        return rec

    def run_for(self, seconds: float, min_rounds: int) -> list[dict]:
        """Rounds until the next one would end past ``seconds``."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(self.round())
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall"] for r in done)
            if len(done) >= min_rounds and elapsed + typical > seconds:
                return done

    @property
    def attempted(self) -> int:
        return sum(len(r["calls"]) for r in self.rounds)


def call_walls(rounds, kind):
    return [dt for r in rounds for k, _, dt in r["calls"] if k == kind]


def fastest_calls(rounds) -> dict:
    """The shortest wall time of each distinct call (same argv) in ``rounds``.

    On a shared host, contention from other tenants only ever adds time, and
    it comes in phases of seconds to minutes that slow whole rounds (CPU time
    rises with wall time, so it is not descheduling). The fastest of many
    identical calls is the least disturbed reading of the program's cost; a
    median over one run's rounds follows whatever phase the run fell into."""
    best: dict = {}
    for r in rounds:
        for _, argv, dt in r["calls"]:
            best[argv] = min(dt, best.get(argv, dt))
    return best


def workload_metrics(wl, rounds) -> dict:
    """Workload-specific end-to-end metrics from the fastest call of each
    kind, except the predict percentiles, which pool every predict call."""
    name, out = wl.name, {}

    def fastest(kind):
        return min(call_walls(rounds, kind))

    if name == "fixture-train":
        out["train_samples_per_s"] = wl.samples_per_train() / fastest("train")
    elif name == "longclip-score":
        out["evaluate_seq_per_s"] = len(wl.ids) / fastest("evaluate")
        predict = call_walls(rounds, "predict")
        out["predict_ms_p50"] = 1e3 * statistics.median(predict)
        out["predict_ms_p90"] = 1e3 * statistics.quantiles(predict, n=10)[8]
        out["predict_calls"] = len(predict)
    else:
        out["siti_mpix_per_s"] = wl.luma_mpix() / fastest("siti")
        out["features_seq_per_s"] = len(wl.ids) / fastest("extract-features")
    return out


def final_checks(runner) -> dict:
    """Checks the last round's files; returns the values compared with
    the stored reference."""
    wl, w, log = runner.wl, runner.w, runner.log
    last = runner.rounds[-1]
    facts = dict(last["facts"])
    if wl.name == "longclip-score":
        facts["metrics_row"] = w.check_metrics_row(wl, last["scores"], log)
    elif wl.name == "erp-ingest":
        w.check_mos_table(wl, facts.get("summary", []), log)
        w.check_siti(wl, log)
        w.check_features(wl, log)
    w.check_reference(wl, facts, log)
    return facts


def measure_traced(runner, seconds: float, report: dict) -> dict:
    """Pairs of one untraced and one traced round, for ``seconds``; returns
    the per-layer metrics per traced round."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + plain[-1]["wall"] + traced[-1]["wall"] <= seconds):
        plain.append(runner.round())
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append(runner.round())
        finally:
            runner.tracer = None
            tracer.uninstall()
    units = {n: u for n, u, _ in tracing.per_layer_names()}
    metrics = {k: {"value": v if k.endswith("useful_frac") else v / len(traced), "unit": units[k]}
               for k, v in tracer.summary().items()}
    spans = WORK / "results" / f"{report['workload']}-s{report['seed']}-spans.jsonl"
    tracer.write(spans)
    report.update(
        rounds_plain=len(plain), rounds_traced=len(traced),
        tracing_overhead=(statistics.median(r["wall"] for r in traced)
                          / statistics.median(r["wall"] for r in plain) - 1.0),
        absent=tracer.absent,
        probe_errors=tracer.counters.get("probe_errors", 0),
        spans_file=str(spans.relative_to(ROOT)))
    print(f"traced rounds {len(traced)}, untraced rounds {len(plain)}, tracing overhead "
          f"{100 * report['tracing_overhead']:+.1f}% of round wall time")
    if tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.4f} {m['unit']}")
    return metrics


def measure_end_to_end(runner, seconds: float, setup_times: list, report: dict) -> dict:
    """Rounds for ``seconds``; prints all end-to-end metrics and returns
    the ones every workload measures."""
    rounds = runner.run_for(seconds, MIN_ROUNDS)
    best = fastest_calls(rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        # One round with every call at its fastest over the run.
        "wall_s": sum(best[tuple(call.argv)] for call in runner.calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(workload_metrics(runner.wl, rounds))
    report.update(rounds=len(rounds), round_walls_s=[r["wall"] for r in rounds],
                  round_wall_median_s=statistics.median(r["wall"] for r in rounds),
                  round_cpu_s=[r["cpu"] for r in rounds], end_to_end=values)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END if name in GATED}


def print_end_to_end(workload: str, values: dict) -> None:
    for name, unit, only in END_TO_END:
        if only is None or workload in only:
            extra = f"  ({values['predict_calls']} calls)" if name.startswith("predict_ms") else ""
            print(f"  {name:22s} {values[name]:12.4f} {unit}{extra}")
        else:
            print(f"  {name:22s} {'n/a':>12s} {unit}  (not timed on this workload)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "avq360" / "cli.py").is_file():
        print(f"error: avq360 sources not found under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS, fixed before numpy is first imported here or in
    # the set-up processes (they inherit the environment).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    wdir = WORK / f"{args.workload}-s{args.seed}"
    setup_times = set_up(args, wdir)

    import workloads
    from avq360 import cli

    prov = provenance()
    wl = workloads.workload(args.workload, wdir, args.seed, tiny=args.tiny)
    runner = Runner(wl, cli, workloads)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "setup_runs_s": setup_times}
    print(f"avq360 benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          "closed loop, 1 client")
    if args.trace:
        metrics = measure_traced(runner, args.seconds, report)
    else:
        metrics = measure_end_to_end(runner, args.seconds, setup_times, report)

    facts = final_checks(runner)
    attempted = runner.attempted
    failed = min(len(runner.log.failures), attempted)
    if not args.trace:
        report["end_to_end"]["ops_failed_frac"] = failed / attempted
        print(f"rounds {report['rounds']}, {attempted} CLI calls (fastest of each call; "
              f"median round {report['round_wall_median_s']:.4f} s)")
        print_end_to_end(args.workload, report["end_to_end"])
    for key in ("checkpoint_sha256", "predict_sha256", "final_loss", "metrics_row"):
        if key in facts:
            print(f"  {key}: {facts[key]}")
    print(f"checks: {runner.log.passed} passed, {len(runner.log.failures)} failed"
          + "".join(f"\n  FAILED {f}" for f in runner.log.failures)
          + "".join(f"\n  note: {n}" for n in runner.log.notes))
    print("provenance: " + json.dumps(prov, sort_keys=True))

    report.update(facts={k: v for k, v in facts.items() if k != "summary"},
                  check_failures=runner.log.failures, check_notes=runner.log.notes,
                  checks_passed=runner.log.passed, attempted=attempted, failed=failed)
    results = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    shutil.rmtree(wdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
