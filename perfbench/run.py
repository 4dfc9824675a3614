"""Pipeline benchmark for cricpred: three workloads on a seeded synthetic
league, driven in-process through ``cricpred.cli.main``.

    python3 perfbench/run.py --workload select_fit_report --seed 1 \\
        --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``select_fit_report``: ``train --kind all --mode per_match
  --target-count 3 --holdout-season <last>``, then ``report`` on each of
  the six documents.
* ``cv_sweep``: ``cv --k 5 --mode per_season`` for each of the six kinds.
* ``toss_predict``: set-up trains the six documents on all but the last
  season; then one client in a closed loop makes 1002 ``predict`` calls,
  round-robin over the documents.

One pass of the workload's job is repeated until ``--seconds`` have passed
and at least MIN_PASSES passes are done, so every timed figure is a median
over passes. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the CLI's layers are wrapped from
outside the package (perfbench/layers.py) and the line carries the
per-layer metrics instead. A fuller record, with the environment stamp,
digests and (traced) spans, goes to perfbench/results/.

The program is imported from ``src/`` of the checkout holding this file;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Compile everything from source on every import, so the first run in a
# fresh checkout costs the same as later ones and leaves no bytecode behind.
sys.dont_write_bytecode = True

import layers  # noqa: E402
import league  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"

WORKLOADS = ("select_fit_report", "cv_sweep", "toss_predict")
KINDS = layers.KINDS
# Set-up repeats until both are reached: a league alone takes about 0.1 s,
# so a burst of host slowness would swing the median of a few such samples;
# with training (toss_predict) one repeat takes 4-10 s, and two keep the 70
# runs of a ten-seed comparison of two commits within the hour.
SETUP_REPEATS = 2
SETUP_MIN_S = 1.0
PREDICT_CALLS = 1002  # 167 rounds over the six documents
CV_FOLDS = 5  # the paper uses 10; see README.md for why 5
# A cv_sweep pass is longer than a run's measuring time, and a shared
# host slows for seconds at a time: a single pass per run left the slowest
# call's spread at the bound, two halve that noise's variance.
MIN_PASSES = 2

clock = time.perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def digests(directory):
    """Relative path -> sha256 for every file under ``directory``."""
    directory = Path(directory)
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def league_args(league_dir):
    return ["--matches", str(league_dir / "matches.csv"),
            "--players", str(league_dir / "players.csv")]


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark process: its operations, checks and outputs."""

    def __init__(self, work):
        self.work = work
        self.latencies = []      # seconds per timed CLI call
        self.attempted = 0
        self.failed = 0
        self.problems = []       # failed checks and operations, one line each
        self.cli = None

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def call(self, argv, timed=True):
        """One in-process CLI call; returns its stdout, or None on failure."""
        out = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            code = traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = clock() - start
        if timed:
            self.attempted += 1
            self.latencies.append(elapsed)
        if code != 0:
            if timed:
                self.failed += 1
            self.problems.append(f"{argv[0]} returned {code!r}: {' '.join(argv)}")
            return None
        return out.getvalue()


def purge_cricpred():
    for name in [n for n in sys.modules if n.split(".")[0] == "cricpred"]:
        del sys.modules[name]


def set_up(run, workload, seed):
    """Import the program, write the league and, for toss_predict, train
    the six documents, at least SETUP_REPEATS times and for SETUP_MIN_S.
    Returns the seconds of each repeat, the last repeat's directory and the
    digests of its files."""
    times, fingerprints = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        base = run.work / f"setup{len(times)}"
        purge_cricpred()
        start = clock()
        run.cli = importlib.import_module("cricpred.cli")
        league.write_league(seed, base / "league")
        if workload == "toss_predict":
            run.call(["train", *league_args(base / "league"), "--kind", "all",
                      "--holdout-season", str(league.LAST_SEASON),
                      "--out-dir", str(base / "models")], timed=False)
        times.append(clock() - start)
        fingerprints.append(digests(base))
    run.check(all(f == fingerprints[0] for f in fingerprints),
              "set-up repeats wrote different files")
    return times, base, fingerprints[-1]


def holdout_accuracy(run, league_dir, models_dir, out_dir, timed=True):
    """Run ``report`` on the six documents; kind -> holdout accuracy."""
    accuracy = {}
    for kind in KINDS:
        report_dir = out_dir / f"report_{kind}"
        if run.call(["report", *league_args(league_dir),
                     "--model", str(models_dir / f"model_{kind}.json"),
                     "--holdout-season", str(league.LAST_SEASON),
                     "--out-dir", str(report_dir)], timed) is not None:
            accuracy[kind] = read_accuracy(report_dir / "holdout_report.csv")
    return accuracy


def read_accuracy(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition(",")
            if key == "accuracy":
                return float(value)
    raise ValueError(f"{path} has no accuracy row")


def pass_select_fit_report(run, setup_dir, out):
    run.call(["train", *league_args(setup_dir / "league"), "--kind", "all",
              "--mode", "per_match", "--target-count", "3",
              "--holdout-season", str(league.LAST_SEASON),
              "--out-dir", str(out / "models")])
    return holdout_accuracy(run, setup_dir / "league", out / "models", out)


def pass_cv_sweep(run, setup_dir, out):
    accuracy = {}
    for kind in KINDS:
        if run.call(["cv", *league_args(setup_dir / "league"), "--kind", kind,
                     "--k", str(CV_FOLDS), "--mode", "per_season",
                     "--out-dir", str(out)]) is not None:
            accuracy[kind] = read_accuracy(out / f"cv_report_{kind}.csv")
    return accuracy


def pass_toss_predict(run, queries, setup_dir):
    """Closed loop, one client: each call loads its document as a CLI user's
    does. Returns the answers as (kind, query, stdout) triples."""
    answers = []
    for i, q in enumerate(queries):
        kind = KINDS[i % len(KINDS)]
        text = run.call(["predict", "--model",
                         str(setup_dir / "models" / f"model_{kind}.json"),
                         "--home", q["home"], "--away", q["away"],
                         "--venue", q["venue"], "--toss-winner", q["toss_winner"],
                         "--toss-decision", q["toss_decision"]])
        answers.append((kind, q, text))
    return answers


def check_predictions(run, setup_dir, answers):
    """Each answer must equal predict_proba_matrix of the same document on
    the same encode_values row (winner, and probability to 4 dp)."""
    from cricpred.features import encode_values
    from cricpred.models.base import load_document

    documents = {k: load_document(setup_dir / "models" / f"model_{k}.json")
                 for k in KINDS}
    for kind, q, text in answers:
        if text is None:
            continue
        doc = documents[kind]
        latest = {}
        for team, _, _, weight in doc.ledger.rows():
            latest[team] = weight
        row = encode_values(
            doc.model.schema,
            {"home_team": q["home"], "away_team": q["away"],
             "toss_winner": q["toss_winner"],
             "toss_decision": q["toss_decision"], "venue": q["venue"]},
            {"home_team_weight": latest[q["home"]],
             "away_team_weight": latest[q["away"]]})
        p_home = float(doc.model.predict_proba_matrix(row)[0])
        winner = q["home"] if p_home >= 0.5 else q["away"]
        expected = [f"predicted winner: {winner}",
                    f"home win probability: {p_home:.4f}"]
        if not run.check(text.splitlines()[:2] == expected,
                         f"predict {kind} {q}: got {text.splitlines()[:2]}, "
                         f"expected {expected}"):
            return


def check_digest_ledger(run, workload, seed, files):
    """Repeats with the same seed in this checkout must write identical
    files: the first run records the digests, later runs compare."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"digests-{workload}-seed{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        run.check(recorded == files,
                  f"outputs differ from an earlier run with seed {seed}: "
                  f"{sorted(k for k in set(recorded) | set(files) if recorded.get(k) != files.get(k))}")
    else:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(files, indent=1, sort_keys=True))
        os.replace(tmp, path)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment(seed, numpy_version):
    kernels = importlib.import_module("cricpred.kernels")
    return {
        "kernels_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cricpred" / "__init__.py").is_file():
        print(f"perfbench: no cricpred source at {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller chose otherwise: the workloads have
    # one driving thread and the matrices are small.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    start = clock()
    import numpy
    numpy_s = clock() - start

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work, numpy_s, numpy.__version__)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, numpy_s, numpy_version):
    run = Run(work)
    setup_times, setup_dir, setup_files = set_up(run, args.workload, args.seed)
    cricpred = sys.modules["cricpred"]
    if not Path(cricpred.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported cricpred from {cricpred.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    accuracy = {}
    if args.workload == "toss_predict":
        # quality of the served documents on the held-out season, untimed
        accuracy = holdout_accuracy(run, setup_dir / "league",
                                    setup_dir / "models", work / "served",
                                    timed=False)
        queries = league.toss_queries(args.seed, PREDICT_CALLS)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)

    pass_times, pass_p99, pass_files, answers = [], [], [], []
    timed_start = clock()
    while len(pass_times) < MIN_PASSES or clock() - timed_start < args.seconds:
        out = work / f"pass{len(pass_times)}"
        out.mkdir()
        first_call = len(run.latencies)
        start = clock()
        if args.workload == "select_fit_report":
            accuracy = pass_select_fit_report(run, setup_dir, out)
        elif args.workload == "cv_sweep":
            accuracy = pass_cv_sweep(run, setup_dir, out)
        else:
            answers = pass_toss_predict(run, queries, setup_dir)
        pass_times.append(clock() - start)
        pass_p99.append(percentile(run.latencies[first_call:], 99))
        pass_files.append(digests(out))
    timed_wall = clock() - timed_start

    # 0 only when a report failed, which also fails the run
    mean_accuracy = statistics.fmean(accuracy.values()) if accuracy else 0.0
    if tracer is not None:
        metrics = {**layers.per_layer_metrics(tracer, timed_wall, len(pass_times),
                                              layers.wrapper_cost()),
                   "cli.call_p50_ms": 1e3 * statistics.median(run.latencies),
                   "ops_failed_frac": run.failed / run.attempted,
                   "accuracy": mean_accuracy}
        units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(pass_times),
            "setup_s": numpy_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "call_p99_ms": 1e3 * statistics.median(pass_p99),
            "calls_per_s": len(run.latencies) / sum(pass_times),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "call_p99_ms": "ms", "calls_per_s": "1/s"}

    # correctness checks, outside the timed region
    run.check(len(accuracy) == len(KINDS), "an accuracy is missing")
    run.check(all(f == pass_files[0] for f in pass_files),
              "passes of one run wrote different files")
    if args.workload == "toss_predict":
        check_predictions(run, setup_dir, answers)
    files = {**{f"setup/{k}": v for k, v in setup_files.items()},
             **{f"pass/{k}": v for k, v in pass_files[0].items()}}
    if args.workload == "toss_predict":
        files.update({f"served/{k}": v
                      for k, v in digests(work / "served").items()})
    check_digest_ledger(run, args.workload, args.seed, files)

    detail = {
        "workload": args.workload,
        "environment": environment(args.seed, numpy_version),
        "trace": args.trace,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "pass_call_p99_s": pass_p99,
        "setup_repeat_s": setup_times,
        "numpy_import_s": numpy_s,
        "timed_calls": len(run.latencies),
        "call_p50_ms": 1e3 * statistics.median(run.latencies),
        "accuracy": mean_accuracy,
        "accuracy_by_kind": accuracy,
        "problems": run.problems[:20],
        "digests": files,
    }
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {**detail, "result": result}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["span_totals"] = tracer.totals
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({k: v for k, v in detail.items() if k != "digests"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
