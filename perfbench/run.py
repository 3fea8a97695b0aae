"""ecss benchmark: time to solution of the paper-reproduction jobs, checked, per workload.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all          # every workload, every metric
  python3 perfbench/run.py --self-test             # checker and work-count self-test
  python3 perfbench/run.py --pin                   # rewrite pinned.json (default seed)

Run from the repository root; the program is imported from ./src.  Each job
is a fresh Python process, started one at a time from this script, with
BLAS/OpenMP threads pinned to 1.  With --trace 0 the last stdout line is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced jobs.  A full report
(samples, work counts, provenance) is written under perfbench/out/.
See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)  # before numpy is imported, here and in every job

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5  # at least; set-up also repeats after every round
MIN_SAMPLES = 3  # per job kind, even when a run's seconds are used up
JOB_TIMEOUT_S = 60

# job_time_rel is the gated time to solution: host speed drifts by 20% and
# more between runs here, and the ratio to the calibration job cancels most of
# it.  The raw seconds (job_s and each kind's median) are reported beside it.
END_TO_END = [("job_time_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

MODULES = ("gf2", "curve", "generator", "discrepancy", "combinat", "expsum", "experiments", "cli")
# Per-layer metrics: (name, unit, source).  A source "span:NAME" is the self
# time of spans called NAME; "count:NAME" a counter from the traced job.
PER_LAYER = [
    ("gf2.bits_s", "s", "span:gf2.bits"),
    ("gf2.bits", "count", "count:gf2.bits"),
    ("gf2.validate_s", "s", "span:gf2.validate"),
    ("curve.enumerate_s", "s", "span:curve.enumerate"),
    ("curve.enumerate_calls", "count", "count:curve.enumerate_calls"),
    ("curve.adds", "count", "count:curve.adds"),
    ("curve.x_coords", "count", "count:curve.x_coords"),
    ("generator.stream_s", "s", "span:generator.stream"),
    ("generator.normalize_s", "s", "span:generator.normalize"),
    ("generator.tuples_s", "s", "span:generator.tuples"),
    ("generator.config_s", "s", "span:generator.config"),
    ("generator.outputs", "count", "count:generator.outputs"),
    ("generator.configs", "count", "count:generator.configs"),
    ("discrepancy.exact_1d_s", "s", "span:discrepancy.exact_1d"),
    ("discrepancy.exact_2d_s", "s", "span:discrepancy.exact_2d"),
    ("discrepancy.exact_3d_s", "s", "span:discrepancy.exact_3d"),
    ("discrepancy.exact_calls", "count", "count:discrepancy.exact_calls"),
    ("discrepancy.candidate_boxes", "count", "count:discrepancy.candidate_boxes"),
    ("discrepancy.mc_share", "ratio", None),
    ("combinat.transfer_build_s", "s", "span:combinat.transfer_build"),
    ("combinat.transfer_builds", "count", "count:combinat.transfer_builds"),
    ("combinat.spectral_s", "s", "span:combinat.spectral"),
    ("combinat.spectral_calls", "count", "count:combinat.spectral_calls"),
    ("combinat.power_iterations", "count", "count:combinat.power_iterations"),
    ("combinat.fallbacks", "count", "count:combinat.fallbacks"),
    ("combinat.bruteforce_s", "s", "span:combinat.bruteforce"),
    ("combinat.pairs", "count", "count:combinat.pairs"),
    ("expsum.char_sums_s", "s", "span:expsum.char_sums"),
    ("expsum.points_summed", "count", "count:expsum.points_summed"),
    ("expsum.avg_square_s", "s", "span:expsum.avg_square"),
    ("expsum.weight_vectors", "count", "count:expsum.weight_vectors"),
    ("experiments.config_s", "s", "span:experiments.config"),
    ("experiments.weights_s", "s", "span:experiments.weights"),
    ("experiments.sweep_self_s", "s", "span:experiments.sweep"),
    ("experiments.samples", "count", "count:experiments.samples"),
    ("cli.startup_s", "s", "count:cli.startup_s"),
    ("cli.self_s", "s", "span:cli.main"),
    ("cli.output_bytes", "bytes", "count:cli.output_bytes"),
    *[(f"{module}.share", "ratio", None) for module in MODULES],
    ("trace.overhead_s", "s", None),
    ("trace.spans", "count", "count:trace.spans"),
]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_ENV)


class Runner:
    """Starts job processes one at a time and reaps them with their resource usage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.python = sys.executable
        self.count = 0

    def run(self, argv: list[str]) -> dict:
        """Run argv to completion; stdout goes to a file.  Returns the job record."""
        self.count += 1
        out = self.workdir / f"job{self.count}.out"
        with open(out, "wb") as stdout, open(self.workdir / f"job{self.count}.err", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
                                    env=self.env, cwd=ROOT)
            # A job that overruns is killed; wait4 then reaps it as signalled.
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return {"id": self.count, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0, "exit": code, "out": str(out)}


def _median(values):
    return statistics.median(values) if values else float("nan")


def set_up(workload: str, seed: int, runner: Runner, workloads):
    """One set-up: draw and write the inputs into a fresh directory, then warm up imports.

    Returns the jobs and the set-up time.
    """
    setup_dir = runner.workdir / f"setup{runner.count}"
    setup_dir.mkdir()
    start = time.perf_counter()
    jobs = workloads.build_jobs(workload, seed, setup_dir, runner)
    warm = runner.run([runner.python, "-c", "import ecss"])
    elapsed = time.perf_counter() - start
    if warm["exit"] != 0:
        raise RuntimeError("warm-up import of ecss failed")
    return jobs, elapsed


def timed_phase(workload: str, seed: int, seconds: float, runner: Runner, traced: bool, workloads):
    """Set up, then cycle through the job kinds until the time is up and each kind has its minimum.

    In an untraced run the calibration job runs before the first job and
    after every job, and each job's record gets ref_s, the mean of the two
    calibration times that bracket it.  Set-up is repeated after every round
    (and at the end, up to SETUP_REPEATS), so its median samples the whole
    run.  A traced run follows each traced job with an untraced one of the
    same kind, so the tracing overhead is measured on the same inputs in the
    same period.

    Returns the jobs, their records, the set-up times and the phase's length.
    """
    jobs, setup = set_up(workload, seed, runner, workloads)
    setup_times = [setup]
    records = []
    start = time.perf_counter()
    done = {job.kind: 0 for job in jobs}
    calibration = None if traced else calibrate(runner)
    turn = 0
    while time.perf_counter() - start < seconds or min(done.values()) < MIN_SAMPLES:
        job = jobs[turn % len(jobs)]
        turn += 1
        if traced:
            spans = runner.workdir / f"spans{runner.count + 1}.json"
            record = runner.run(job.traced_argv(runner.python, runner.count + 1, spans))
            records.append({**record, "kind": job.kind, "traced": True, "spans": str(spans)})
        record = {**runner.run(job.argv(runner.python)), "kind": job.kind, "traced": False}
        if not traced:
            after = calibrate(runner)
            record["ref_s"] = (calibration + after) / 2
            calibration = after
        records.append(record)
        done[job.kind] += 1
        if not traced and turn % len(jobs) == 0:
            setup_times.append(set_up(workload, seed, runner, workloads)[1])
    elapsed = time.perf_counter() - start
    while not traced and len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(workload, seed, runner, workloads)[1])
    return jobs, records, setup_times, elapsed


def calibrate(runner: Runner) -> float:
    """Wall time of one run of the fixed calibration job."""
    record = runner.run([runner.python, str(HERE / "calibrate.py")])
    if record["exit"] != 0:
        raise RuntimeError("the calibration job failed")
    return record["wall_s"]


def judge(records, jobs, checker, checks):
    """Mark each record ok or failed: non-zero exit, unparseable or wrong output."""
    by_kind = {job.kind: job for job in jobs}
    for record in records:
        record["ok"], record["error"] = False, None
        if record["exit"] != 0:
            stderr = Path(record["out"]).with_suffix(".err").read_text(errors="replace").strip()
            record["error"] = f"exit {record['exit']}: {stderr.splitlines()[-1] if stderr else ''}"
            continue
        try:
            text = Path(record["out"]).read_text(encoding="utf-8")
            checker.check(by_kind[record["kind"]], text)
        except (checks.CheckError, UnicodeDecodeError) as exc:
            record["error"] = str(exc)
            continue
        record["ok"] = True


def checker_catches_corruption(records, jobs, checker, checks) -> dict:
    """Feed the checker a corrupted copy of one good output per kind; it must reject each."""
    caught = {}
    by_kind = {job.kind: job for job in jobs}
    for kind, job in by_kind.items():
        good = next((r for r in records if r["kind"] == kind and r["ok"] and not r["traced"]), None)
        if good is None:
            caught[kind] = False
            continue
        bad = checks.corrupt(kind, Path(good["out"]).read_text(encoding="utf-8"))
        try:
            checker.check(job, bad)
            caught[kind] = False
        except checks.CheckError:
            caught[kind] = True
    return caught


def pin_status(workload, seed, records, jobs, checks) -> dict:
    """For the default seed, compare one good output per kind with the pinned one."""
    if seed != DEFAULT_SEED:
        return {}
    pins = checks.load_pins().get(workload, {})
    status = {}
    for job in jobs:
        good = next((r for r in records if r["kind"] == job.kind and r["ok"]), None)
        if good is None or job.kind not in pins:
            status[job.kind] = False
            continue
        parsed = checks.parse(job.kind, Path(good["out"]).read_text(encoding="utf-8"))
        status[job.kind] = checks.same(pins[job.kind], checks.digest(job.kind, parsed))
    return status


def kind_stats(records, kinds) -> dict:
    """Per job kind, over the untraced jobs that passed: median time to solution and
    median ratio of each job's time to the calibration job run right after it."""
    stats = {}
    for kind in kinds:
        done = [r for r in records if r["kind"] == kind and not r["traced"] and r["ok"]]
        walls = sorted(r["wall_s"] for r in done)
        stats[kind] = {"n": len(walls), "median_s": _median(walls),
                       "min_s": walls[0] if walls else None, "max_s": walls[-1] if walls else None,
                       "median_rel": _median([r["wall_s"] / r["ref_s"] for r in done if "ref_s" in r])}
    return stats


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(records, kinds, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics, and per-kind statistics."""
    stats = kind_stats(records, kinds)
    metrics = {
        "job_time_rel": geometric_mean([stats[k]["median_rel"] for k in kinds]),
        "setup_s": _median(setup_times),
        "peak_rss_mib": max(r["rss_mib"] for r in records),
    }
    return metrics, stats


def _self_times(trace: dict) -> dict:
    """Self time per span name: duration minus direct children's time and hook time."""
    spans = trace["spans"]
    covered = [0] * len(spans)
    for name, start, end, parent, job, hook in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, parent, job, hook) in enumerate(spans):
        label = trace["names"][name]
        out[label] = out.get(label, 0.0) + (end - start - covered[i] - hook) / 1e9
    return out


def traced_job_metrics(record) -> dict:
    """Per-layer values of one traced job, from its span file and its process record."""
    with open(record["spans"], encoding="utf-8") as handle:
        payload = json.load(handle)
    trace, marks = payload["trace"], payload["trace"]["marks"]
    values = {f"span:{name}": t for name, t in _self_times(trace).items()}
    values.update({f"count:{name}": float(v) for name, v in trace["counts"].items()})
    instrumentation = (marks["install_end"] - marks["install_start"]
                       + payload["dump_end"] - marks["dump_start"])
    values["count:cli.startup_s"] = (record["wall_s"]
                                     - (marks["main_end"] - marks["main_start"] + instrumentation) / 1e9)
    values["count:cli.output_bytes"] = float(os.path.getsize(record["out"]))
    values["count:trace.spans"] = float(len(trace["spans"]))
    values["wall_s"] = record["wall_s"]
    return values


def per_layer(records, kinds) -> tuple[dict, dict]:
    """Per-layer metrics for one round (one job of each kind): sums of per-kind medians."""
    per_kind = {}
    for kind in kinds:
        jobs = [traced_job_metrics(r) for r in records if r["kind"] == kind and r["traced"] and r["ok"]]
        keys = set().union(*jobs) if jobs else set()
        per_kind[kind] = {key: _median([job.get(key, 0.0) for job in jobs]) for key in keys}
        per_kind[kind]["untraced_wall_s"] = _median(
            [r["wall_s"] for r in records if r["kind"] == kind and not r["traced"] and r["ok"]])

    def total(key):
        return sum(per_kind[kind].get(key, 0.0) for kind in kinds)

    metrics = {}
    for name, _, source in PER_LAYER:
        if source is not None:
            metrics[name] = total(source)
    exact, mc = total("count:discrepancy.exact_calls"), total("count:discrepancy.mc_calls")
    metrics["discrepancy.mc_share"] = mc / (exact + mc) if exact + mc else 0.0
    wall = total("wall_s")
    spans = {key for kind in kinds for key in per_kind[kind] if key.startswith("span:")}
    for module in MODULES:
        own = sum(total(key) for key in spans if key.startswith(f"span:{module}."))
        if module == "cli":
            own += total("count:cli.startup_s")
        metrics[f"{module}.share"] = own / wall if wall else 0.0
    metrics["trace.overhead_s"] = wall - total("untraced_wall_s")
    return {name: metrics[name] for name, *_ in PER_LAYER}, per_kind


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read from files (the checkout may not be a repo)."""
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


def provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ecss").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "platform": platform.platform(), "seed": seed,
        "thread_env": THREAD_ENV, "job_timeout_s": JOB_TIMEOUT_S,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads

    workdir = OUT / f"tmp-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir)
        jobs, records, setup_times, elapsed = timed_phase(workload, seed, seconds, runner, trace,
                                                          workloads)
        kinds = [job.kind for job in jobs]
        checker = checks.Checker()
        judge(records, jobs, checker, checks)
        caught = checker_catches_corruption(records, jobs, checker, checks)
        pinned = pin_status(workload, seed, records, jobs, checks)
        orders = {key: len(checker.points(key)) for key in workloads.curves_used(jobs)}
        failed = sum(not r["ok"] for r in records)
        if trace:
            metrics, detail = per_layer(records, kinds)
            stats = None
        else:
            metrics, stats = end_to_end(records, kinds, setup_times)
            detail = None
        correct = failed == 0 and all(caught.values()) and all(pinned.values())
        return {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "correct": correct, "attempted": len(records), "failed": failed,
            "metrics": metrics, "kinds": stats, "per_kind": detail,
            "setup_s": setup_times, "timed_phase_s": elapsed,
            "checker_catches_corruption": caught, "pinned_match": pinned,
            "work_counts": workloads.work_counts(jobs, orders),
            "inputs": {job.kind: {"args": list(job.args)} for job in jobs},
            "errors": [{"kind": r["kind"], "id": r["id"], "error": r["error"]}
                       for r in records if not r["ok"]],
            "jobs": [{k: r[k] for k in ("id", "kind", "traced", "wall_s", "ref_s", "cpu_s",
                                        "rss_mib", "exit", "ok") if k in r}
                     for r in records],
            "provenance": provenance(seed),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def units(trace: bool) -> dict:
    return {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}


def print_summary(result: dict) -> None:
    unit = units(bool(result["trace"]))
    print(f"ecss benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    stats = result["kinds"] or {}
    if stats:
        job_s = geometric_mean([stat["median_s"] for stat in stats.values()])
        print(f"  {'job_s':18s} {job_s:.4f} s  geometric mean of the kinds' medians")
    for kind, stat in stats.items():
        print(f"  {kind + '_s':18s} {stat['median_s']:.4f} s  median of {stat['n']} "
              f"(min {stat['min_s']:.4f}, max {stat['max_s']:.4f}; "
              f"{stat['median_rel']:.4f} x calibration job)")
    for name, value in result["metrics"].items():
        print(f"  {name:30s} {value:.6g} {unit[name]}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']}; "
          f"checker catches corruption: {result['checker_catches_corruption']}; "
          f"pinned outputs match: {result['pinned_match'] or 'n/a (not the default seed)'}")
    for error in result["errors"][:5]:
        print(f"  FAILED {error['kind']} job {error['id']}: {error['error']}")


def result_line(result: dict, prefix: str = "") -> dict:
    unit = units(bool(result["trace"]))
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {prefix + name: {"value": value, "unit": unit[name]}
                        for name, value in result["metrics"].items()}}


def write_report(result: dict) -> Path:
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def self_test() -> int:
    """The checker accepts real outputs and rejects corrupted ones and failed exits;
    two seeds give identical work counts."""
    import checks
    import workloads

    workdir = OUT / f"tmp-selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    problems = []
    try:
        runner = Runner(workdir)
        checker = checks.Checker()
        for workload in workloads.WORKLOADS:
            counts = []
            for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
                seed_dir = workdir / f"{workload}-{seed}"
                seed_dir.mkdir()
                jobs = workloads.build_jobs(workload, seed, seed_dir, runner)
                orders = {key: len(checker.points(key)) for key in workloads.curves_used(jobs)}
                counts.append(workloads.work_counts(jobs, orders))
            if counts[0] != counts[1]:
                problems.append(f"{workload}: work counts differ between seeds")
            records = [{**runner.run(job.argv(runner.python)), "kind": job.kind, "traced": False}
                       for job in jobs]
            judge(records, jobs, checker, checks)
            problems += [f"{workload}/{r['kind']}: real output rejected: {r['error']}"
                         for r in records if not r["ok"]]
            caught = checker_catches_corruption(records, jobs, checker, checks)
            problems += [f"{workload}/{kind}: corrupted output accepted"
                         for kind, ok in caught.items() if not ok]
        bad = workloads.Job("badpairs", ("badpairs", "--r", "12", "--s", "0"))
        record = {**runner.run(bad.argv(runner.python)), "kind": "badpairs", "traced": False}
        judge([record], [bad], checker, checks)
        if record["ok"] or record["exit"] == 0:
            problems.append("a job exiting non-zero was not counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def pin() -> int:
    """Write the digests of the default-seed outputs to pinned.json."""
    import checks
    import workloads

    workdir = OUT / f"tmp-pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    pins = {}
    try:
        runner = Runner(workdir)
        checker = checks.Checker()
        for workload in workloads.WORKLOADS:
            jobs = workloads.build_jobs(workload, DEFAULT_SEED, workdir, runner)
            pins[workload] = {}
            for job in jobs:
                record = runner.run(job.argv(runner.python))
                if record["exit"] != 0:
                    raise RuntimeError(f"{workload}/{job.kind} exited {record['exit']}")
                parsed = checker.check(job, Path(record["out"]).read_text(encoding="utf-8"))
                pins[workload][job.kind] = checks.digest(job.kind, parsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.PINNED.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.PINNED.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "ecss" / "__init__.py").is_file():
        print(f"error: no ecss sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ecss

    if Path(ecss.__file__).resolve().parent != SRC / "ecss":
        print(f"error: imported ecss from {ecss.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.pin:
        return pin()

    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(result)
        print(f"  report: {write_report(result).relative_to(ROOT)}")
        results.append(result)
    if len(results) == 1:
        line = result_line(results[0])
    else:
        parts = [result_line(r, f"{r['workload']}.") for r in results]
        line = {"correct": all(p["correct"] for p in parts),
                "attempted": sum(p["attempted"] for p in parts),
                "failed": sum(p["failed"] for p in parts),
                "metrics": {k: v for p in parts for k, v in p["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
