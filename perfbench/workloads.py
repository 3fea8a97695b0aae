"""Workload definitions: the jobs each workload runs and the inputs its seed draws.

The benchmark seed picks config seeds, curves, shift points and character
indices.  It never changes an input size, so two seeds give identical work
counts (``work_counts``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from ecss import curve, experiments, generator, gf2

HERE = Path(__file__).resolve().parent

# What the `ecss` console script runs; jobs start the CLI the same way.
CLI_BOOT = "import sys; from ecss.cli import main; sys.exit(main())"

README_CONFIG = {
    "curve": {"p": 1009, "a": 1, "b": 1},
    "poly_hex": "0x409",
    "r": 10,
    "s": 1,
    "n_grid": [64, 128, 256, 512, 1023],
    "samples": 100,
    "delta": 1.0,
}
# s = 2 at the exact-kernel guard edge: 100^4 = 1e8.
BOXES_CONFIG = {**README_CONFIG, "s": 2, "n_grid": [25, 50, 100], "samples": 10}
# s = 3 at the guard edge: 21^6 < 1e8 < 22^6.  Tuples of 21 points need 23 outputs.
DISC_S = 3
DISC_N = 21

BETA_S = 7
BADPAIRS_R, BADPAIRS_S = 12, 3

# Curves over this prime are drawn as (u^4 a0, u^6 b0): all are isomorphic to
# the base curve, so they share its group order and hence every work count,
# while their x-coordinates (and character sums) differ.
EXPSUM_P, EXPSUM_A0, EXPSUM_B0 = 100003, 1, 1
EXPSUM_SPOT_COUNT = 3

# (#E)^r * N = 14^4 * 15 = 576,240, inside the 1e6 weight-space guard.
AVG_CURVE = (11, 1, 1)
AVG_POLY, AVG_INIT, AVG_N = "0x13", "1000", 15


@dataclass(frozen=True)
class Job:
    """One job kind of a workload: how to start it and what its checker needs."""

    kind: str  # experiment, disc, beta, badpairs, expsum_check, avg_square
    args: tuple[str, ...]  # CLI arguments, or libcall.py arguments for avg_square
    check: dict = field(default_factory=dict, compare=False)

    def argv(self, python: str) -> list[str]:
        if self.kind == "avg_square":
            return [python, str(HERE / "libcall.py"), *self.args]
        return [python, "-c", CLI_BOOT, *self.args]

    def traced_argv(self, python: str, job_id: int, spans: Path) -> list[str]:
        mode = "lib" if self.kind == "avg_square" else "cli"
        return [python, str(HERE / "traced_job.py"), "--job", str(job_id), "--spans", str(spans),
                mode, *self.args]


def _experiment_job(path: Path, base: dict, seed: int) -> Job:
    config = {**base, "seed": seed}
    path.write_text(json.dumps(config) + "\n", encoding="utf-8")
    return Job("experiment", ("experiment", "--config", str(path)), {"config": config})


def _distinct_gen_seed(rng: random.Random) -> int:
    """A seed for `ecss gen` whose 23 outputs are distinct and nonzero.

    Ties would shrink the per-axis candidate count and with it the kernel's
    work, so only tie-free inputs keep the exact-disc work count fixed.
    """
    params = curve.CurveParams(**README_CONFIG["curve"])
    poly = gf2.BinaryPoly.from_hex(README_CONFIG["poly_hex"])
    init = (1,) + (0,) * (poly.degree - 1)
    count = DISC_N + DISC_S - 1
    while True:
        seed = rng.randrange(2**31)
        weights = experiments.sample_weight_vectors(params, poly.degree, 1, seed)[0]
        config = generator.GeneratorConfig(source=gf2.LfsrSource(poly, init), weights=weights,
                                           curve=params)
        values = generator.output_normalized(config, count)
        if len(set(values)) == count and 0.0 not in values:
            return seed


def _sqrt_mod(value: int, p: int) -> int | None:
    """Square root mod a prime p = 3 (mod 4), or None for a non-residue."""
    root = pow(value, (p + 1) // 4, p)
    return root if root * root % p == value else None


def _expsum_inputs(rng: random.Random) -> tuple[tuple[int, int, int], tuple[int, int]]:
    p = EXPSUM_P
    u = rng.randrange(1, p)
    a, b = EXPSUM_A0 * pow(u, 4, p) % p, EXPSUM_B0 * pow(u, 6, p) % p
    while True:
        x = rng.randrange(p)
        rhs = (x * x * x + a * x + b) % p
        y = _sqrt_mod(rhs, p) if rhs else None
        if y is not None:
            return (p, a, b), (x, y if rng.random() < 0.5 else p - y)


def build_jobs(workload: str, seed: int, workdir: Path, runner) -> list[Job]:
    """Draw the workload's inputs from the seed, write them under workdir, return its jobs.

    This is the benchmark's set-up; it is deterministic in (workload, seed).
    runner.run(argv) runs a process to completion and returns its record.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_1d":
        return [_experiment_job(workdir / "sweep.json", README_CONFIG, rng.randrange(2**31))]
    if workload == "exact_boxes":
        jobs = [_experiment_job(workdir / "boxes.json", BOXES_CONFIG, rng.randrange(2**31))]
        gen_seed = _distinct_gen_seed(rng)
        points = workdir / "disc_points.csv"
        c = README_CONFIG["curve"]
        gen = runner.run(
            [runner.python, "-c", CLI_BOOT, "gen", "--curve", f"{c['p']},{c['a']},{c['b']}",
             "--poly", README_CONFIG["poly_hex"], "--n", str(DISC_N + DISC_S - 1),
             "--s", str(DISC_S), "--seed", str(gen_seed), "--output", str(points)])
        if gen["exit"] != 0:
            raise RuntimeError(f"ecss gen exited {gen['exit']} while writing {points}")
        jobs.append(Job("disc", ("disc", "--input", str(points)),
                        {"points": str(points), "gen_seed": gen_seed}))
        return jobs
    if workload == "tables":
        (p, a, b), (x, y) = _expsum_inputs(rng)
        spots = sorted(rng.sample(range(1, p), EXPSUM_SPOT_COUNT))
        avg_a = rng.randrange(1, AVG_CURVE[0])
        return [
            Job("beta", ("beta", "--s", str(BETA_S))),
            Job("badpairs", ("badpairs", "--r", str(BADPAIRS_R), "--s", str(BADPAIRS_S))),
            Job("expsum_check", ("expsum-check", "--curve", f"{p},{a},{b}", "--all-a",
                                 "--c", f"{x},{y}"),
                {"curve": (p, a, b), "c": (x, y), "spots": spots}),
            Job("avg_square", ("--curve", ",".join(map(str, AVG_CURVE)), "--poly", AVG_POLY,
                               "--init", AVG_INIT, "--n", str(AVG_N), "--a", str(avg_a)),
                {"a": avg_a}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep_1d", "exact_boxes", "tables")


def _boxes(candidates: list[int]) -> int:
    """Candidate boxes of the exact scan: C(c+1, 2) per outer axis, c on the last."""
    *outer, last = candidates
    return math.prod(c * (c + 1) // 2 for c in outer) * last


def _experiment_counts(config: dict, orders: dict) -> dict:
    c = config["curve"]
    s, grid, samples = config["s"], config["n_grid"], config["samples"]
    return {
        "p": c["p"], "r": config["r"], "s": s, "N": grid, "samples": samples,
        "order": orders[(c["p"], c["a"], c["b"])],
        "outputs": samples * (max(grid) + s - 1),
        # Upper count, reached when no two coordinates tie.
        "candidate_boxes": samples * sum(_boxes([n + 2] * s) for n in grid),
    }


def work_counts(jobs: list[Job], orders: dict) -> dict:
    """Input sizes and work counts per job kind; a function of sizes only, not of the seed.

    ``orders`` maps (p, a, b) to the curve's group order #E.
    """
    counts = {}
    for job in jobs:
        if job.kind == "experiment":
            counts[job.kind] = _experiment_counts(job.check["config"], orders)
        elif job.kind == "disc":
            counts[job.kind] = {"N": DISC_N, "s": DISC_S,
                                "candidate_boxes": _boxes([DISC_N + 2] * DISC_S)}
        elif job.kind == "beta":
            counts[job.kind] = {"s": BETA_S, "transfer_dim": 4**BETA_S - 1,
                                "transfer_matrices": 2 * BETA_S}
        elif job.kind == "badpairs":
            counts[job.kind] = {"r": BADPAIRS_R, "s": BADPAIRS_S, "pairs": 4**BADPAIRS_R,
                                "pair_scans": 1 + BADPAIRS_S}
        elif job.kind == "expsum_check":
            p = job.check["curve"][0]
            counts[job.kind] = {"p": p, "order": orders[tuple(job.check["curve"])],
                                "rows": p - 1}
        elif job.kind == "avg_square":
            p, order, r = AVG_CURVE[0], orders[AVG_CURVE], len(AVG_INIT)
            counts[job.kind] = {"p": p, "order": order, "r": r, "N": AVG_N,
                                "weight_vectors": order**r, "work": order**r * AVG_N}
    return counts


def curves_used(jobs: list[Job]) -> set[tuple[int, int, int]]:
    """Every curve (p, a, b) whose group order the work counts need."""
    keys = set()
    for job in jobs:
        if job.kind == "experiment":
            c = job.check["config"]["curve"]
            keys.add((c["p"], c["a"], c["b"]))
        elif job.kind == "expsum_check":
            keys.add(tuple(job.check["curve"]))
        elif job.kind == "avg_square":
            keys.add(AVG_CURVE)
    return keys
