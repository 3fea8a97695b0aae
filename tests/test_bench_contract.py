"""The names the benchmark harness reads from ecss must keep existing.

perfbench/traced_job.py wraps the functions it lists in SPANNED and COUNTED,
and perfbench/checks.py reads the successor table through
combinat._successor_gather; deleting any of them would break `--trace 1` or
the output checks without failing another test.  The harness module is
imported from its file and only read, and traced_job.py is run as a
subprocess on the two character-sum jobs.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecss import combinat, curve

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def traced_job(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # traced_job imports libcall by name
    spec = importlib.util.spec_from_file_location("_traced_job_contract", PERFBENCH / "traced_job.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(traced_job):
    entries = [(owner, attr) for owner, attr, *_ in traced_job.SPANNED + traced_job.COUNTED]
    assert len(entries) == len(traced_job.SPANNED) + len(traced_job.COUNTED) > 0
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in entries
               if attr not in vars(owner) or not callable(vars(owner)[attr])]
    assert missing == []


def test_checker_and_counter_names_exist():
    tm = combinat.transfer_matrix(2, 1)
    pad = combinat._successor_gather(tm)  # checks.beta_bracket gathers a padded iterate through it
    assert pad.shape == (tm.dim, 4) and pad.dtype == np.int64
    x = np.arange(1.0, tm.dim + 1)
    mx = np.delete(combinat._matvec(np.insert(x, tm.forbidden, 0.0), tm.s), tm.forbidden)
    assert np.array_equal(np.append(x, 0.0)[pad].sum(axis=1), mx)
    fields = {f.name for f in dataclasses.fields(combinat.SpectralRadiusEstimate)}
    assert {"iterations", "method"} <= fields
    estimate = combinat.spectral_radius(tm)
    assert isinstance(estimate.iterations, int) and estimate.method == "power-iteration"


@pytest.mark.parametrize("mode, argv, params", [
    ("cli", ["expsum-check", "--curve", "101,1,1", "--all-a", "--c", "0,1"], (101, 1, 1)),
    ("lib", ["--curve", "11,1,1", "--poly", "0x13", "--init", "1000", "--n", "15", "--a", "3"], (11, 1, 1)),
], ids=["expsum-check", "avg_square"])
def test_traced_job_counts_the_summed_points(tmp_path, mode, argv, params):
    """traced_job.py runs both character-sum jobs and counts #E - 1 summed points.

    It reads #E from the points argument when the caller passes one and
    otherwise from an earlier enumerate_points call, so a job that passes
    neither would end in a KeyError.
    """
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(PERFBENCH / "traced_job.py"), "--job", "0", "--spans", str(spans),
                           mode, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(spans.read_text(encoding="utf-8"))["trace"]["counts"]
    assert counts["expsum.points_summed"] == len(curve.point_table(curve.CurveParams(*params))) - 1
