"""The names the benchmark harness reads from ecss must keep existing.

perfbench/traced_job.py wraps the functions it lists in SPANNED and COUNTED,
and perfbench/checks.py reads the successor table through
combinat._successor_gather; deleting any of them would break `--trace 1` or
the output checks without failing another test.  The harness module is
imported from its file and only read.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from ecss import combinat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    assert combinat._successor_gather(tm) is tm.gather
    fields = {f.name for f in dataclasses.fields(combinat.SpectralRadiusEstimate)}
    assert {"iterations", "method"} <= fields
    estimate = combinat.spectral_radius(tm)
    assert isinstance(estimate.iterations, int) and estimate.method == "power-iteration"
