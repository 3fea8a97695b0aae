"""The frozen value records built by errors.record: construction, equality, hashing, freezing and repr."""

import re

import pytest

from ecss.combinat import BadPairCount, SpectralRadiusEstimate, TransferMatrix
from ecss.curve import INFINITY, CurveParams, CurvePoint
from ecss.discrepancy import BoundInputs, DiscrepancyReport, PointSet
from ecss.errors import record
from ecss.experiments import ExperimentConfig, SweepRow
from ecss.generator import GeneratorConfig
from ecss.gf2 import BinaryPoly, LfsrSource

CURVE = CurveParams(101, 1, 1)

# Each record, positional arguments for every field that has no default and is an argument, and the
# repr that dataclass(frozen=True) gave it, object addresses dropped.
RECORDS = [
    (CurveParams, (7, 0, 1), "CurveParams(p=7, a=0, b=1)"),
    (CurvePoint, (1, 2), "CurvePoint(x=1, y=2)"),
    (BinaryPoly, (0x13,), "BinaryPoly(mask=19)"),
    (PointSet, ([0.5],), "PointSet()"),
    (DiscrepancyReport, (3, 1, 0.5, "exact"), "DiscrepancyReport(n=3, s=1, value=0.5, method='exact')"),
    (BoundInputs, (1, 7, 2, 3, 1.0), "BoundInputs(n=1, p=7, r=2, tau=3, delta=1.0, s=None)"),
    (SpectralRadiusEstimate, (1.5, 0.0, 3),
     "SpectralRadiusEstimate(value=1.5, residual=0.0, iterations=3, method='power-iteration')"),
    (TransferMatrix, (2, 1), "TransferMatrix(s=2, h=1)"),
    (BadPairCount, (3, 2, 10, (1, 2)), "BadPairCount(r=3, s=2, f=10, per_h=(1, 2))"),
    (SweepRow, (4, 1, 0.1, 0.2, 0.3, 1.0, 2.0, "exact"),
     "SweepRow(n=4, s=1, mean=0.1, median=0.2, q90=0.3, thm_bound=1.0, elma_bound=2.0, method='exact')"),
    (ExperimentConfig, (CURVE, BinaryPoly(0x25), 5, 1, (16, 8), 2, 1.0, 1),
     "ExperimentConfig(curve=CurveParams(p=101, a=1, b=1), poly=BinaryPoly(mask=37), r=5, s=1, n_grid=(8, 16), "
     "samples=2, delta=1.0, seed=1, tau=31)"),
    (GeneratorConfig, (LfsrSource(BinaryPoly(0x7), (1, 0)), (INFINITY, INFINITY), CURVE),
     "GeneratorConfig(source=<ecss.gf2.LfsrSource object>, weights=(CurvePoint(x=None, y=None), "
     "CurvePoint(x=None, y=None)), curve=CurveParams(p=101, a=1, b=1))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_is_listed():
    assert len(RECORDS) == 12 == len(set(IDS))


@pytest.mark.parametrize("cls, args, shown", RECORDS, ids=IDS)
def test_record_contract(cls, args, shown):
    value = cls(*args)
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(value)) == shown
    assert set(vars(value)) == set(cls._fields)
    assert cls(**dict(zip(cls._fields, args))) == value  # keyword construction; ExperimentConfig's tau is last

    # Value equality within the class only: a record class of the same field names and values differs.
    assert value == cls(*args) and not value != cls(*args)
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(cls._fields)}))(**vars(value))
    assert twin == twin.__class__(**vars(value)) and value != twin and twin != value
    if cls is PointSet:
        with pytest.raises(TypeError):  # its numpy rows are unhashable, as under dataclass
            hash(value)
    else:
        assert hash(value) == hash(cls(*args)) == hash(tuple(vars(value)[name] for name in cls._fields))

    for name in (cls._fields[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(value)) == shown

    for bad_call in (lambda: cls(*args[:-1]), lambda: cls(*args, no_such_field=0),
                     lambda: cls(*args, *[0] * len(cls._fields)), lambda: cls(*args, **{cls._fields[0]: args[0]})):
        with pytest.raises(TypeError):
            bad_call()


def test_defaults_and_derived_fields():
    assert SpectralRadiusEstimate(1.5, 0.0, 3).method == "power-iteration"
    assert SpectralRadiusEstimate(1.5, 0.0, 3, "walk-ratio").method == "walk-ratio"
    assert BoundInputs(1, 7, 2, 3, 1.0).s is None and BoundInputs(1, 7, 2, 3, 1.0, s=2).s == 2
    args = RECORDS[IDS.index("ExperimentConfig")][1]
    assert ExperimentConfig(*args).tau == 31
    with pytest.raises(TypeError):
        ExperimentConfig(*args, tau=31)
    with pytest.raises(TypeError):
        ExperimentConfig(*args, 31)


def test_post_init_is_looked_up_on_each_call(monkeypatch):
    # A wrapper set on the class after decoration runs, as the benchmark tracer's spans need.
    seen = []
    original = TransferMatrix.__post_init__
    monkeypatch.setattr(TransferMatrix, "__post_init__", lambda self: seen.append(original(self)))
    TransferMatrix(2, 1)
    assert seen == [None]
