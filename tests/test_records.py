"""The frozen record types: construction, equality, hashing, repr and
immutability, as ``records.Record`` promises them."""

import numpy as np
import pytest

from satotate import charts, coeffs, counting, measures, primes, region, symmetry
from satotate.bipoly import Poly2
from satotate.records import Record


def _samples():
    """(record type, field values) for every frozen record type."""
    approx = region.classify_boxes(region.disk(), 4)
    row = (100, 25, 10, 14, 1, 0.4, 0.5, 0.9)
    return [
        (primes.PrimeSieve, (7, np.array([2, 3, 5, 7]))),
        (coeffs.NewformDescriptor, ("5.4.a.a", 4, 5, ((1, 4), (5, 4)))),
        (measures.Interval, (-1.0, 1.0, True, False)),
        (measures.MeasureValue, (0.5, 0.25)),
        (region.Constraint, (Poly2({(1, 0): 1, (0, 1): -1}), ">")),
        (region.GridLines, approx.grid._values()),
        (region.GridApproximation, approx._values()),
        (region.StripMerge, region.strip_merge(approx)._values()),
        (region.ErrorEnvelope, ("Unconditional12", 4, 6, 5, 6, 10.0, 5, 4)),
        (symmetry.SquareSymmetry, (1, -1, True)),
        (counting.CheckpointRow, row),
        (counting.DensityReport, ((counting.CheckpointRow(*row),),)),
        (counting.FirstSignChange, (2, 100, "AllPrimes", ())),
        (charts.Series, ("(1,1)", (0.5, 0.25), 0.5)),
    ]


@pytest.mark.parametrize("cls, values", [pytest.param(*s, id=s[0].__name__) for s in _samples()])
def test_a_record_is_a_frozen_value(cls, values):
    fields = cls._fields
    assert len(fields) == len(values)
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a == b and not a != b
    if not any(isinstance(v, np.ndarray) for v in a._values()):  # an array is unhashable
        assert hash(a) == hash(b)
    # another type with the same fields is another value
    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields)})(*values)
    assert a != twin and twin != a
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    text = repr(a)
    assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
    for name in fields:
        assert (f"{name}=" in text) == (name not in cls._hidden), name
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):  # a field given twice
        cls(*values, **{fields[0]: values[0]})


def test_a_field_default_fills_a_missing_value():
    assert measures.Interval(0, 1) == measures.Interval(0, 1, True, True)
    assert measures.MeasureValue(0.5).abs_error == 0.0
    assert counting.FirstSignChange(None, 100, "AllPrimes").skipped == ()
    with pytest.raises(TypeError):
        measures.Interval(0)


def test_every_record_type_is_sampled():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("satotate.")}
    assert package == {cls for cls, _ in _samples()}
