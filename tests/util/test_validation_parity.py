"""Parity of the validation fast paths with the ABC-only helpers they replace.

The helpers test ``type(x) is float`` / ``type(x) is int`` before the
``numbers`` ABC checks.  The reference implementations below are the
ABC-only versions; on every input both must return the same value of the
same type or raise the same exception with the same message.  The inputs
on which the reference leaked a non-:class:`InvalidParameterError`
(``OverflowError``, ``ValueError``, ``TypeError``) now raise
:class:`InvalidParameterError`; those are listed in ``LEAKED`` and
checked separately.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from numbers import Integral, Real

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.speedup import GeneralModel, RooflineModel
from repro.speedup.base import SpeedupModel
from repro.util.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_positive_int,
    check_probability,
)


# ----------------------------------------------------------------------
# Reference: the ABC-only helpers
# ----------------------------------------------------------------------
def _ref_check_finite_real(value, name):
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _ref_check_positive(value, name):
    result = _ref_check_finite_real(value, name)
    if result <= 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    return result


def _ref_check_nonnegative(value, name):
    result = _ref_check_finite_real(value, name)
    if result < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
    return result


def _ref_check_probability(value, name):
    result = _ref_check_finite_real(value, name)
    if not 0.0 <= result <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
    return result


def _ref_check_in_range(value, name):
    result = _ref_check_finite_real(value, name)
    if not (0.0 < result <= 8.0):
        raise InvalidParameterError(f"{name} must be in (0.0, 8.0], got {value!r}")
    return result


def _ref_check_positive_int(value, name):
    if isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    if isinstance(value, Integral):
        result = int(value)
    elif isinstance(value, Real) and float(value).is_integer():
        result = int(value)
    else:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    if result <= 0:
        raise InvalidParameterError(f"{name} must be >= 1, got {value!r}")
    return result


def _ref_check_p(p):
    if isinstance(p, bool) or p != int(p):
        raise InvalidParameterError(f"processor count must be an integer, got {p!r}")
    p = int(p)
    if p < 1:
        raise InvalidParameterError(f"processor count must be >= 1, got {p}")
    return p


def _ref_check_P(P):
    if isinstance(P, bool) or P != int(P):
        raise InvalidParameterError(f"platform size P must be an integer, got {P!r}")
    P = int(P)
    if P < 1:
        raise InvalidParameterError(f"platform size P must be >= 1, got {P}")
    return P


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
class _Float(float):
    pass


class _Width(IntEnum):
    FOUR = 4


HELPERS = {
    "check_positive": (lambda v: check_positive(v, "x"), lambda v: _ref_check_positive(v, "x")),
    "check_nonnegative": (
        lambda v: check_nonnegative(v, "x"),
        lambda v: _ref_check_nonnegative(v, "x"),
    ),
    "check_probability": (
        lambda v: check_probability(v, "x"),
        lambda v: _ref_check_probability(v, "x"),
    ),
    "check_in_range": (
        lambda v: check_in_range(v, "x", 0.0, 8.0, low_open=True),
        lambda v: _ref_check_in_range(v, "x"),
    ),
    "check_positive_int": (
        lambda v: check_positive_int(v, "x"),
        lambda v: _ref_check_positive_int(v, "x"),
    ),
    "_check_p": (SpeedupModel._check_p, _ref_check_p),
    "_check_P": (SpeedupModel._check_P, _ref_check_P),
}

INPUTS = {
    "int": 3,
    "int_zero": 0,
    "int_negative": -2,
    "float": 0.5,
    "float_integral": 4.0,
    "bool": True,
    "np_int64": np.int64(5),
    "np_float64": np.float64(2.0),
    "np_float64_nan": np.float64("nan"),
    "float_subclass": _Float(6.0),
    "float_subclass_inf": _Float("inf"),
    "int_enum": _Width.FOUR,
    "fraction": Fraction(3, 2),
    "fraction_integral": Fraction(8, 2),
    "fraction_huge": Fraction(10**400),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-0.0": -0.0,
    "int_huge": 10**400,
    "str": "3",
    "None": None,
}

#: (helper, input) pairs on which the reference leaked a non-library error.
LEAKED = {
    *((h, v) for h in ("check_positive", "check_nonnegative", "check_probability",
                       "check_in_range") for v in ("int_huge", "fraction_huge")),
    ("check_positive_int", "fraction_huge"),
    *(
        (h, v)
        for h in ("_check_p", "_check_P")
        for v in ("nan", "inf", "-inf", "None", "np_float64_nan", "float_subclass_inf")
    ),
}


def _outcome(fn, value):
    try:
        result = fn(value)
    except Exception as exc:  # the exception type and message are the outcome
        return ("raised", type(exc), str(exc))
    return ("returned", type(result), repr(result))


CASES = [(h, v) for h in HELPERS for v in INPUTS]


@pytest.mark.parametrize(("helper", "value_name"), CASES, ids=[f"{h}-{v}" for h, v in CASES])
def test_fast_paths_match_reference(helper, value_name):
    new_fn, ref_fn = HELPERS[helper]
    value = INPUTS[value_name]
    new = _outcome(new_fn, value)
    ref = _outcome(ref_fn, value)
    if (helper, value_name) in LEAKED:
        assert ref[0] == "raised" and not issubclass(ref[1], InvalidParameterError), ref
        assert new[0] == "raised" and new[1] is InvalidParameterError, new
    else:
        assert new == ref


def test_every_leak_is_listed():
    # LEAKED is exactly the set where the reference raised a foreign error.
    leaked = {
        (h, v)
        for h, v in CASES
        if (out := _outcome(HELPERS[h][1], INPUTS[v]))[0] == "raised"
        and not issubclass(out[1], InvalidParameterError)
    }
    assert leaked == LEAKED


# ----------------------------------------------------------------------
# The error contract at the public entry points
# ----------------------------------------------------------------------
class TestErrorContract:
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, None, "x", [2]])
    def test_time_rejects_non_integers(self, p):
        with pytest.raises(InvalidParameterError, match="processor count"):
            GeneralModel(1.0, d=0.1).time(p)

    @pytest.mark.parametrize("P", [math.nan, math.inf, None])
    def test_max_useful_processors_rejects_non_integers(self, P):
        with pytest.raises(InvalidParameterError, match="platform size"):
            GeneralModel(1.0, d=0.1).max_useful_processors(P)

    def test_huge_int_is_not_finite(self):
        with pytest.raises(InvalidParameterError, match="w must be finite"):
            check_positive(10**400, "w")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_max_parallelism_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParameterError, match="max_parallelism"):
            GeneralModel(1.0, max_parallelism=bad)

    def test_roofline_rejects_infinite_parallelism(self):
        with pytest.raises(InvalidParameterError, match="max_parallelism"):
            RooflineModel(1.0, math.inf)

    def test_fast_path_values_are_exact(self):
        assert SpeedupModel._check_p(7) == 7
        assert SpeedupModel._check_P(10**400) == 10**400
        assert check_positive_int(10**400, "n") == 10**400
        assert check_positive(0.1, "w") == 0.1
