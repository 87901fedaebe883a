"""Number helpers: exact rationals alongside floats, extended reals.

Throughout the package a "Real" is either a ``fractions.Fraction`` (exact
mode) or a ``float``.  Exactness is decided at input time: integer, Fraction
and string literals like ``"3/4"`` become Fractions; float literals stay
floats and never promote.  Infinite endpoints are plain ``math.inf`` /
``-math.inf`` floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InputError

Real = Union[Fraction, float]

TIE_TOL = 1e-9  # the default rtol of every float tie: solver, closed-form, --tol


def parse_number(value) -> Real:
    """Parse a JSON-ish scalar into a Real.

    int -> Fraction, str "p/q" or "p" -> Fraction, float -> float.  NaN and
    infinite floats (which ``json.load`` accepts) are rejected.
    """
    if isinstance(value, bool):
        raise InputError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"expected a finite number, got {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse number {value!r}") from exc
    raise InputError(f"expected a number, got {type(value).__name__}")


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def tolerance(rtol: float, value, scale: float):
    """How far a float may sit from ``value`` and still count as equal to it.

    ``rtol`` relative to |value|, with the floor min(1, scale), where
    ``scale`` is the largest |c_ij| of the float grid.  Once max |c| >= 1
    the floor is 1; below that the rule is rtol * max(scale, |value|), which
    scales with the couplings, so small grids tie no more than large ones.
    The one float tolerance of the package: the tie scan, closed-form's
    Onsager tie, the plasma's neutrality and the ensemble bound all call
    it, as does the test-side ground-state identity, and the symmetry
    check applies it to every pair at once.  rtol 0 is equality, on
    Fractions too."""
    return rtol * max(min(1.0, scale), abs(value))


def reciprocal(name: str, t: Real) -> Real:
    """1/t for a nonzero t, or an InputError naming ``name`` when t is a
    float so small (a subnormal) that 1/t is beyond the float range.  A
    Fraction has no such limit."""
    value = 1 / t
    if isinstance(value, float) and math.isinf(value):
        raise InputError(f"{name} is beyond the float range")
    return value


def format_real(x: Real) -> object:
    """JSON-friendly rendering: Fractions as "p/q" strings, infinities as
    "inf"/"-inf", finite floats as-is."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
