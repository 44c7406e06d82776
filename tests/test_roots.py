from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq as _scipy_brentq

from filippov.errors import (
    DomainError,
    FilippovError,
    NoReturn,
    RootNotBracketed,
    RootNotConverged,
)
from filippov.roots import brentq

# the relative tolerance our brentq fixes, passed to scipy's explicitly
scipy_brentq = partial(_scipy_brentq, rtol=8.9e-16)


def _helper_outcome(solve, f, a, b, xtol):
    """The root as a float, or the builtin type of the error raised."""
    try:
        return solve(f, a, b, xtol=xtol)
    except ValueError:
        return ValueError
    except RuntimeError:
        return RuntimeError


def _helper_polynomial(coeffs, shift):
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc - shift

    return f


def _helper_exp_cos(a, w, phase, offset):
    def f(x):
        return math.exp(a * x) * math.cos(w * x + phase) + offset

    return f


_ends = st.floats(-8.0, 8.0)
_xtols = st.sampled_from([1e-14, 1e-13, 1e-12])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=7),
    shift=st.floats(-3.0, 3.0),
    a=_ends,
    b=_ends,
    xtol=_xtols,
)
def test_brentq_matches_scipy_on_polynomials(coeffs, shift, a, b, xtol):
    f = _helper_polynomial(coeffs, shift)
    assume(f(a) * f(b) < 0.0)
    want = _helper_outcome(scipy_brentq, f, a, b, xtol)
    got = _helper_outcome(brentq, f, a, b, xtol)
    assert got == want and type(got) is type(want)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    rate=st.floats(-2.0, 2.0),
    w=st.floats(0.1, 6.0),
    phase=st.floats(-math.pi, math.pi),
    offset=st.floats(-1.0, 1.0),
    a=_ends,
    b=_ends,
    xtol=_xtols,
)
def test_brentq_matches_scipy_on_exp_cos(rate, w, phase, offset, a, b, xtol):
    f = _helper_exp_cos(rate, w, phase, offset)
    assume(f(a) * f(b) < 0.0)
    want = _helper_outcome(scipy_brentq, f, a, b, xtol)
    got = _helper_outcome(brentq, f, a, b, xtol)
    assert got == want and type(got) is type(want)


def test_brentq_errors_stay_out_of_the_scan_skip_tuple():
    for err in (RootNotBracketed, RootNotConverged):
        assert issubclass(err, FilippovError)
        assert not issubclass(err, (DomainError, NoReturn, OverflowError))
    assert issubclass(RootNotBracketed, ValueError)
    assert issubclass(RootNotConverged, RuntimeError)


def test_brentq_same_sign_ends_raise_not_bracketed():
    with pytest.raises(RootNotBracketed):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)


def test_brentq_nan_at_an_end_raises_not_bracketed():
    with pytest.raises(RootNotBracketed):
        brentq(lambda x: math.nan if x == 2.0 else x, -1.0, 2.0, xtol=1e-12)


def test_brentq_nan_inside_the_bracket_raises_not_bracketed():
    # the first secant step from (-1, -1), (2, 2) lands on x = 0
    def f(x):
        return math.nan if abs(x) < 0.5 else x

    with pytest.raises(ValueError):
        scipy_brentq(f, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(RootNotBracketed):
        brentq(f, -1.0, 2.0, xtol=1e-12)


def test_brentq_exhausted_maxiter_raises_not_converged():
    # at a triple root the interpolation steps shrink slowly enough that
    # 100 iterations do not reach xtol, in scipy as here
    def f(x):
        return (x - 1.0 / 3.0) ** 3

    with pytest.raises(RuntimeError):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-14)
    with pytest.raises(RootNotConverged):
        brentq(f, 0.0, 1.0, xtol=1e-14)


@pytest.mark.parametrize(
    "scale, root, a, b",
    [
        (2.640599794060481e-304, 0.515908805880605, -405.8032974295947, 9654.68339873281),
        (1.50084907171e-312, 0.8364686635702636, -9678.032149206794, 3581.1356975751883),
    ],
)
def test_brentq_matches_scipy_when_divided_differences_underflow(scale, root, a, b):
    # near-subnormal values make a divided difference underflow to 0, where
    # the C routine divides by zero and falls back on bisection
    def f(x):
        return scale * (x - root) ** 3

    assert brentq(f, a, b, xtol=1e-12) == scipy_brentq(f, a, b, xtol=1e-12)
