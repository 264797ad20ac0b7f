"""Fuzzing of the public entry points: a radius, shift, eps list, xi or cell
size that is not a real number of the argument's domain raises DomainError,
before NumPy reads it and before any numerical work.  Text is not parsed, a
bool is not 1, a complex value does not lose its imaginary part, and a ragged
list does not reach NumPy's "inhomogeneous shape" error."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frachelm.diagnostics import lap_differences
from frachelm.errors import DomainError
from frachelm.green import green_eval, green_eval_batch, green_radial_derivative, src_residual
from frachelm.kernels import (
    Problem, dF_m_dr, dF_tilde_m_dr, F_m, F_tilde_m, helm_part, helm_part_dr, multiplier_M,
)
from frachelm.oracle import fourier_invert
from frachelm.quadrature import integrate_bessel_transform
from frachelm.scattering import cell_weight

P1, P2 = Problem(1, 0.3, 1.0), Problem(2, 0.5, 1.0)


def _atom(kind):
    """One bad value of a kind, as a scalar."""
    return {
        "text": st.text(max_size=4) | st.sampled_from(["2.0", "1e3", "nan", "0.1"]),
        "bool": st.sampled_from([True, False, np.True_, np.False_]),
        "complex": st.complex_numbers(max_magnitude=1e6) | st.just(np.complex128(2.0)),
        "nan": st.just(np.nan),
        "inf": st.sampled_from([np.inf, -np.inf]),
        "zero": st.sampled_from([0.0, -0.0, 0]),
        "negative": st.floats(max_value=-1e-300, allow_infinity=False) | st.integers(max_value=-1),
    }[kind]


def _bad(kind, good):
    """A bad argument of a kind, next to the good value ``good``: an atom alone
    or among good values in a list or array; a ragged list, an object array,
    an empty array or a 2-D array of good values."""
    if kind == "ragged":
        return st.just([[good, good], [good]])
    if kind == "object":
        return st.just(np.array([good, None], dtype=object))
    if kind == "empty":
        return st.just(np.array([]))
    if kind == "2d":
        return st.just(np.full((2, 2), good))
    # an array of good values and a bool is a float array: the bool is gone
    shapes = [lambda v: v, lambda v: [good, v]] + [lambda v: np.array([good, v])] * (kind != "bool")
    return st.tuples(_atom(kind), st.sampled_from(shapes)).map(lambda a: a[1](a[0]))


_KINDS = ("text", "bool", "complex", "nan", "inf", "zero", "negative", "ragged", "object",
          "empty", "2d")


# (name, call of the one fuzzed argument, a good argument, kinds valid there);
# the bad values stand among the good argument's first value
_ENTRY_POINTS = [
    ("green_eval r", lambda r: green_eval(P1, 0.0, r), 2.0, ()),
    ("green_eval shift", lambda e: green_eval(P1, e, 2.0), 0.1, ("zero",)),
    ("green_eval_batch r", lambda r: green_eval_batch(P2, 0.0, r), [2.0], ()),
    ("green_eval_batch shift", lambda e: green_eval_batch(P1, e, np.array([1.0, 2.0])),
     [0.1, 0.1], ("zero",)),
    ("green_radial_derivative r", lambda r: green_radial_derivative(P1, 0.0, r), 2.0, ()),
    ("src_residual r", lambda r: src_residual(P2, r), 2.0, ()),
    ("fourier_invert r", lambda r: fourier_invert(P1, 0.3, r), 2.0, ()),
    ("lap_differences r", lambda r: lap_differences(P1, r, [0.1, 0.01]), 2.0, ()),
    ("lap_differences eps", lambda e: lap_differences(P1, 2.0, e), [0.1, 0.01], ()),
    ("integrate_bessel_transform r",
     lambda r: integrate_bessel_transform(lambda rho: np.exp(-rho), r), 2.0, ()),
    ("cell_weight sizes", lambda h: cell_weight(P1, np.array([0.0]), h), [0.1], ()),
    # an offset is any finite point of the problem's dimension
    ("cell_weight offsets", lambda t: cell_weight(P1, t, [0.1]), [0.3], ("zero", "negative")),
    # the kernels take a scalar or an array of any shape (the 2D tail passes
    # (points, radii) arrays), an empty one too
    ("F_m r", lambda r: F_m(r, 1.0, 0.3, 1), 2.0, ("empty", "2d")),
    ("dF_m_dr r", lambda r: dF_m_dr(r, 1.0, 0.3, 1), 2.0, ("empty", "2d")),
    ("F_tilde_m r", lambda r: F_tilde_m(r, 1.0, 0.5, 1), 2.0, ("empty", "2d")),
    ("dF_tilde_m_dr r", lambda r: dF_tilde_m_dr(r, 1.0, 0.5, 1), 2.0, ("empty", "2d")),
    ("helm_part r", lambda r: helm_part(2, 0.3, 1.0, r), 2.0, ("empty", "2d")),
    ("helm_part_dr r", lambda r: helm_part_dr(2, 0.3, 1.0, r), 2.0, ("empty", "2d")),
    # M is continuous at xi = 0
    ("multiplier_M xi", lambda x: multiplier_M(x, 1.0, 0.3), 2.0, ("empty", "2d", "zero")),
]
_IDS = [e[0] for e in _ENTRY_POINTS]


@pytest.mark.parametrize("name, call, good, valid", _ENTRY_POINTS, ids=_IDS)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_bad_input_raises_domain_error(name, call, good, valid, data):
    # a DomainError, never a NumPy error, warning or NaN result
    kind = data.draw(st.sampled_from([k for k in _KINDS if k not in valid]), label="kind")
    bad = data.draw(_bad(kind, float(np.ravel(good)[0])), label="bad")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(bad)


def _numbers(out):
    """The numbers of a result: a number, an array, a result object's value or
    total, or a tuple of these."""
    if isinstance(out, tuple):
        return np.concatenate([_numbers(v) for v in out])
    return np.ravel(getattr(out, "value", getattr(out, "total", out)))


@pytest.mark.parametrize("name, call, good, valid", _ENTRY_POINTS, ids=_IDS)
def test_good_input_is_accepted(name, call, good, valid):
    # the control: each entry point takes its good argument, to finite numbers
    assert np.all(np.isfinite(_numbers(call(good))))
