import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COS, SIN, signal
from hfh import ergodic
from hfh.ergodic import avg_derivative_product, avg_modulated_dd, avg_product_periodic
from hfh.errors import ValidationError
from hfh.fourier import TWO_PI, Cell, FourierField, resonant_point

WINDOWS = [7.3, 13.7, 29.1, 61.7]
HALF = 0.5 * np.exp(1j * np.pi / 3)  # cos(2 pi x + pi / 3) = HALF e^{2 pi i x} + conj


def assert_bound_with_held_out(result, recompute):
    """|value - limit| <= C/a on the given windows and on a window twice as large."""
    errs = result.errors()
    for a, err in zip(result.windows, errs):
        assert err <= result.decay_constant / a + 1e-13
    a_big = 2.0 * max(result.windows)
    held = abs(recompute(a_big) - result.analytic_limit)
    assert held <= result.decay_constant / a_big + 1e-13


def redo_modulated(f, b):
    return lambda a: avg_modulated_dd(f, [b], [a]).values[0]


def redo_product(f, g):
    return lambda a: avg_product_periodic(f, g, [a]).values[0]


def redo_derivative(f, g):
    return lambda a: avg_derivative_product(f, g, [a]).values[0]


# ---------------------------------------------------------------------------
# modulated averages (single periodic signal times e^{ibx})

def test_modulated_resonant_zero_overlap():
    f = signal(1.0, {0: 1.0})
    res = avg_modulated_dd(f, [2 * np.pi], WINDOWS)
    assert res.resonant and res.analytic_limit == 0
    assert_bound_with_held_out(res, redo_modulated(f, 2 * np.pi))
    # integer-period windows agree with the limit exactly
    exact = avg_modulated_dd(f, [2 * np.pi], [5.0, 12.0])
    assert np.max(exact.errors()) < 1e-12


def test_modulated_resonant_full_overlap():
    f = signal(1.0, {-1: 1.0})
    res = avg_modulated_dd(f, [2 * np.pi], WINDOWS + [100.0])
    assert res.resonant and abs(res.analytic_limit - 1.0) < 1e-15
    assert abs(res.values[-1] - 1.0) < 1e-9
    exact = avg_modulated_dd(f, [2 * np.pi], [7.0, 31.0])
    assert np.max(exact.errors()) < 1e-12


def test_modulated_nonresonant_decay():
    f = signal(1.0, {0: 1.0})
    res = avg_modulated_dd(f, [1.0], WINDOWS)
    assert not res.resonant and res.analytic_limit == 0
    # closed form |e^{ia} - 1| / a <= 2/a
    for a, v in zip(res.windows, res.values):
        assert abs(abs(v) - abs(np.exp(1j * a) - 1) / a) < 1e-14
        assert abs(v) <= 2.0 / a
    assert_bound_with_held_out(res, redo_modulated(f, 1.0))


def test_modulated_quadrature_oracle():
    f = signal(1.0, COS)
    b = np.sqrt(2.0) * np.pi
    a = 9.4
    res = avg_modulated_dd(f, [b], [a])
    x = np.linspace(0.0, a, 400001)
    quad = np.trapezoid(np.cos(2 * np.pi * x) * np.exp(1j * b * x), x) / a
    assert abs(res.values[0] - quad) < 1e-9


# ---------------------------------------------------------------------------
# products of two periodic signals

def test_product_incommensurate():
    f = signal(1.0, COS)
    g = signal(np.sqrt(2.0), COS)
    res = avg_product_periodic(f, g, WINDOWS)
    assert not res.resonant and res.analytic_limit == 0
    assert_bound_with_held_out(res, redo_product(f, g))


def test_product_resonant_self():
    f = signal(1.0, COS)
    res = avg_product_periodic(f, f, WINDOWS)
    assert res.resonant and abs(res.analytic_limit - 0.5) < 1e-15
    exact = avg_product_periodic(f, f, [4.0, 9.0])
    assert np.max(exact.errors()) < 1e-12


def test_product_rational_orthogonal():
    f = signal(1.0, COS)
    g = signal(2.0, COS)  # cos(pi x)
    res = avg_product_periodic(f, g, WINDOWS)
    assert res.resonant and res.analytic_limit == 0
    exact = avg_product_periodic(f, g, [6.0, 14.0])  # multiples of the common period 2
    assert np.max(exact.errors()) < 1e-12


def test_product_rational_with_phase():
    f = signal(1.0, COS)
    g = signal(1.0, {1: HALF, -1: np.conj(HALF)})
    res = avg_product_periodic(f, g, WINDOWS)
    assert abs(res.analytic_limit - 0.5 * np.cos(np.pi / 3)) < 1e-15


def test_product_zero_mean_precondition():
    f = signal(1.0, {0: 0.5, 1: 1.0, -1: 1.0})
    with pytest.raises(ValidationError, match="zero mean"):
        avg_product_periodic(f, signal(1.0, COS), WINDOWS)


def test_rationality_classifier():
    assert ergodic._rational_ratio(1.0, np.sqrt(2.0)) is None
    frac = ergodic._rational_ratio(2.0, 3.0)
    assert (frac.numerator, frac.denominator) == (2, 3)


# ---------------------------------------------------------------------------
# derivative products

def test_derivative_product_incommensurate():
    f = signal(1.0, SIN)
    g = signal(np.sqrt(2.0), COS)
    res = avg_derivative_product(f, g, WINDOWS)
    assert res.analytic_limit == 0
    assert_bound_with_held_out(res, redo_derivative(f, g))


def test_derivative_product_constant_is_zero():
    f = signal(1.0, {0: 3.0})
    res = avg_derivative_product(f, signal(1.0, COS), WINDOWS)
    assert all(v == 0 for v in res.values)
    assert res.analytic_limit == 0


def test_derivative_product_orthogonal():
    f = signal(1.0, SIN)
    res = avg_derivative_product(f, f, WINDOWS)
    assert abs(res.analytic_limit) < 1e-15  # mean of 2 pi cos sin over a period


def test_derivative_consistency_with_product():
    f = signal(1.0, SIN)
    g = signal(np.sqrt(3.0), COS)
    lhs = avg_derivative_product(f, g, WINDOWS)
    rhs = avg_product_periodic(f.derivative(0), g, WINDOWS)
    assert np.max(np.abs(np.asarray(lhs.values) - np.asarray(rhs.values))) < 1e-12


# ---------------------------------------------------------------------------
# multi-dimensional boxes

def test_dd_resonant_axis_zero_overlap():
    cell = Cell((1.0, 1.0))
    f = FourierField.constant(cell, 1.0)
    res = avg_modulated_dd(f, [2 * np.pi, 0.0], [5.0, 11.0, 23.0])
    assert res.resonant and res.analytic_limit == 0
    for a, v in zip(res.windows, res.values):
        assert abs(v) <= res.decay_constant / a + 1e-13


def test_dd_zero_lambda_gives_cell_mean():
    cell = Cell((1.0, 1.0))
    f = FourierField.from_terms(cell, 1, {(0, 0): 1.7, (1, 0): 0.2, (-1, 0): 0.2})
    res = avg_modulated_dd(f, [0.0, 0.0], [4.4, 9.1, 20.3])
    assert abs(res.analytic_limit - 1.7) < 1e-15
    exact = avg_modulated_dd(f, [0.0, 0.0], [3.0, 7.0])
    assert np.max(exact.errors()) < 1e-12


def test_dd_mixed_axes_decay():
    cell = Cell((1.0, 1.0))
    f = FourierField.from_terms(cell, 1, {(-1, 0): 1.0})
    res = avg_modulated_dd(f, [2 * np.pi, 1.0], [6.3, 12.9, 27.7])
    assert not res.resonant and res.analytic_limit == 0
    for a, v in zip(res.windows, res.values):
        assert abs(v) <= res.decay_constant / a + 1e-13
    held = avg_modulated_dd(f, [2 * np.pi, 1.0], [6.3, 55.4])
    assert abs(held.values[-1]) <= res.decay_constant / 55.4 + 1e-13


def test_dd_anisotropic_boxes_and_validation():
    cell = Cell((1.0, 2.0))
    f = FourierField.from_terms(cell, 1, {(1, 1): 0.5, (-1, -1): 0.5})
    res = avg_modulated_dd(f, [0.7, 0.0], [(4.0, 5.0), (8.0, 11.0)])
    assert not res.resonant
    with pytest.raises(ValidationError, match="grow"):
        avg_modulated_dd(f, [0.0, 0.0], [(4.0, 5.0), (8.0, 5.0)])
    with pytest.raises(ValidationError):
        avg_modulated_dd(f, [0.0], [4.0])


def test_windows_validation():
    f = signal(1.0, {0: 1.0})
    with pytest.raises(ValidationError):
        avg_modulated_dd(f, [1.0], [5.0, 4.0])
    with pytest.raises(ValidationError):
        avg_modulated_dd(f, [1.0], [])


# ---------------------------------------------------------------------------
# the certificate: |value - limit| <= C / window + D * L on every returned window,
# L the box's longest side, plus roundoff

# carrier offsets from a reciprocal multiple (angular frequency), and
# relative period offsets from a rational ratio
NEAR_RESONANCE = (0.0, 1e-11, -3e-10, 1e-9, -1e-9, 2e-9)
_certificate_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _assert_certified(res, longest, roundoff):
    bound = res.decay_constant / np.asarray(res.windows) + res.drift_rate * np.asarray(longest)
    assert np.all(res.errors() <= bound + roundoff), np.max(res.errors() - bound)


def test_near_resonant_carrier_is_certified():
    # harmonic -1 meets the carrier at q = 1e-9: off the lattice by 1.6e-8 on a cell of 100
    f = signal(100.0, {-1: 1.0})
    res = avg_modulated_dd(f, [TWO_PI / 100.0 + 1e-9], [100.0, 200.0, 400.0])
    assert not res.resonant and res.analytic_limit == 0 and res.drift_rate == 0
    assert np.all(res.errors() > 0.99)
    assert np.all(res.errors() <= res.decay_constant / np.asarray(res.windows))


def test_near_rational_periods_are_certified():
    # periods 100 and 100 (1 + 2e-9): irrational by the classifier, and the pair (1, -1) nearly cancels
    f = signal(100.0, {1: 1.0})
    g = signal(100.0 * (1 + 2e-9), {-1: 1.0})
    res = avg_product_periodic(f, g, [100.0, 200.0, 400.0])
    assert not res.resonant and res.analytic_limit == 0 and res.drift_rate == 0
    assert np.all(res.errors() > 0.99)
    assert np.all(res.errors() <= res.decay_constant / np.asarray(res.windows))


def test_resonant_within_tolerance_reports_its_drift():
    # lambda / 2 pi = 1 + 4.8e-10 on a unit cell: resonant, limit c_{-1} = 1 and C = 0, while
    # the harmonic keeps q = 3e-9 and drifts by about |q| a / 2 = 1.5e-7 at a = 100
    f = signal(1.0, {-1: 1.0})
    windows = [100.0, 1e4, 1e6]
    res = avg_modulated_dd(f, [TWO_PI + 3e-9], windows)
    assert res.resonant and res.analytic_limit == 1 and res.decay_constant == 0
    assert res.drift_rate == pytest.approx(1.5e-9, rel=1e-6)
    assert res.errors()[0] > 1e-7
    _assert_certified(res, windows, 1e-15)
    # periods 1 and 1 + 1e-10 pair (1, -1) by the rational ratio 1, at nu = 2 pi 1e-10 / (1 + 1e-10)
    res = avg_product_periodic(signal(1.0, {1: 1.0}), signal(1.0 + 1e-10, {-1: 1.0}), windows)
    assert res.resonant and res.analytic_limit == 1 and res.decay_constant == 0
    assert res.drift_rate == pytest.approx(np.pi * 1e-10, rel=1e-6)
    assert res.errors()[-1] > 1e-4
    _assert_certified(res, windows, 1e-15)


@_certificate_settings
@given(data=st.data())
def test_modulated_values_within_certificate(data):
    dims = data.draw(st.integers(1, 2))
    lengths = np.array([data.draw(st.floats(0.5, 100.0)) for _ in range(dims)])
    cut = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = (2 * cut + 1,) * dims
    f = FourierField(Cell(tuple(lengths)), rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lam = np.array([-TWO_PI * data.draw(st.integers(-cut - 1, cut + 1)) / t
                    + data.draw(st.sampled_from(NEAR_RESONANCE)) for t in lengths])
    base = lengths * np.array([data.draw(st.floats(0.3, 4.0)) for _ in range(dims)])
    sizes = [base * s for s in (1.0, 2.0, 4.0, 8.0)]
    res = avg_modulated_dd(f, lam, sizes)
    assert res.resonant == (resonant_point(lam, f.cell) is not None)
    _assert_certified(res, [max(size) for size in sizes], 1e-12 * np.sum(np.abs(f.coeffs)))


@_certificate_settings
@given(data=st.data())
def test_product_values_within_certificate(data):
    t1 = data.draw(st.floats(0.5, 100.0))
    ratio = data.draw(st.sampled_from((1.0, 0.5, 1.5, 2.0 / 3.0)) | st.floats(0.3, 3.0))
    t2 = t1 * ratio * (1.0 + data.draw(st.sampled_from(NEAR_RESONANCE)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def drawn_signal(period, ns):
        return signal(period, {n: complex(*rng.normal(size=2)) for n in ns})

    f = drawn_signal(t1, data.draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, unique=True)))
    g = drawn_signal(t2, data.draw(st.lists(st.integers(-3, 3), min_size=1, unique=True)))
    windows = t1 * data.draw(st.floats(0.3, 4.0)) * np.array([1.0, 2.0, 4.0, 8.0])
    res = avg_product_periodic(f, g, windows)
    assert res.resonant == (ergodic._rational_ratio(t1, t2) is not None)
    _assert_certified(res, windows, 1e-12 * np.sum(np.abs(f.coeffs)) * np.sum(np.abs(g.coeffs)))
