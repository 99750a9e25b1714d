import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfh.errors import ValidationError
from hfh.fourier import Cell, FourierField, from_grid, product_mean, resonant_point, to_grid, window_factor


def random_real_field(cell, cutoff, rng, scale=1.0):
    shape = tuple(2 * cutoff + 1 for _ in range(cell.dims))
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rev = coeffs[tuple(slice(None, None, -1) for _ in range(cell.dims))]
    return FourierField(cell, scale * 0.5 * (coeffs + np.conj(rev)))


def test_constant_field_samples_everywhere(cell1d):
    f = FourierField.constant(cell1d, 2.5)
    vals = to_grid([f.coeffs], (8,))[0]
    assert np.allclose(vals, 2.5, atol=1e-15)


def test_two_mode_synthesis(cell1d):
    # c_1 = c_-1 = 1 gives 2 cos(2 pi x)
    f = FourierField.from_terms(cell1d, 1, {(1,): 1.0, (-1,): 1.0})
    vals = to_grid([f.coeffs], (8,))[0]
    x = np.arange(8) / 8.0
    assert np.allclose(vals, 2.0 * np.cos(2 * np.pi * x), atol=1e-14)


def test_roundtrip_random_field(cell1d, rng):
    f = random_real_field(cell1d, 6, rng)
    (back,) = from_grid(to_grid([f.coeffs], (24,)), [f.cutoffs])
    assert np.max(np.abs(back - f.coeffs)) < 1e-12


def test_roundtrip_2d(rng):
    cell = Cell((1.0, 1.5))
    f = random_real_field(cell, 3, rng)
    grid = to_grid([f.coeffs], (16, 9))[0]
    back = np.fft.fft2(grid) / grid.size
    for n1 in f.index_grid(0):
        for n2 in f.index_grid(1):
            assert abs(back[n1 % 16, n2 % 9] - f.coeff((n1, n2))) < 1e-12


def _synthesis(table, cell, grid):
    """The series at the points m * lambda / N of each axis, by exact 1D synthesis one axis at a time."""
    values = table
    for ax, (lam, n) in enumerate(zip(cell.lengths, grid)):
        x = np.arange(n) * lam / n
        values = np.apply_along_axis(lambda row: FourierField(Cell((lam,)), row).sample_points_1d(x), ax, values)
    return values


@pytest.mark.parametrize("lengths, grid", [
    ((1.0,), (13,)), ((1.3,), (16,)),
    ((1.0, 1.5), (9, 7)), ((0.8, 1.2), (8, 12)),
    ((1.0, 1.5, 0.7), (5, 7, 9)), ((1.2, 0.9, 1.0), (6, 8, 10)),
], ids=["1d-odd", "1d-even", "2d-odd", "2d-even", "3d-odd", "3d-even"])
def test_to_grid_matches_synthesis_and_round_trips(lengths, grid, rng):
    # a stack of tables of different shapes, the widest filling the grid on its odd axes
    cell = Cell(lengths)
    shapes = [tuple(n - 1 + n % 2 for n in grid), tuple(min(3, n - 1 + n % 2) for n in grid)]
    tables = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    values = to_grid(tables, grid)
    assert values.shape == (2, *grid)
    for got, table in zip(values, tables):
        assert np.max(np.abs(got - _synthesis(table, cell, grid))) <= 1e-13 * np.abs(table).sum()
    back = from_grid(values, [tuple((s - 1) // 2 for s in shape) for shape in shapes])
    for got, table in zip(back, tables):
        assert got.shape == table.shape
        assert np.max(np.abs(got - table)) <= 1e-13 * np.abs(table).sum()


def test_nyquist_bound_enforced(cell1d, rng):
    # to_grid refuses a grid narrower than a table on any axis: its harmonics would alias
    f = random_real_field(cell1d, 6, rng)
    assert to_grid([f.coeffs], (13,)).shape == (1, 13)
    with pytest.raises(ValidationError, match="cannot hold"):
        to_grid([f.coeffs], (12,))  # needs >= 13
    with pytest.raises(ValidationError, match="cannot hold"):
        to_grid([np.ones(3), np.ones((3, 5))], (8, 4))  # the second table is 5 wide on axis 1
    with pytest.raises(ValidationError, match="cannot hold"):
        to_grid([np.ones(3)], (8, 8))  # a 1D table on a 2D grid


def test_product_matches_pointwise(cell1d, rng):
    f = random_real_field(cell1d, 4, rng)
    g = random_real_field(cell1d, 3, rng)
    prod = f * g
    x = np.linspace(0, 1, 64, endpoint=False)
    direct = f.sample_points_1d(x) * g.sample_points_1d(x)
    assert np.max(np.abs(prod.sample_points_1d(x) - direct)) < 1e-12


def test_product_mean_matches_quadrature(cell1d, rng):
    # rectangle rule on a uniform grid is exact for band-limited integrands
    f = random_real_field(cell1d, 5, rng)
    g = random_real_field(cell1d, 4, rng)
    n = 64
    x = np.arange(n) / n
    quad = np.mean(f.sample_points_1d(x) * g.sample_points_1d(x))
    assert abs(product_mean(f, g) - quad) < 1e-12


def test_derivative_is_spectral(cell1d, rng):
    f = random_real_field(cell1d, 4, rng)
    df = f.derivative(0)
    x = np.linspace(0, 1, 200, endpoint=False)
    h = 1e-6
    approx = (f.sample_points_1d(x + h) - f.sample_points_1d(x - h)) / (2 * h)
    assert np.max(np.abs(df.sample_points_1d(x) - approx)) < 1e-4


def test_conjugate_is_pointwise_conj(cell1d, rng):
    f = random_real_field(cell1d, 4, rng)
    f = f * (1.0 + 0.3j)  # make it genuinely complex
    x = np.linspace(0, 1, 50, endpoint=False)
    assert np.max(np.abs(f.conjugate().sample_points_1d(x) - np.conj(f.sample_points_1d(x)))) < 1e-13


def test_conj_symmetry_error_flags_complex(cell1d, rng):
    f = random_real_field(cell1d, 4, rng)
    assert f.conj_symmetry_error() < 1e-15
    g = FourierField.from_terms(cell1d, 2, {(1,): 1.0})
    assert g.conj_symmetry_error() == 1.0


def test_gauge_derivative_shift(cell1d):
    f = FourierField.from_terms(cell1d, 1, {(1,): 1.0})
    shifted = f.gauge_derivative(0, -0.5)
    # coefficient multiplies by i(2 pi n / lambda - 0.5)
    assert abs(shifted.coeff((1,)) - 1j * (2 * np.pi - 0.5)) < 1e-15


def test_window_factor_limits():
    assert window_factor(0.0, 10.0) == 1.0
    # a near-resonant argument agrees with the direct formula, in a form that does not cancel
    q, length = 1e-7, 1.0
    x = q * length
    direct = np.sin(x) / x + 2j * np.sin(x / 2) ** 2 / x
    assert abs(window_factor(q, length) - direct) < 1e-12
    # quadrature cross-check at a generic argument
    x = np.linspace(0, 7.3, 200001)
    quad = np.trapezoid(np.exp(2.1j * x), x) / 7.3
    assert abs(window_factor(2.1, 7.3) - quad) < 1e-8


def test_window_factor_near_resonance_keeps_full_accuracy():
    # sin(x) / x + i 2 sin^2(x / 2) / x is the same mean with nothing to cancel
    x = np.concatenate([np.geomspace(1e-9, 10.0, 400), -np.geomspace(1e-9, 10.0, 40)])
    exact = np.sin(x) / x + 2j * np.sin(x / 2) ** 2 / x
    assert np.max(np.abs(window_factor(x, 1.0) - exact)) < 1e-15


def _window_factor_before(q, length):
    """``window_factor`` as it was before each entry evaluated one form only: every form everywhere."""
    ql = np.multiply(q, length, dtype=float)
    near = np.abs(ql) < 0.1
    arg = 1j * np.where(near, 1.0, ql)
    h = np.where(ql == 0.0, 1.0, ql / 2.0)
    out = np.where(near, np.exp(1j * h) * (np.sin(h) / h), (np.exp(arg) - 1.0) / arg)
    out = np.where(ql == 0.0, 1.0 + 0.0j, out)
    return out if out.ndim else complex(out)


_EDGES = [0.0, -0.0, 1e-9, -1e-9, 1e-8, -1e-8] + [
    s * v for v in (np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0)) for s in (1.0, -1.0)]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cols=st.integers(1, 13), rows=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
       edges=st.lists(st.sampled_from(_EDGES), max_size=6))
def test_window_factor_keeps_its_bits(cols, rows, seed, edges):
    """Random tables of q L with values at both branch edges and at 0; the first length is 1."""
    rng = np.random.default_rng(seed)
    q = rng.choice([1e-3, 0.05, 1.0, 30.0], cols) * rng.uniform(-1.0, 1.0, cols)
    q[:len(edges)] = edges[:cols]
    lengths = np.concatenate([[1.0], rng.uniform(0.5, 64.0, rows)])[:, np.newaxis] if rows else 1.0
    got, want = window_factor(q, lengths), _window_factor_before(q, lengths)
    assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for qi in q[:3]:  # a scalar call returns a Python complex with the same bits
        got, want = window_factor(float(qi), 1.0), _window_factor_before(float(qi), 1.0)
        assert type(got) is complex and np.array(got).tobytes() == np.array(want).tobytes()


def test_resonant_point():
    # lam (.) cell / 2 pi must be an integer point within 1e-9 on every axis
    cell = Cell((1.0, 2.0))
    assert resonant_point([2 * np.pi, -np.pi], cell) == (1, -1)
    assert resonant_point([0.0, 0.0], cell) == (0, 0)
    assert resonant_point([2 * np.pi + 1e-12, 0.0], cell) == (1, 0)
    assert resonant_point([2 * np.pi + 1e-6, 0.0], cell) is None
    assert resonant_point([2 * np.pi, 0.5], cell) is None


def test_cell_validation():
    with pytest.raises(ValidationError):
        Cell((1.0, -2.0))
    with pytest.raises(ValidationError):
        Cell((1.0, 1.0, 1.0, 1.0))
