"""Laminates: media whose coefficients depend on xi_1 alone, against their 1D twins.

A laminate's Galerkin operator is block diagonal in G_perp, the reciprocal
vector across the layers, because every coefficient harmonic has n_perp = 0.
These identities are exact in the plane-wave basis, so they need no ODE:

* at k_perp = 0 the G_perp = 0 block of a scalar laminate's A and B is, entry
  for entry, the 1D operator of the same fields; the other blocks carry
  a_22 |G_perp|^2, so for the media here the lowest band is that block's;
* a Schrodinger laminate without a magnetic potential separates:
  H(k1, k_perp) on the G_perp = 0 block is H_1D(k1) + |k_perp|^2 / (2m) I,
  and for k_perp in the first zone that block holds the lowest band.
"""

import numpy as np
import pytest

from hfh import bloch, medium
from hfh.fourier import Cell

CUTOFF = 6
LINE, SHEET = Cell((1.0,)), Cell((1.0, 1.3))
A = [((1,), 0.8, 0.3), ((2,), 0.3, 1.7)]
B = [((1,), 0.3, 1.1)]
V = [((1,), 2.0, 0.4), ((2,), 0.7, 1.3)]
MASS = 0.7


def _layered(harmonics):
    """The 1D harmonics as harmonics of a 2D cell along axis 0 only."""
    return [((n[0], 0), *rest) for n, *rest in harmonics]


@pytest.mark.parametrize("k1", [0.9, -2.4, np.pi])
def test_scalar_laminate_holds_its_1d_operator(k1):
    line = medium.build_scalar_medium(medium.cosine(2.0, A), medium.cosine(1.2, B), LINE, CUTOFF)
    # an anisotropic a with a_12 != 0; at k_perp = 0 only a_11 reaches the G_perp = 0 block
    a12 = medium.cosine(0.0, [((1, 0), 0.4, 0.9)])
    a = [[medium.cosine(2.0, _layered(A)), a12], [a12, medium.cosine(1.5, [((1, 0), 0.2, 0.4)])]]
    sheet = medium.build_scalar_medium(a, medium.cosine(1.2, _layered(B)), SHEET, CUTOFF)
    op1 = bloch.assemble_operator(line, [k1], CUTOFF)
    op2 = bloch.assemble_operator(sheet, [k1, 0.0], CUTOFF)
    block = np.ix_(*[np.flatnonzero(op2.basis[:, 1] == 0)] * 2)
    assert np.array_equal(op2.A[block], op1.A) and np.array_equal(op2.B[block], op1.B)
    omega1 = bloch.solve_bands(op1, 1)[0].omega
    omega2 = bloch.solve_bands(op2, 1)[0].omega
    assert abs(omega2 - omega1) <= 5e-12 * omega1


@pytest.mark.parametrize("k1", [0.0, 0.9, -2.4])
def test_schrodinger_laminate_separates(k1):
    line = medium.build_schrodinger_blocks(MASS, 1.3, medium.cosine(0.5, V), None, LINE, CUTOFF)
    sheet = medium.build_schrodinger_blocks(MASS, 1.3, medium.cosine(0.5, _layered(V)), None, SHEET, CUTOFF)
    energy1 = bloch.solve_at(line, [k1], CUTOFF, 1)[0].omega
    for k_perp in (0.0, 0.7, 1.9, -np.pi / SHEET.lengths[1]):  # the last on the zone edge
        want = energy1 + k_perp ** 2 / (2.0 * MASS)
        energy2 = bloch.solve_at(sheet, [k1, k_perp], CUTOFF, 1)[0].omega
        assert abs(energy2 - want) <= 5e-12 * abs(want)
