"""Bloch-wave band structure, homogenized envelope transport, and coupling diagnostics
for waves in periodic media (scalar, vector, and Schrodinger-type families)."""

__version__ = "0.1.0"

from .bands import DispersionTable, group_velocity_fd, sweep_path
from .bloch import (BlochMode, BlochOperator, assemble_operator, check_nondegenerate, solve_at,
                    solve_bands)
from .effective import (CouplingReport, EffectiveCoefficients, are_equivalent, coupling_coefficients,
                        effective_coefficients)
from .ergodic import WindowAverageResult, avg_derivative_product, avg_modulated_dd, avg_product_periodic
from .errors import NumericalError, ValidationError
from .fourier import Cell, FourierField
from .medium import (Medium, build_scalar_medium, build_schrodinger_blocks, build_vector_medium,
                     maxwell_tensor_from_permeability, medium_from_descriptor)
from .simulate import (EnvelopeFrames, GaussianEnvelope, GridSpec, SimulationRecord, WavePacketIC,
                       build_wavepacket_ic, extract_envelope, measure_packet_velocity,
                       packet_speed_experiment, run_fdtd_1d)
