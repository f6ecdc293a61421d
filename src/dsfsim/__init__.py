"""Classical emulation and resource estimation for momentum-resolved
spectra computed from time-domain Green's functions."""

from .operators import (DipoleOperator, Hamiltonian, QVector, from_core_integrals,
                        jordan_wigner, one_body_to_pauli, parse_fcidump,
                        write_fcidump)
from .pauli import PauliSum
from .ci import (CIVector, Determinant, apply_one_body, ci_to_statevector,
                 cvs_mask, normalize)
from .emulator import TrotterProgram, apply_trotter, build_trotter
from .oracle import (EigenSystem, TransitionTable, build_ci_matrix, exact_greens,
                     exact_intensity, exact_spectrum, sector_basis, solve_sector,
                     transition_table)
from .spectrum import (GreensSeries, RunPlan, Spectrum, allocate_shots,
                       assemble_dsf, cross_section, isotropic_dsf, measure_all,
                       measure_series, plan_run, prepare_dipole_states,
                       reconstruct_intensity, resample_series)
from .resources import (DEFAULT_MODEL, CostModel, ResourceReport, algorithm_cost,
                        calibrate, circuit_cost, rot_t_cost)
from .fixtures import ModelSpec, generate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
