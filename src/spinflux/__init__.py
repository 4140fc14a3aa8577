"""Heat transport through an open spin-1/2 Heisenberg chain.

Dense master-equation machinery for a chain coupled to two thermal baths:
non-secular and secular Born-Markov generators, a weak-internal-coupling
Lindblad generator whose stationary state carries the energy current, and a
reproducible quantum-jump trajectory sampler for every Lindblad variant.
"""

__version__ = "0.1.0"

from .bath import BathSpec, planck, rate, spectral_density
from .chain import (ChainSpec, build_coupling_operator, build_current_operator,
                    build_hamiltonian, build_interaction,
                    build_local_hamiltonian, build_local_hamiltonian_site)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .dissipators import (Generator, LindbladTerms, VariantError, bohr_decompose,
                          gamma_matrix, gamma_remainder_factor, split_gamma)
from .liouville import (DegenerateSteadyStateError, SolverError,
                        SteadyStateReport, Superoperator, apply, assemble,
                        propagate, steady_state)
from .mcwf import (NormCollapseError, Trajectory, TrajectoryEnsembleResult,
                   effective_hamiltonian, evolve_trajectory, run_ensemble,
                   split_seed)
from .observables import (TransportReport, bond_currents, diagonality_defect,
                          expectation_series, gibbs_state, local_energies,
                          reported_current_operator, trace_distance,
                          transport_report)
from .operators import DimensionError, EigenSystem, Operator, eig_hermitian, pauli
