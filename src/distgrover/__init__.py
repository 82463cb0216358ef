"""Exact desk-scale simulation of Grover search, amplitude estimation /
quantum counting, distributed subfunction search, and CNF phase-oracle
compilation, with exact query accounting throughout."""

from .cnf import CnfFormula, parse_dimacs
from .compiler import (CircuitIR, build_uk, compile_phase_oracle, gate_count,
                       oracle_from_formula)
from .distributed import (DistOutcome, build_candidate_set, candidate_window,
                          decompose, run_parallel, run_serial, threshold_t_a,
                          worst_case_query_bound)
from .errors import (CapacityError, DistGroverError, InvariantError,
                     ParseError, UsageError)
from .estimation import (CountEstimate, QOperator, counting_grid_for,
                         est_amp_distribution, relaxed_error_bound, run_count)
from .grover import (Evolution, GroverOutcome, Plane, apply_grover_iterate,
                     grover_iterations, run_grover, success_probability)
from .ledger import QueryLedger
from .oracle import BooleanFunction
from .statevector import (MeasurementDistribution, StateVector,
                          apply_controlled_powers, apply_diagonal_phase,
                          apply_hadamard_all, apply_zero_reflection,
                          init_basis, measurement_distribution, sample)

__version__ = "0.1.0"
