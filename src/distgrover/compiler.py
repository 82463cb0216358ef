"""CNF phase-oracle circuits.

A formula with m clauses compiles to a palindromic gate list over n input
qubits and a counter register of M = ceil(log2(m+1)) qubits appended after
them: one clause-failure incrementer U_k per clause, a phase flip on the
all-zero counter, then the mirrored decrementers. The counter tracks how
many clauses are false, so the phase flip fires exactly when f(y) = 1, and
the mirror restores the counter to |0..0>.

Each U_k block is X gates on the positively occurring variables (turning the
clause-false pattern into all-ones), a multi-controlled modular increment
with one positive control per literal, and the mirror X gates. ADD is the
cyclic increment modulo m+1 on counter values 0..m, extended as the identity
on values above m: the minimal unitary completion, never reached from |0>
since at most m clauses can fail.

Every gate maps basis states to basis states and the counter always comes
back to |0..0>, so the whole circuit acts on the input register as one +-1
diagonal. One stepper, `_run`, carries an integer index, counter and phase
bit per input through the gates: `circuit_diagonal` runs all 2^n inputs at
once (a compiled oracle is a BooleanFunction with that diagonal as its truth
table), `counter_trace` and `simulate_oracle_circuit` run one. Tests check
the diagonal against `CnfFormula.truth_values` and the live-counter execution
`tests/conftest.py::live_counter_apply`. A constant formula (no clauses, or
the empty clause) has no circuit and gets a constant oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cnf as cnfmod
from .errors import InvariantError, NotCompilableError, UsageError
from .oracle import BooleanFunction, _as_index
from .statevector import check_capacity

# Elementary-gate accounting for gate_count(elementary=True). Constants model
# the standard ancilla-assisted constructions: a modular incrementer on M
# counter qubits costs ADD_COST_PER_QUBIT * M elementary gates, each control
# on it adds CONTROL_COST via a Toffoli chain, and the counter phase flip
# costs ZERO_PHASE_COST_PER_QUBIT * M. ELEMENTARY_SCALING_CONSTANT is the
# documented C with elementary count <= C * m * ceil(log2(m+1)) for 3CNF.
ADD_COST_PER_QUBIT = 24
CONTROL_COST = 8
ZERO_PHASE_COST_PER_QUBIT = 8
ELEMENTARY_SCALING_CONSTANT = 130


@dataclass(frozen=True)
class PauliX:
    qubit: int

    def to_text(self) -> str:
        return f"X q{self.qubit}"


@dataclass(frozen=True)
class MultiControlledAdd:
    controls: tuple[int, ...]   # input qubits, each firing on |1>
    modulus: int
    subtract: bool = False

    def to_text(self) -> str:
        name = "CSUB" if self.subtract else "CADD"
        ctrls = ",".join(f"+q{q}" for q in self.controls)
        return f"{name} mod={self.modulus} ctrls=[{ctrls}]"


@dataclass(frozen=True)
class ZeroPhaseOnCounter:
    width: int

    def to_text(self) -> str:
        return f"Z0C width={self.width}"


@dataclass(frozen=True)
class CircuitIR:
    input_qubits: int
    counter_qubits: int
    clause_count: int
    gates: tuple

    def to_text(self) -> str:
        header = (f"oracle n={self.input_qubits} m={self.clause_count} "
                  f"counter={self.counter_qubits}")
        return "\n".join([header] + [g.to_text() for g in self.gates]) + "\n"


def counter_width(clause_count: int) -> int:
    return max(1, math.ceil(math.log2(clause_count + 1)))


def build_uk(clause: tuple[int, ...], modulus: int,
             subtract: bool = False) -> list:
    """Gate block incrementing (or decrementing) the counter exactly when
    the clause is false under the input assignment."""
    if not clause:
        raise UsageError("cannot build a block for an empty clause")
    flips = [PauliX(abs(lit) - 1) for lit in clause if lit > 0]
    core = MultiControlledAdd(
        controls=tuple(sorted(abs(lit) - 1 for lit in clause)),
        modulus=modulus, subtract=subtract)
    return flips + [core] + list(reversed(flips))


def compile_phase_oracle(formula: cnfmod.CnfFormula) -> CircuitIR:
    """Palindromic oracle circuit U_1..U_m, Z0(counter), U_m'..U_1'."""
    if formula.constant_false:
        raise NotCompilableError(
            "constant-false formula has no oracle circuit; use a constant "
            "oracle instead")
    m = formula.clause_count
    if m < 1:
        raise NotCompilableError(
            "constant-true formula (no clauses) is not compilable; use a "
            "constant oracle instead")
    width = counter_width(m)
    modulus = m + 1
    gates: list = []
    for clause in formula.clauses:
        gates.extend(build_uk(clause, modulus))
    gates.append(ZeroPhaseOnCounter(width=width))
    for clause in reversed(formula.clauses):
        gates.extend(build_uk(clause, modulus, subtract=True))
    return CircuitIR(input_qubits=formula.variable_count,
                     counter_qubits=width, clause_count=m,
                     gates=tuple(gates))


def _run(circuit: CircuitIR, inputs: np.ndarray,
         trace: list | None = None):
    """Final (index, counter, phase flipped) arrays of |y>|0>_C for every
    basis index y in `inputs`: X flips an index bit, CADD/CSUB step the
    counter in place modulo m+1 where every control holds (one mask test
    for all of them) and the counter is below m+1, Z0C toggles the phase
    where the counter is 0. Appends a copy of the counter to `trace`, if
    given, after each non-X gate."""
    n = circuit.input_qubits
    top = max((g.modulus for g in circuit.gates
               if isinstance(g, MultiControlledAdd)), default=1)
    index = inputs.astype(np.min_scalar_type((1 << n) - 1))
    counter = np.zeros(inputs.shape, dtype=np.min_scalar_type(2 * top))
    flipped = np.zeros(inputs.shape, dtype=bool)
    for gate in circuit.gates:
        if isinstance(gate, PauliX):
            index ^= 1 << (n - 1 - gate.qubit)
            continue
        if isinstance(gate, MultiControlledAdd):
            controls = sum(1 << (n - 1 - q) for q in gate.controls)
            fires = counter < gate.modulus
            fires &= (index & controls) == controls
            step = gate.modulus - 1 if gate.subtract else 1
            np.add(counter, step, out=counter, where=fires)
            np.remainder(counter, gate.modulus, out=counter, where=fires)
        else:
            flipped ^= counter == 0
        if trace is not None:
            trace.append(counter.copy())
    return index, counter, flipped


def counter_trace(circuit: CircuitIR, input_basis) -> list[int]:
    """Counter value after each non-X gate on the basis input |y>|0>_C."""
    trace: list = []
    _run(circuit, np.array([_as_index(input_basis, circuit.input_qubits)]),
         trace)
    return [int(counter[0]) for counter in trace]


def simulate_oracle_circuit(circuit: CircuitIR,
                            input_basis) -> tuple[int, int]:
    """(phase in {+1, -1}, 1 if the counter is restored to zero) on
    |y>|0>_C."""
    _, counter, flipped = _run(circuit, np.array(
        [_as_index(input_basis, circuit.input_qubits)]))
    return -1 if flipped[0] else 1, int(counter[0] == 0)


def circuit_diagonal(circuit: CircuitIR) -> np.ndarray:
    """The +-1 diagonal the circuit realizes on the input register, from one
    run of all 2^n basis inputs. Raises InvariantError unless every input
    ends with its bits restored and its counter back at 0, the condition
    under which the circuit acts on |y>|0>_C as (+-1)|y>|0>_C.
    """
    n = circuit.input_qubits
    check_capacity(n)
    inputs = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    index, counter, flipped = _run(circuit, inputs)
    broken = np.flatnonzero((index != inputs) | (counter != 0))
    if broken.size:
        y = int(broken[0])
        raise InvariantError(
            f"circuit does not restore input {y}: it ends at index "
            f"{int(index[y])} with counter {int(counter[y])}")
    return np.where(flipped, -1.0, 1.0)


def _compiled_truth_values(formula: cnfmod.CnfFormula) -> np.ndarray:
    return (circuit_diagonal(compile_phase_oracle(formula)) < 0) \
        .astype(np.uint8)


def oracle_from_formula(formula: cnfmod.CnfFormula) -> BooleanFunction:
    """BooleanFunction whose truth table is the diagonal of the formula's
    compiled circuit, propagated once on first use. Its restrictions are
    compiled from the restricted formula the same way."""
    return BooleanFunction.from_cnf(formula, _compiled_truth_values)


def gate_count(circuit: CircuitIR, elementary: bool = False) -> int:
    """IR block count (2m + 1) or the documented elementary-gate expansion."""
    if not elementary:
        return sum(1 for g in circuit.gates if not isinstance(g, PauliX))
    total = 0
    for gate in circuit.gates:
        if isinstance(gate, PauliX):
            total += 1
        elif isinstance(gate, MultiControlledAdd):
            total += (ADD_COST_PER_QUBIT * circuit.counter_qubits
                      + CONTROL_COST * len(gate.controls))
        else:
            total += ZERO_PHASE_COST_PER_QUBIT * gate.width + 2
    return total
