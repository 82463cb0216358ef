"""CNF phase-oracle circuits.

A formula with m clauses compiles to a palindromic gate list over n input
qubits and a counter register of M = ceil(log2(m+1)) qubits (at least one)
appended after them: one clause-failure incrementer U_k per clause, a phase
flip on the all-zero counter, then the mirrored decrementers. The counter
tracks how many clauses are false, so the phase flip fires exactly when
f(y) = 1, and the mirror restores the counter to |0..0>.

Each U_k block is X gates on the positively occurring variables (turning the
clause-false pattern into all-ones), a multi-controlled increment with one
positive control per literal, and the mirror X gates. CADD and CSUB step the
M-qubit counter by +1 and -1 modulo 2^M. At most m < 2^M clauses fail, so
the counter never wraps on a compiled circuit. The IR states M once, in its
header. Constant formulas are plain CNF here too: no clauses compile to a
lone Z0C on a 1-qubit counter, so every phase flips (f = 1), and the empty
clause `()` to an increment with no controls, which fires on every input,
so no phase flips (f = 0).

Every gate maps basis states to basis states and the counter always comes
back to |0..0>, so the whole circuit acts on the input register as one +-1
diagonal. `circuit_diagonal` is the one gate stepper: it carries a counter
and a phase bit for the 2^n inputs through the gates, one block of
`cnf.BLOCK` inputs at a time, and returns the phase bits, 1 byte per input.
`oracle_from_formula` runs it once, when the oracle is made: a compiled
oracle is a BooleanFunction whose marked set is where the bits are set, and
it restricts like any other function, by filtering that set. Tests check
the phase bits against `CnfFormula.truth_values`, the one-input stepper in
`tests/reference.py` and the live-counter execution
`tests/conftest.py::live_counter_apply`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cnf as cnfmod
from .errors import InvariantError
from .oracle import BooleanFunction
from .statevector import check_capacity

# Elementary-gate accounting for gate_count(elementary=True). Constants model
# the standard ancilla-assisted constructions: an incrementer on M
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
    subtract: bool = False

    def to_text(self) -> str:
        name = "CSUB" if self.subtract else "CADD"
        ctrls = ",".join(f"+q{q}" for q in self.controls)
        return f"{name} ctrls=[{ctrls}]"


@dataclass(frozen=True)
class ZeroPhaseOnCounter:
    def to_text(self) -> str:
        return "Z0C"


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


def build_uk(clause: tuple[int, ...], subtract: bool = False) -> list:
    """Gate block incrementing (or decrementing) the counter exactly when
    the clause is false under the input assignment (on every input for
    the empty clause, whose increment has no controls)."""
    flips = [PauliX(abs(lit) - 1) for lit in clause if lit > 0]
    core = MultiControlledAdd(
        controls=tuple(sorted(abs(lit) - 1 for lit in clause)),
        subtract=subtract)
    return flips + [core] + list(reversed(flips))


def compile_phase_oracle(formula: cnfmod.CnfFormula) -> CircuitIR:
    """Palindromic oracle circuit U_1..U_m, Z0(counter), U_m'..U_1'."""
    m = formula.clause_count
    gates: list = []
    for clause in formula.clauses:
        gates.extend(build_uk(clause))
    gates.append(ZeroPhaseOnCounter())
    for clause in reversed(formula.clauses):
        gates.extend(build_uk(clause, subtract=True))
    return CircuitIR(input_qubits=formula.variable_count,
                     counter_qubits=counter_width(m), clause_count=m,
                     gates=tuple(gates))


def circuit_diagonal(circuit: CircuitIR) -> np.ndarray:
    """The diagonal the circuit realizes on the input register as 2^n phase
    bits, True where it is -1, from runs of the basis inputs |y>|0>_C, one
    block of inputs at a time (see `cnf.index_blocks`), each input carried
    as a counter and a phase bit. Only X moves an input bit, so the register
    reads y ^ flips, one integer for all inputs: CADD/CSUB step the counter
    by +-1 where every control holds (one mask test for all of them; with
    no controls, everywhere), Z0C toggles the phase where the counter is 0
    modulo 2^M. Raises InvariantError, naming the first such input, unless
    flips ends at 0 and every counter at 0, the condition under which the
    circuit acts on |y>|0>_C as (+-1)|y>|0>_C.
    """
    n = circuit.input_qubits
    check_capacity(n)
    mask = (1 << circuit.counter_qubits) - 1
    flipped = np.zeros(1 << n, dtype=bool)
    for where, inputs in cnfmod.index_blocks(n):
        # stepped modulo 2^bits of its dtype, read modulo 2^M through `mask`
        counter = np.zeros(inputs.shape, dtype=np.min_scalar_type(mask))
        phase = flipped[where]
        flips = 0
        for gate in circuit.gates:
            if isinstance(gate, PauliX):
                flips ^= 1 << (n - 1 - gate.qubit)
            elif isinstance(gate, MultiControlledAdd):
                controls = sum(1 << (n - 1 - q) for q in gate.controls)
                fires = (inputs & controls) == (controls & ~flips)
                (np.subtract if gate.subtract else np.add)(counter, fires,
                                                           out=counter)
            else:
                phase ^= (counter & mask) == 0
        broken = np.flatnonzero(counter & mask)
        if flips or broken.size:
            i = int(broken[0]) if broken.size else 0
            y = where.start + i
            raise InvariantError(
                f"circuit does not restore input {y}: it ends at input "
                f"{y ^ flips} with counter {int(counter[i]) & mask}")
    return flipped


def oracle_from_formula(formula: cnfmod.CnfFormula) -> BooleanFunction:
    """BooleanFunction whose marked set is where the formula's compiled
    circuit flips the phase."""
    return BooleanFunction(formula.variable_count, np.flatnonzero(
        circuit_diagonal(compile_phase_oracle(formula))))


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
            total += ZERO_PHASE_COST_PER_QUBIT * circuit.counter_qubits + 2
    return total
