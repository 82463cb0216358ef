import dataclasses
import tracemalloc

import numpy as np
import pytest

from distgrover import (
    BooleanFunction,
    CnfFormula,
    Evolution,
    QueryLedger,
    compile_phase_oracle,
    compiler,
    est_amp_distribution,
    gate_count,
    oracle_from_formula,
    parse_dimacs,
    run_grover,
)
from distgrover.cnf import BLOCK
from distgrover.compiler import (
    ELEMENTARY_SCALING_CONSTANT,
    CircuitIR,
    MultiControlledAdd,
    PauliX,
    ZeroPhaseOnCounter,
    build_uk,
    circuit_diagonal,
    counter_width,
)
from distgrover.errors import InvariantError, ParseError, UsageError

from conftest import live_counter_apply, random_3cnf
from reference import (reference_truth_value, reference_truth_values,
                       simulate_oracle_circuit, step_oracle_circuit)

EXAMPLE = """\
c a small instance
p cnf 3 3
1 -2 0
2 3 0
-1 0
"""


def test_parse_example_semantics():
    f = parse_dimacs(EXAMPLE)
    assert f.variable_count == 3
    assert f.clauses == [(1, -2), (2, 3), (-1,)]
    # x1=0 forced, then (x1 or not x2) forces x2=0, then x3=1: index 001
    assert np.array_equal(f.truth_values(),
                          np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
    assert np.array_equal(f.truth_values(), reference_truth_values(f))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_dimacs("p cnf 2 1\nc ok\n1 9 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")
    with pytest.raises(ParseError, match="unterminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("c nothing here\n")
    with pytest.raises(ParseError, match="declares 3"):
        parse_dimacs("p cnf 2 3\n1 0\n2 0\n")


def test_parse_exit_code_is_two():
    with pytest.raises(ParseError) as err:
        parse_dimacs("")
    assert err.value.exit_code == 2


def test_tautology_dropped_with_warning():
    with pytest.warns(UserWarning, match="tautological"):
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert f.clauses == [(2,)]
    assert f.dropped_tautologies == 1
    assert f.original_clause_count == 2


def test_duplicate_literals_deduplicated():
    f = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert f.clauses == [(1, -2)]


def test_empty_clause_is_constant_false():
    f = parse_dimacs("p cnf 2 2\n0\n1 0\n")
    assert f.clauses == [(), (1,)]
    assert reference_truth_values(f)[0b10] == 0
    assert not f.truth_values().any()


def test_empty_clause_and_tautology_count_toward_header():
    with pytest.warns(UserWarning, match="tautological clause at line 3"):
        f = parse_dimacs("p cnf 2 3\n0\n1 -1 0\n2 0\n")
    assert f.clauses == [(), (2,)]
    assert f.original_clause_count == 3
    assert f.dropped_tautologies == 1
    assert f.truth_values().tolist() == [0] * 4
    with pytest.warns(UserWarning), \
            pytest.raises(ParseError, match="declares 2 clauses, found 3"):
        parse_dimacs("p cnf 2 2\n0\n1 -1 0\n2 0\n")


def test_clause_is_false_semantics():
    # a one-clause formula is 0 exactly where its clause is false
    truth = CnfFormula(2, [(1, -2)]).truth_values()
    assert (truth[0b01], truth[0b11], truth[0b00]) == (0, 1, 1)
    assert CnfFormula(3, [(-3,)]).truth_values()[0b001] == 0


def test_restrict_cnf_matches_table_restriction(rng):
    formulas = [random_3cnf(rng.randint(3, 7), rng.randint(1, 10), rng)
                for _ in range(20)]
    for n in (3, 4, 5, 6, 7):           # with the empty clause: constant false
        formula = random_3cnf(n, 4, rng)
        formula.clauses.insert(rng.randint(0, 4), ())
        formulas.append(formula)
    formulas += [CnfFormula(4, []), CnfFormula(5, [()]),   # constants
                 # every clause satisfied, or emptied, by some suffix
                 CnfFormula(4, [(3, 4)]), CnfFormula(4, [(-4,), (3, 4)])]
    for formula in formulas:
        n = formula.variable_count
        full = formula.truth_values()
        assert np.array_equal(full, reference_truth_values(formula))
        functions = (BooleanFunction.from_cnf(formula),
                     oracle_from_formula(formula))
        for f in functions:
            assert np.array_equal(f.truth_values(), full)
        for k in range(1, n):
            for y in range(1 << k):
                suffix = format(y, f"0{k}b")
                for f in functions:
                    assert np.array_equal(f.restrict(suffix).truth_values(),
                                          full[y::1 << k])


@pytest.mark.parametrize("suffix", ["2", [2], [-1], [1.7], [1.0], ["10"],
                                    [None], ["b"]],
                         ids=["char 2", "int 2", "int -1", "float 1.7",
                              "float 1.0", "string 10", "None", "char b"])
def test_restrict_cnf_rejects_a_suffix_that_is_not_bits(suffix):
    # tabulated and compiled CNF functions restrict by the one marked-set
    # filter, which reads a suffix as bits before anything else
    for clause in ((2,), (-2,)):
        formula = CnfFormula(2, [clause])
        for f in (BooleanFunction.from_cnf(formula),
                  oracle_from_formula(formula)):
            with pytest.raises(UsageError, match="bits 0 and 1"):
                f.restrict(suffix)


def test_build_uk_flips_and_controls():
    gates = build_uk((1, -3))
    assert [type(g) for g in gates] == [PauliX, MultiControlledAdd, PauliX]
    assert gates[0].qubit == 0 and gates[2].qubit == 0   # only positive lits
    assert gates[1].controls == (0, 2)
    assert not gates[1].subtract


def test_compile_structure():
    f = parse_dimacs(EXAMPLE)
    circuit = compile_phase_oracle(f)
    assert circuit.input_qubits == 3
    assert circuit.counter_qubits == counter_width(3) == 2
    assert gate_count(circuit) == 2 * 3 + 1
    kinds = [type(g) for g in circuit.gates if not isinstance(g, PauliX)]
    assert kinds[3] is ZeroPhaseOnCounter
    adds = [g for g in circuit.gates if isinstance(g, MultiControlledAdd)]
    assert [g.subtract for g in adds] == [False] * 3 + [True] * 3
    # mirrored clause order on the unwind
    assert [g.controls for g in adds] == [(0, 1), (1, 2), (0,),
                                          (0,), (1, 2), (0, 1)]


def test_counter_width_values():
    assert counter_width(1) == 1
    assert counter_width(3) == 2
    assert counter_width(7) == 3
    assert counter_width(8) == 4
    for m in range(1, 65):
        assert counter_width(m) <= m


def test_constant_formulas_compile():
    # no clauses is a lone Z0C on a 1-qubit counter; an empty clause is an
    # increment with no controls, which fires on every input
    cases = [(parse_dimacs("p cnf 3 0\n"), 1,
              "oracle n=3 m=0 counter=1\n"
              "Z0C\n"),
             (CnfFormula(3, [(), (1,)]), 0,
              "oracle n=3 m=2 counter=2\n"
              "CADD ctrls=[]\n"
              "X q0\n"
              "CADD ctrls=[+q0]\n"
              "X q0\n"
              "Z0C\n"
              "X q0\n"
              "CSUB ctrls=[+q0]\n"
              "X q0\n"
              "CSUB ctrls=[]\n")]
    for formula, value, text in cases:
        circuit = compile_phase_oracle(formula)
        assert circuit.to_text() == text
        bits = circuit_diagonal(circuit)
        assert bits.tolist() == [bool(value)] * 8
        for y in range(8):
            assert simulate_oracle_circuit(circuit, y) == (1 - 2 * value, 1)


def test_constant_formulas_give_constant_oracles():
    for formula, value in [(CnfFormula(variable_count=3, clauses=[]), 1),
                           (parse_dimacs("p cnf 3 2\n0\n1 0\n"), 0)]:
        oracle = oracle_from_formula(formula)
        assert oracle.truth_values().tolist() == [value] * 8


def test_simulation_phase_and_restoration(rng):
    for _ in range(15):
        n = rng.randint(2, 6)
        formula = random_3cnf(n, rng.randint(1, 8), rng)
        circuit = compile_phase_oracle(formula)
        truth = formula.truth_values()
        for y in range(1 << n):
            phase, restored = simulate_oracle_circuit(circuit, y)
            assert restored == 1
            assert phase == 1 - 2 * int(truth[y])


def test_counter_trace_prefix_and_unwind():
    f = parse_dimacs(EXAMPLE)
    circuit = compile_phase_oracle(f)
    m = f.clause_count
    for y in range(1 << f.variable_count):
        _, trace, _ = step_oracle_circuit(circuit, y)
        assert len(trace) == 2 * m + 1
        falsities = [1 - int(reference_truth_values(CnfFormula(3, [c]))[y])
                     for c in f.clauses]
        # forward pass: counter = false clauses among the first i
        for i in range(m):
            assert trace[i] == sum(falsities[:i + 1])
        assert trace[m] == sum(falsities)            # unchanged by the flip
        assert trace[-1] == 0                        # fully unwound
        assert max(trace) <= m                       # never wraps mod 2^M


def test_ir_text_golden():
    circuit = compile_phase_oracle(parse_dimacs("p cnf 2 1\n1 -2 0\n"))
    assert circuit.to_text() == (
        "oracle n=2 m=1 counter=1\n"
        "X q0\n"
        "CADD ctrls=[+q0,+q1]\n"
        "X q0\n"
        "Z0C\n"
        "X q0\n"
        "CSUB ctrls=[+q0,+q1]\n"
        "X q0\n")


def test_gate_counts(rng):
    for m in [1, 2, 3, 7, 8, 20, 64]:
        n = 6
        formula = random_3cnf(n, m, rng)
        if formula.clause_count != m:
            continue
        circuit = compile_phase_oracle(formula)
        assert gate_count(circuit) == 2 * m + 1
        width = counter_width(m)
        assert gate_count(circuit, elementary=True) <= (
            ELEMENTARY_SCALING_CONSTANT * m * width)


def test_compiled_oracle_matches_formula(rng):
    formula = random_3cnf(5, 6, rng)
    oracle = oracle_from_formula(formula)
    assert np.array_equal(oracle.truth_values(), formula.truth_values())
    bits = circuit_diagonal(compile_phase_oracle(formula))
    assert bits.dtype == bool
    assert np.array_equal(bits, formula.truth_values() == 1)


def test_mask_tables_match_a_per_literal_reference(rng):
    for n in range(1, 13):
        for m in (0, 1, n, 3 * n):
            formula = random_3cnf(n, m, rng)
            if m == n:
                formula.clauses.insert(rng.randrange(m + 1), ())
            want = reference_truth_values(formula)
            got = formula.truth_values()
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), formula


def test_mask_diagonals_match_a_per_gate_reference(rng):
    for n in range(1, 13):
        for m in (1, n, 2 * n if n <= 10 else n + 3):
            circuit = compile_phase_oracle(random_3cnf(n, m, rng))
            runs = [simulate_oracle_circuit(circuit, y)
                    for y in range(1 << n)]
            assert all(restored for _, restored in runs)
            assert np.array_equal(circuit_diagonal(circuit),
                                  [phase == -1 for phase, _ in runs])


def test_compiled_oracle_phase_on_superposition(rng):
    formula = random_3cnf(4, 5, rng)
    oracle = oracle_from_formula(formula)
    table = BooleanFunction.from_truth_table(formula.truth_values())
    amps = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(16)])
    amps /= np.linalg.norm(amps)
    from distgrover import StateVector
    sv_a = StateVector(amps.copy())
    sv_b = StateVector(amps.copy())
    oracle.apply_phase_oracle(sv_a, range(0, 4))
    table.apply_phase_oracle(sv_b, range(0, 4))
    assert np.allclose(sv_a.amps, sv_b.amps, atol=1e-12)


def test_grover_identical_with_compiled_oracle(rng):
    formula = random_3cnf(5, 4, rng)
    a = int(formula.truth_values().sum())
    if a == 0:
        pytest.skip("unsatisfiable draw")
    compiled = oracle_from_formula(formula)
    table = BooleanFunction.from_truth_table(formula.truth_values())
    out_c = run_grover(Evolution(compiled), a, 31, QueryLedger())
    out_t = run_grover(Evolution(table), a, 31, QueryLedger())
    assert out_c.measured_x == out_t.measured_x
    assert out_c.is_solution == out_t.is_solution


def test_compiled_oracle_restrict(rng):
    formula = random_3cnf(5, 6, rng)
    oracle = oracle_from_formula(formula)
    full = formula.truth_values()
    for y in range(4):
        sub = oracle.restrict(format(y, "02b"))
        assert np.array_equal(sub.truth_values(), full[y::4])


def test_diagonal_matches_live_counter_execution(rng):
    gen = np.random.default_rng(17)
    for _ in range(20):
        n = rng.randint(2, 8)
        circuit = compile_phase_oracle(random_3cnf(n, rng.randint(1, 24), rng))
        amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
        # both are exact permutations and sign flips, so equality is exact
        assert np.array_equal(live_counter_apply(circuit, amps),
                              np.where(circuit_diagonal(circuit), -amps, amps))


def test_diagonal_rejects_unrestoring_circuit():
    circuit = compile_phase_oracle(parse_dimacs(EXAMPLE))
    gates = list(circuit.gates)
    csub = next(i for i, g in enumerate(gates)
                if isinstance(g, MultiControlledAdd) and g.subtract)
    x_gate = next(i for i, g in enumerate(gates) if isinstance(g, PauliX))
    for drop in (csub, x_gate):
        broken = dataclasses.replace(
            circuit, gates=tuple(gates[:drop] + gates[drop + 1:]))
        with pytest.raises(InvariantError, match="does not restore"):
            circuit_diagonal(broken)
    with pytest.raises(InvariantError):
        live_counter_apply(dataclasses.replace(
            circuit, gates=tuple(gates[:csub] + gates[csub + 1:])),
            np.ones(8, dtype=complex))


def test_steppers_agree_modulo_two_to_the_m():
    # hand-built circuits on n = 2 inputs and M = 2 counter qubits, whose
    # counter does leave 0..m: the three steppers all count modulo 2^M
    cadd = MultiControlledAdd(controls=(0,))
    wraps = CircuitIR(input_qubits=2, counter_qubits=2, clause_count=3,
                      gates=(cadd,) * 4 + (ZeroPhaseOnCounter(),))
    assert circuit_diagonal(wraps).tolist() == [True] * 4
    for y in range(4):
        index, trace, phase = step_oracle_circuit(wraps, y)
        assert (index, phase) == (y, -1)
        assert trace == ([1, 2, 3, 0, 0] if y >= 2 else [0] * 5)
    amps = np.arange(1.0, 5.0)
    assert np.array_equal(live_counter_apply(wraps, amps), -amps)

    lone = dataclasses.replace(
        wraps, gates=(MultiControlledAdd(controls=(0,), subtract=True),))
    assert [step_oracle_circuit(lone, y)[1] for y in range(4)] == \
        [[0], [0], [3], [3]]
    with pytest.raises(InvariantError, match="does not restore input 2"):
        circuit_diagonal(lone)
    with pytest.raises(InvariantError):
        live_counter_apply(lone, amps)


def _planted_3cnf(n: int, m: int, rng) -> tuple[CnfFormula, int]:
    # m random 3-clauses, each satisfied by one hidden assignment
    hidden = rng.getrandbits(n)
    clauses = []
    while len(clauses) < m:
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1), 3))
        if any((lit > 0) == bool(hidden >> (n - abs(lit)) & 1)
               for lit in clause):
            clauses.append(clause)
    return CnfFormula(n, clauses), hidden


def test_cnf_function_holds_its_marked_set_not_a_table(rng):
    # a CNF function, tabulated or compiled, keeps 8 bytes per marked input
    # once it is made; a 2^n-byte truth table would be eight times the bound
    n = 18
    formula, hidden = _planted_3cnf(n, 4 * n, rng)
    for build in (BooleanFunction.from_cnf, oracle_from_formula):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = build(formula)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert hidden in f.marked
        assert held <= (1 << n) // 8


def test_compiled_oracle_compiles_once_and_restricts_by_filtering(
        monkeypatch):
    calls = []

    def counting_diagonal(circuit):
        calls.append(circuit.input_qubits)
        return circuit_diagonal(circuit)

    monkeypatch.setattr(compiler, "circuit_diagonal", counting_diagonal)
    # two solutions: 4 Grover iterates, each one oracle query
    f = oracle_from_formula(CnfFormula(6, [(1,), (2,), (-3,), (4,), (5,)]))
    ledger = QueryLedger()
    run_grover(Evolution(f), 2, 5, ledger)
    assert ledger.quantum_queries == 4
    est_amp_distribution(f, 3)
    sub = f.restrict("1")
    for _ in range(2):
        run_grover(Evolution(sub), 1, 5, QueryLedger())
    assert calls == [6]


def test_blocks_agree_across_the_block_boundary(rng):
    # n = 17 is two blocks: both steppers match the per-literal and per-gate
    # references on each side of the boundary, and each other everywhere
    n = 17
    assert 1 << n == 2 * BLOCK == 2 * 65536
    edges = (0, 65535, 65536, (1 << n) - 1)
    xor = CnfFormula(n, [(1, 17), (-1, -17)])      # x1 != x17
    assert xor.truth_values()[list(edges)].tolist() == [0, 1, 1, 0]
    for formula in (xor, _planted_3cnf(n, 4 * n, rng)[0]):
        circuit = compile_phase_oracle(formula)
        truth = formula.truth_values()
        assert np.array_equal(circuit_diagonal(circuit), truth == 1)
        for y in edges:
            want = reference_truth_value(formula, y)
            assert truth[y] == want
            assert simulate_oracle_circuit(circuit, y) == (1 - 2 * want, 1)


def test_diagonal_names_a_broken_input_of_a_later_block():
    # (-1,) without its CSUB leaves the counter at 1 exactly where x1 = 1:
    # on every input of the second block and on none of the first
    circuit = compile_phase_oracle(CnfFormula(17, [(-1,)]))
    gates = tuple(g for g in circuit.gates
                  if not (isinstance(g, MultiControlledAdd) and g.subtract))
    assert len(gates) == len(circuit.gates) - 1
    with pytest.raises(InvariantError, match="does not restore input 65536: "
                       "it ends at input 65536 with counter 1"):
        circuit_diagonal(dataclasses.replace(circuit, gates=gates))


def test_cnf_functions_peak_within_their_table_plus_two_mib(rng):
    # evaluating in blocks holds one 2^n-byte result and block-sized work
    # arrays, so neither builder peaks above 2^n bytes + 2 MiB
    n = 20
    formula, hidden = _planted_3cnf(n, 4 * n, rng)
    for build in (BooleanFunction.from_cnf, oracle_from_formula):
        tracemalloc.start()
        try:
            f = build(formula)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hidden in f.marked
        assert peak <= (1 << n) + (2 << 20), (build.__name__, peak)
