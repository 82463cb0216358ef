import dataclasses

import numpy as np
import pytest

from distgrover import (
    BooleanFunction,
    CnfFormula,
    QueryLedger,
    compile_phase_oracle,
    compiler,
    est_amp_distribution,
    gate_count,
    oracle_from_formula,
    parse_dimacs,
    run_grover,
)
from distgrover.cnf import clause_is_false_index, restrict_cnf
from distgrover.compiler import (
    ELEMENTARY_SCALING_CONSTANT,
    MultiControlledAdd,
    PauliX,
    ZeroPhaseOnCounter,
    build_uk,
    circuit_diagonal,
    counter_trace,
    counter_width,
    simulate_oracle_circuit,
)
from distgrover.errors import (InvariantError, NotCompilableError,
                               ParseError, UsageError)

from conftest import live_counter_apply, random_3cnf

EXAMPLE = """\
c a small instance
p cnf 3 3
1 -2 0
2 3 0
-1 0
"""


def brute_truth(formula):
    n = formula.variable_count
    return np.array([formula.evaluate(y) for y in range(1 << n)],
                    dtype=np.uint8)


def test_parse_example_semantics():
    f = parse_dimacs(EXAMPLE)
    assert f.variable_count == 3
    assert f.clauses == [(1, -2), (2, 3), (-1,)]
    assert not f.constant_false
    # x1=0 forced, then (x1 or not x2) forces x2=0, then x3=1: index 001
    assert np.array_equal(f.truth_values(),
                          np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
    assert np.array_equal(f.truth_values(), brute_truth(f))


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
    assert f.constant_false
    assert f.evaluate(0b10) == 0
    assert not f.truth_values().any()


def test_empty_clause_and_tautology_count_toward_header():
    with pytest.warns(UserWarning, match="tautological clause at line 3"):
        f = parse_dimacs("p cnf 2 3\n0\n1 -1 0\n2 0\n")
    assert f.clauses == [(), (2,)]
    assert f.original_clause_count == 3
    assert f.dropped_tautologies == 1
    assert f.constant_false and not f.is_constant_true
    with pytest.warns(UserWarning), \
            pytest.raises(ParseError, match="declares 2 clauses, found 3"):
        parse_dimacs("p cnf 2 2\n0\n1 -1 0\n2 0\n")


def test_clause_is_false_semantics():
    assert clause_is_false_index((1, -2), 0b01, 2) == 1
    assert clause_is_false_index((1, -2), 0b11, 2) == 0
    assert clause_is_false_index((1, -2), 0b00, 2) == 0
    assert clause_is_false_index((-3,), 0b001, 3) == 1


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
        assert np.array_equal(full, brute_truth(formula))
        functions = (BooleanFunction.from_cnf(formula),
                     oracle_from_formula(formula))
        for f in functions:
            assert np.array_equal(f.truth_values(), full)
        for k in range(1, n):
            for y in range(1 << k):
                suffix = format(y, f"0{k}b")
                sub = restrict_cnf(formula, suffix)
                assert np.array_equal(sub.truth_values(), full[y::1 << k])
                assert np.array_equal(brute_truth(sub), full[y::1 << k])
                for f in functions:
                    assert np.array_equal(f.restrict(suffix).truth_values(),
                                          full[y::1 << k])


def test_restrict_cnf_cases():
    formula = CnfFormula(variable_count=3, clauses=[(1, 3), (-3,)])
    # x3 = 1 falsifies (-3) -> constant false
    assert restrict_cnf(formula, "1").constant_false
    # x3 = 0 satisfies (-3), shrinks (1, 3) to (1,)
    sub = restrict_cnf(formula, "0")
    assert sub.clauses == [(1,)]
    assert sub.variable_count == 2
    # a suffix's bits may be characters or integers, NumPy ones included
    for suffix in ("0", [0], (np.int64(0),), np.zeros(1, np.uint8)):
        assert restrict_cnf(formula, suffix).clauses == [(1,)]


@pytest.mark.parametrize("suffix", ["2", [2], [-1], [1.7], [1.0], ["10"],
                                    [None], ["b"]],
                         ids=["char 2", "int 2", "int -1", "float 1.7",
                              "float 1.0", "string 10", "None", "char b"])
def test_restrict_cnf_rejects_a_suffix_that_is_not_bits(suffix):
    for clause in ((2,), (-2,)):
        with pytest.raises(UsageError, match="bits 0 and 1"):
            restrict_cnf(CnfFormula(2, [clause]), suffix)


def test_build_uk_flips_and_controls():
    gates = build_uk((1, -3), modulus=4)
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


def test_constant_formulas_not_compilable():
    with pytest.raises(NotCompilableError):
        compile_phase_oracle(CnfFormula(variable_count=2, clauses=[]))
    with pytest.raises(NotCompilableError):
        compile_phase_oracle(CnfFormula(variable_count=2, clauses=[()]))


def test_constant_formulas_give_constant_oracles():
    for formula, value in [(CnfFormula(variable_count=3, clauses=[]), 1),
                           (parse_dimacs("p cnf 3 2\n0\n1 0\n"), 0)]:
        oracle = oracle_from_formula(formula)
        assert oracle.formula is None
        assert oracle.truth_values().tolist() == [value] * 8


def test_simulation_phase_and_restoration(rng):
    for _ in range(15):
        n = rng.randint(2, 6)
        formula = random_3cnf(n, rng.randint(1, 8), rng)
        circuit = compile_phase_oracle(formula)
        for y in range(1 << n):
            phase, restored = simulate_oracle_circuit(circuit, y)
            assert restored == 1
            assert phase == 1 - 2 * formula.evaluate(y)


def test_counter_trace_prefix_and_unwind():
    f = parse_dimacs(EXAMPLE)
    circuit = compile_phase_oracle(f)
    m = f.clause_count
    for y in range(1 << f.variable_count):
        trace = counter_trace(circuit, y)
        assert len(trace) == 2 * m + 1
        falsities = [clause_is_false_index(c, y, 3) for c in f.clauses]
        # forward pass: counter = false clauses among the first i
        for i in range(m):
            assert trace[i] == sum(falsities[:i + 1])
        assert trace[m] == sum(falsities)            # unchanged by the flip
        assert trace[-1] == 0                        # fully unwound
        assert max(trace) <= m                       # never wraps mod m+1


def test_ir_text_golden():
    circuit = compile_phase_oracle(parse_dimacs("p cnf 2 1\n1 -2 0\n"))
    assert circuit.to_text() == (
        "oracle n=2 m=1 counter=1\n"
        "X q0\n"
        "CADD mod=2 ctrls=[+q0,+q1]\n"
        "X q0\n"
        "Z0C width=1\n"
        "X q0\n"
        "CSUB mod=2 ctrls=[+q0,+q1]\n"
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
    diag = circuit_diagonal(compile_phase_oracle(formula))
    assert np.array_equal(diag, 1.0 - 2.0 * formula.truth_values())


def _per_literal_truth(formula):
    n = formula.variable_count
    return np.array([int(all(any(((y >> (n - abs(lit))) & 1) == (lit > 0)
                                 for lit in clause)
                             for clause in formula.clauses))
                     for y in range(1 << n)], dtype=np.uint8)


def _per_gate_diagonal(circuit):
    # each input stepped through the gates one at a time, one bit per control
    n = circuit.input_qubits
    diagonal = []
    for y in range(1 << n):
        index, counter, flipped = y, 0, False
        for gate in circuit.gates:
            if isinstance(gate, PauliX):
                index ^= 1 << (n - 1 - gate.qubit)
            elif isinstance(gate, MultiControlledAdd):
                if counter < gate.modulus and all(
                        (index >> (n - 1 - q)) & 1 for q in gate.controls):
                    step = -1 if gate.subtract else 1
                    counter = (counter + step) % gate.modulus
            else:
                flipped ^= counter == 0
        assert (index, counter) == (y, 0)
        diagonal.append(-1.0 if flipped else 1.0)
    return np.array(diagonal)


def test_mask_tables_match_a_per_literal_reference(rng):
    for n in range(1, 13):
        for m in (0, 1, n, 3 * n):
            formula = random_3cnf(n, m, rng)
            if m == n:
                formula.clauses.insert(rng.randrange(m + 1), ())
            want = _per_literal_truth(formula)
            got = formula.truth_values()
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), formula
            assert [formula.evaluate(y) for y in range(1 << n)] == \
                want.tolist()


def test_mask_diagonals_match_a_per_gate_reference(rng):
    for n in range(1, 13):
        for m in (1, n, 2 * n if n <= 10 else n + 3):
            circuit = compile_phase_oracle(random_3cnf(n, m, rng))
            assert np.array_equal(circuit_diagonal(circuit),
                                  _per_gate_diagonal(circuit))


def test_compiled_oracle_phase_on_superposition(rng):
    formula = random_3cnf(4, 5, rng)
    oracle = oracle_from_formula(formula)
    table = BooleanFunction.from_truth_table(formula.truth_values())
    amps = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(16)])
    amps /= np.linalg.norm(amps)
    from distgrover import StateVector
    sv_a = StateVector(4, amps.copy())
    sv_b = StateVector(4, amps.copy())
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
    out_c = run_grover(compiled, a, 31, QueryLedger())
    out_t = run_grover(table, a, 31, QueryLedger())
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
                              amps * circuit_diagonal(circuit))


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


def test_compiled_table_built_once_per_function(monkeypatch):
    calls = []

    def counting_diagonal(circuit):
        calls.append(circuit.input_qubits)
        return circuit_diagonal(circuit)

    monkeypatch.setattr(compiler, "circuit_diagonal", counting_diagonal)
    # two solutions: 4 Grover iterates, each one oracle query
    f = oracle_from_formula(CnfFormula(6, [(1,), (2,), (-3,), (4,), (5,)]))
    ledger = QueryLedger()
    run_grover(f, 2, 5, ledger)
    assert ledger.quantum_queries == 4
    est_amp_distribution(f, 3)
    sub = f.restrict("1")
    for _ in range(2):
        run_grover(sub, 1, 5, QueryLedger())
    assert calls == [6, 5]
