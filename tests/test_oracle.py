import numpy as np
import pytest

from distgrover import (BooleanFunction, CapacityError, InvariantError,
                        ParseError, QueryLedger, UsageError,
                        apply_hadamard_all, apply_zero_reflection, init_basis,
                        oracle_from_formula)
from distgrover.cnf import CnfFormula
from distgrover.statevector import StateVector

from conftest import marked_function, random_3cnf
from reference import reference_truth_values


def uniform(n):
    return apply_hadamard_all(init_basis(n, 0), range(0, n))


def test_evaluate_truth_table():
    f = BooleanFunction.from_truth_table([0, 0, 0, 1])
    ledger = QueryLedger()
    assert f.evaluate(3, ledger) == 1
    assert f.evaluate(0, ledger) == 0
    assert ledger.classical_queries == 2
    with pytest.raises(UsageError):
        f.evaluate(4, ledger)
    assert ledger.classical_queries == 2        # a rejected input is free


def test_evaluate_rejects_digits_other_than_0_and_1():
    f = BooleanFunction.from_truth_table([0, 0, 1, 0])
    for x in ("12", "1x", [1, 2], [1, -1]):
        with pytest.raises(UsageError):
            f.evaluate(x, QueryLedger())


def test_evaluate_accepts_any_integer_type_only():
    f = BooleanFunction.from_truth_table([0, 0, 1, 0])
    ledger = QueryLedger()
    assert f.evaluate(np.int64(2), ledger) == \
        f.evaluate(np.uint8(2), ledger) == 1
    for x in (2.0, [0, 1.0], None, "11", [1, 0], np.array([1, 0])):
        with pytest.raises(UsageError):
            f.evaluate(x, ledger)
    assert ledger.classical_queries == 2


def _table_and_cnf_functions():
    return (BooleanFunction.from_truth_table([0, 1, 1, 0, 0, 0, 1, 1]),
            BooleanFunction.from_cnf(CnfFormula(3, [(1, -3), (2, 3)])))


def test_restrict_rejects_digits_other_than_0_and_1():
    for f in _table_and_cnf_functions():
        for suffix in ("2", "x", [2], [0, -1], [-1], [None], ["b"], ["10"]):
            with pytest.raises(UsageError, match="bits 0 and 1"):
                f.restrict(suffix)


def test_restrict_accepts_a_bit_string_only():
    for f in _table_and_cnf_functions():
        for suffix in ([np.int64(0), 1], (0, np.int64(1)), [0, 1],
                       np.array([0, 1], np.uint8), [0, 1.7], [1.0], 1):
            with pytest.raises(UsageError, match="bits 0 and 1"):
                f.restrict(suffix)


def test_truth_table_entries_must_be_bits():
    for bits in ([0, 2, 1, 1], [0, -1, 1, 1], "01a1", "0121"):
        with pytest.raises(UsageError):
            BooleanFunction.from_truth_table(bits)
    f = BooleanFunction.from_truth_table([False, True, True, False])
    assert f.truth_values().tolist() == [0, 1, 1, 0]


def test_arity_and_table_length_must_name_at_least_one_variable():
    with pytest.raises(UsageError, match="arity must be >= 1"):
        BooleanFunction(0, np.array([], np.int64))
    for bits in ([0, 1, 0], [1]):
        with pytest.raises(UsageError, match="not a power of two >= 2"):
            BooleanFunction.from_truth_table(bits)


def test_truth_table_must_be_one_dimensional():
    # only a flat sequence is a truth table: a scalar or an array of two or
    # more dimensions is a usage error, never an arity read off its shape
    for bits in ([[0, 1], [1, 0]], [[[0, 1]]], 1, np.zeros((2, 4), int)):
        with pytest.raises(UsageError, match="flat sequence"):
            BooleanFunction.from_truth_table(bits)


def test_constructors_check_capacity_before_allocating(monkeypatch):
    # each would size an array by 2^40 if it did not check first; the
    # formula with no clauses compiles like any other, so `circuit_diagonal`
    # checks it
    monkeypatch.delenv("DISTGROVER_MAX_QUBITS", raising=False)
    for make in (lambda: BooleanFunction.from_cnf(CnfFormula(40, [(1,)])),
                 lambda: oracle_from_formula(CnfFormula(40, [(1,)])),
                 lambda: oracle_from_formula(CnfFormula(40, []))):
        with pytest.raises(CapacityError):
            make()


def test_evaluate_cnf():
    # (x1 or not-x2) and (not-x1 or x3)
    formula = CnfFormula(3, [(1, -2), (-1, 3)])
    f = BooleanFunction.from_cnf(formula)
    ledger = QueryLedger()
    assert f.evaluate(0b101, ledger) == 1
    assert f.evaluate(0b010, ledger) == 0
    assert ledger.classical_queries == 2


def test_cnf_matches_truth_table_semantics():
    formula = CnfFormula(4, [(1, -3), (-2, 4), (2, 3, -4)])
    f = BooleanFunction.from_cnf(formula)
    ledger = QueryLedger()
    for x in range(16):
        bits = format(x, "04b")
        expected = ((bits[0] == "1" or bits[2] == "0")
                    and (bits[1] == "0" or bits[3] == "1")
                    and (bits[1] == "1" or bits[2] == "1" or bits[3] == "0"))
        assert f.evaluate(x, ledger) == int(expected)
    assert (f.truth_values() ==
            [f.evaluate(x, ledger) for x in range(16)]).all()
    assert ledger.classical_queries == 32


def test_solution_count():
    assert marked_function(3, []).solution_count() == 0
    assert marked_function(4, [7]).solution_count() == 1
    f = BooleanFunction.from_cnf(CnfFormula(2, [(1,), (2,)]))
    assert f.solution_count() == 1


def test_phase_oracle_examples():
    n = 2
    s = uniform(n)
    marked_function(n, []).apply_phase_oracle(s, range(0, n))
    assert np.allclose(s.amps, [0.5] * 4)

    s = uniform(n)
    marked_function(n, range(2**n)).apply_phase_oracle(s, range(0, n))
    assert np.allclose(s.amps, [-0.5] * 4)

    s = uniform(n)
    marked_function(n, [3]).apply_phase_oracle(s, range(0, n))
    assert np.allclose(s.amps, [0.5, 0.5, 0.5, -0.5])


def test_phase_oracle_width_mismatch():
    f = marked_function(3, [1])
    with pytest.raises(UsageError):
        f.apply_phase_oracle(init_basis(3, 0), range(0, 2))


def test_phase_oracle_acts_only_on_the_whole_state():
    f = marked_function(3, [1, 6])
    for register, q in ((range(1, 3), 3), (range(0, 3), 4)):
        s = uniform(q)
        before = s.amps.copy()
        with pytest.raises(UsageError):
            f.apply_phase_oracle(s, register)
        assert np.array_equal(s.amps, before)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_phase_oracle_negates_exactly_the_marked_amplitudes(dtype):
    rng = np.random.default_rng(23)
    for n in range(1, 13):
        size = 1 << n
        for t in sorted({0, 1, 2, size // 3, size - 1, size}):
            truth = np.zeros(size, np.uint8)
            truth[rng.choice(size, t, replace=False)] = 1
            amps = rng.normal(size=size).astype(dtype)
            if dtype == np.complex128:
                amps += 1j * rng.normal(size=size)
            amps /= np.linalg.norm(amps)
            s = StateVector(amps.copy())
            BooleanFunction.from_truth_table(truth).apply_phase_oracle(
                s, range(0, n))
            assert s.amps.dtype == dtype
            assert np.array_equal(s.amps, amps * (1.0 - 2.0 * truth))


def test_phase_oracle_self_inverse():
    f = marked_function(3, [1, 6])
    s = uniform(3)
    before = s.amps.copy()
    f.apply_phase_oracle(s, range(0, 3))
    f.apply_phase_oracle(s, range(0, 3))
    assert np.abs(s.amps - before).max() < 1e-12


def test_zero_reflection():
    s = init_basis(3, 0)
    apply_zero_reflection(s)
    assert s.amps[0] == -1.0
    s = init_basis(3, 4)
    apply_zero_reflection(s)
    assert s.amps[4] == 1.0
    s = uniform(3)
    before = s.amps.copy()
    apply_zero_reflection(s)
    apply_zero_reflection(s)
    assert np.abs(s.amps - before).max() < 1e-12


def test_zero_reflection_matches_sign_array():
    # negating the all-zero amplitude is exact, so it equals multiplying by
    # the sign array -1 at basis index 0 and +1 elsewhere
    rng = np.random.default_rng(19)
    for q in range(1, 7):
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        amps /= np.linalg.norm(amps)
        signs = np.ones(1 << q)
        signs[0] = -1.0
        s = apply_zero_reflection(StateVector(amps.copy()))
        assert np.array_equal(s.amps, amps * signs)


def test_restrict_examples():
    rng = np.random.default_rng(3)
    table = rng.integers(0, 2, size=8).astype(np.uint8)
    f = BooleanFunction.from_truth_table(table)
    assert np.array_equal(f.restrict("0").truth_values(), table[0::2])

    assert (marked_function(3, range(2**3)).restrict("1")
            .truth_values() == 1).all()

    f = marked_function(3, [0b101])
    assert list(f.restrict("1").truth_values()) == [0, 0, 1, 0]
    assert f.restrict("0").solution_count() == 0


def _views_match(f, table):
    ledger = QueryLedger()
    assert [f.evaluate(x, ledger) for x in range(len(table))] == \
        table.tolist()
    assert ledger.classical_queries == len(table)
    assert f.solution_count() == int(table.sum())
    truth = f.truth_values()
    assert truth.dtype == np.uint8 and np.array_equal(truth, table)


def test_every_view_matches_the_source_table(rng):
    # evaluate, solution_count and truth_values all derive from the marked
    # set; each must read the table the function came from, on the
    # function and on its restrictions at k = 1 and k = n - 1
    gen = np.random.default_rng(29)
    for n in (2, 3, 5, 8):
        formula = random_3cnf(n, n + 1, rng)
        table = gen.integers(0, 2, size=1 << n).astype(np.uint8)
        cases = [(BooleanFunction.from_truth_table(table), table)]
        cases += [(marked_function(n, range(2**n) if value else []),
                   np.full(1 << n, value, np.uint8)) for value in (0, 1)]
        cases += [(build(formula), reference_truth_values(formula))
                  for build in (BooleanFunction.from_cnf,
                                oracle_from_formula)]
        for f, table in cases:
            _views_match(f, table)
            for k in sorted({1, n - 1}):
                for y in sorted({0, (1 << k) - 1, int(gen.integers(1 << k))}):
                    _views_match(f.restrict(format(y, f"0{k}b")),
                                 table[y::1 << k])


def test_restrict_consistency_exhaustive():
    rng = np.random.default_rng(9)
    for n in (2, 4, 6):
        f = BooleanFunction.from_truth_table(
            rng.integers(0, 2, size=1 << n).astype(np.uint8))
        truth = f.truth_values()
        for k in range(1, n):
            for y in range(1 << k):
                sub = f.restrict(format(y, f"0{k}b"))
                assert np.array_equal(sub.truth_values(), truth[y::1 << k])


def test_restrict_solution_count_conservation():
    rng = np.random.default_rng(13)
    f = BooleanFunction.from_truth_table(
        rng.integers(0, 2, size=1 << 6).astype(np.uint8))
    for k in (1, 2, 3):
        total = sum(f.restrict(format(y, f"0{k}b")).solution_count()
                    for y in range(1 << k))
        assert total == f.solution_count()


def test_restrict_argument_errors():
    f = marked_function(3, [1])
    with pytest.raises(UsageError):
        f.restrict("")
    with pytest.raises(UsageError):
        f.restrict("111")


def test_truth_table_file_roundtrip(tmp_path):
    path = tmp_path / "f.table"
    path.write_text("3\n00100100\n")
    f = BooleanFunction.from_file(path)
    assert f.arity == 3
    assert f.marked.tolist() == [2, 5]
    # the text loader and the array loader give the same marked set
    rng = np.random.default_rng(43)
    for n in range(1, 13):
        table = rng.integers(0, 2, size=1 << n).astype(np.uint8)
        text = BooleanFunction.from_table_text(
            f"{n}\n{''.join(map(str, table))}\n")
        array = BooleanFunction.from_truth_table(table)
        assert text.arity == array.arity == n
        assert np.array_equal(text.truth_values(), array.truth_values())


def test_truth_table_file_errors(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("2\n001\n")
    with pytest.raises(ParseError, match="line 2"):
        BooleanFunction.from_file(path)
    path.write_bytes(b"2\n01\xff0\n")
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        BooleanFunction.from_file(path)
    with pytest.raises(UsageError, match="cannot read"):
        BooleanFunction.from_file(tmp_path / "missing.table")


def test_non_ascii_table_characters_are_table_errors():
    for table in ("0\u00e910", "01\u20ac0", "\u00e9\u00e9\u00e9\u00e9"):
        with pytest.raises(UsageError):
            BooleanFunction.from_truth_table(table)
        with pytest.raises(ParseError, match="line 2"):
            BooleanFunction.from_table_text(f"2\n{table}\n")
    assert BooleanFunction.from_table_text(
        "2\n0110\n").truth_values().tolist() == [0, 1, 1, 0]


def test_ledger_totals_and_breakdown():
    a = QueryLedger()
    a.add_quantum(3, "oracle")
    a.add_quantum(2, "counting")
    a.add_classical(1)
    assert a.quantum_queries == 5 and a.classical_queries == 1
    assert a.total == sum(a.breakdown.values()) == 6
    assert a.breakdown == {"oracle": 3, "counting": 2, "verify": 1}


def test_ledger_refuses_a_negative_count():
    ledger = QueryLedger()
    with pytest.raises(InvariantError):
        ledger.add_quantum(-1, "oracle")
    with pytest.raises(InvariantError):
        ledger.add_classical(-1)
    assert ledger.snapshot() == {"quantum_queries": 0, "classical_queries": 0,
                                 "total": 0, "breakdown": {}}
