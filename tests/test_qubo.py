import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoq import qubo
from genoq.errors import CapacityError
from genoq.qubo import (
    BinaryModel,
    IsingModel,
    KnapsackInstance,
    OverlapInstance,
    WeightedGraph,
    assembly_to_qubo,
    best_assembly_path,
    best_knapsack,
    cut_weight,
    energy,
    is_independent_set,
    knapsack_to_qubo,
    maxcut_to_ising,
    mis_to_qubo,
    phasing_agreement,
    phasing_to_ising,
    phasing_to_maxcut,
    read_model,
    spins_to_bits,
    write_model,
)
from strategies import quadratic_models


def naive_energy(model, assignment):
    """Second, independent evaluator: dense matrix form."""
    n = model.n
    q = np.zeros((n, n))
    for i, hi in enumerate(model.h):
        q[i, i] = hi
    for (i, j), v in model.J.items():
        q[i, j] = v
    x = np.asarray(assignment, dtype=float)
    return float(x @ np.triu(q, 1) @ x + np.diag(q) @ x + model.offset)


def all_assignments(n, alphabet):
    return itertools.product(alphabet, repeat=n)


def brute_min(model):
    alphabet = (-1, 1) if isinstance(model, IsingModel) else (0, 1)
    best_e, best = None, []
    for a in all_assignments(model.n, alphabet):
        e = energy(model, a)
        if best_e is None or e < best_e - 1e-12:
            best_e, best = e, [a]
        elif abs(e - best_e) <= 1e-12:
            best.append(a)
    return best_e, best


TRIANGLE = WeightedGraph(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})


def test_energy_matches_naive_evaluator():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        h = tuple(rng.normal(size=n))
        J = {
            (i, j): float(rng.normal())
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        }
        offset = float(rng.normal())
        for cls, alphabet in ((IsingModel, (-1, 1)), (BinaryModel, (0, 1))):
            model = cls(n, h, J, offset)
            a = [alphabet[int(b)] for b in rng.integers(0, 2, size=n)]
            assert energy(model, a) == pytest.approx(naive_energy(model, a))


def test_energy_validation():
    model = IsingModel(2, (0.0, 0.0))
    with pytest.raises(ValueError, match="assignment has 1 values for 2 variables"):
        energy(model, [1])
    with pytest.raises(ValueError, match=re.escape(
            "assignment values must be in [-1, 1]")):
        energy(model, [0, 1])  # bits fed to a spin model
    with pytest.raises(ValueError, match=re.escape(
            "assignment values must be in [0, 1]")):
        energy(BinaryModel(2, (0.0, 0.0)), [-1, 1])


def test_model_term_validation():
    with pytest.raises(ValueError, match="at least one variable"):
        IsingModel(0, ())
    with pytest.raises(ValueError):
        IsingModel(2, (0.0, 0.0), {(1, 0): 1.0})
    with pytest.raises(ValueError):
        IsingModel(2, (0.0, 0.0), {(0, 0): 1.0})
    with pytest.raises(ValueError, match="h has 2 entries for 3 variables"):
        BinaryModel(3, (0.0, 0.0))


def test_bits_spins_helpers():
    assert spins_to_bits([-1, 1, -1]) == [0, 1, 0]


def test_maxcut_triangle():
    enc = maxcut_to_ising(TRIANGLE)
    best_e, best = brute_min(enc.model)
    assert best_e == pytest.approx(-2.0)  # max cut of the unit triangle is 2
    assert len(best) == 6  # all 2:1 splits, both labelings
    for spins in best:
        assert cut_weight(TRIANGLE, enc.decode(spins)) == pytest.approx(2.0)


def test_maxcut_energy_equals_negative_cut():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        edges = {(i, j): float(rng.normal()) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.7}
        g = WeightedGraph(n, edges)
        enc = maxcut_to_ising(g)
        for spins in all_assignments(n, (-1, 1)):
            side = enc.decode(spins)
            assert energy(enc.model, spins) == pytest.approx(
                -cut_weight(g, side), abs=1e-9)


def test_phasing_sign_convention():
    # Positive weight (same haplotype) must be satisfied by equal labels.
    fg = WeightedGraph(2, {(0, 1): 3.0})
    enc = phasing_to_ising(fg)
    assert energy(enc.model, [1, 1]) < energy(enc.model, [1, -1])
    fg2 = WeightedGraph(2, {(0, 1): -3.0})
    enc2 = phasing_to_ising(fg2)
    assert energy(enc2.model, [1, -1]) < energy(enc2.model, [1, 1])


def test_phasing_ground_state_maximizes_agreement():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        edges = {(i, j): float(rng.normal()) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.6}
        fg = WeightedGraph(n, edges)
        enc = phasing_to_ising(fg)
        best_e, best = brute_min(enc.model)
        best_agreement = max(
            phasing_agreement(fg, labels)
            for labels in all_assignments(n, (0, 1))
        )
        for spins in best:
            assert phasing_agreement(fg, enc.decode(spins)) == pytest.approx(
                best_agreement, abs=1e-9)


def test_phasing_maxcut_negates_weights():
    fg = WeightedGraph(3, {(0, 1): 2.0, (1, 2): -1.5})
    g = phasing_to_maxcut(fg)
    assert g.edges == {(0, 1): -2.0, (1, 2): 1.5}


def test_assembly_chain():
    # Overlaps force the unique best path 0 -> 1 -> 2.
    o = OverlapInstance(3, {(0, 1): 5.0, (1, 2): 4.0, (2, 0): 1.0})
    enc = assembly_to_qubo(o)
    assert enc.model.n == 9
    best_e, best = brute_min(enc.model)
    assert len(best) == 1
    path = enc.decode(best[0])
    assert path == (0, 1, 2)
    native_best, native_path = best_assembly_path(o)
    assert native_best == pytest.approx(9.0)
    assert best_e == pytest.approx(-native_best)


def test_assembly_variable_count_is_n_squared():
    for n in (2, 3, 4):
        o = OverlapInstance(n, {(0, 1): 1.0})
        assert assembly_to_qubo(o).model.n == n * n


def test_assembly_penalty_separates_infeasible():
    o = OverlapInstance(3, {(0, 1): 5.0, (1, 2): 4.0})
    enc = assembly_to_qubo(o)
    feasible_max = max(
        energy(enc.model, bits)
        for bits in all_assignments(9, (0, 1))
        if _is_feasible(bits, 3)
    )
    infeasible_min = min(
        energy(enc.model, bits)
        for bits in all_assignments(9, (0, 1))
        if not _is_feasible(bits, 3)
    )
    assert infeasible_min > feasible_max + 0.5


def _is_feasible(bits, n):
    for p in range(n):
        if sum(bits[v * n + p] for v in range(n)) != 1:
            return False
    for v in range(n):
        if sum(bits[v * n + p] for p in range(n)) != 1:
            return False
    return True


def test_assembly_decode_rejects_infeasible():
    enc = assembly_to_qubo(OverlapInstance(2, {(0, 1): 1.0}))
    with pytest.raises(ValueError):
        enc.decode([1, 1, 0, 0])
    with pytest.raises(ValueError):
        enc.decode([1, 0, 1, 0])


def test_assembly_node_cap():
    with pytest.raises(CapacityError):
        assembly_to_qubo(OverlapInstance(7, {(0, 1): 1.0}))


def test_overlap_validation():
    with pytest.raises(ValueError):
        OverlapInstance(2, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        OverlapInstance(2, {(0, 1): -1.0})


def test_knapsack_example():
    k = KnapsackInstance(values=(6, 10, 12), weights=(2, 2, 3), capacity=5)
    enc = knapsack_to_qubo(k)
    assert enc.info["slack_bits"] == 3  # ceil(log2(6))
    assert enc.model.n == 6
    best_e, best = brute_min(enc.model)
    chosen = {enc.decode(bits) for bits in best}
    assert {items for items in chosen} == {(1, 2)}
    val, sets = best_knapsack(k)
    assert val == 22 and sets == {(1, 2)}


def test_knapsack_ground_states_are_optimal_feasible():
    rng = np.random.default_rng(77)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        k = KnapsackInstance(
            values=tuple(int(v) for v in rng.integers(1, 12, size=n)),
            weights=tuple(int(w) for w in rng.integers(1, 8, size=n)),
            capacity=int(rng.integers(2, 14)),
        )
        enc = knapsack_to_qubo(k)
        best_e, best = brute_min(enc.model)
        best_val, best_sets = best_knapsack(k)
        decoded = {enc.decode(bits) for bits in best}
        assert decoded <= best_sets
        for items in decoded:
            assert sum(k.weights[i] for i in items) <= k.capacity


def test_knapsack_validation():
    with pytest.raises(ValueError):
        KnapsackInstance((1,), (0,), 3)
    with pytest.raises(ValueError):
        KnapsackInstance((0,), (1,), 3)
    with pytest.raises(ValueError):
        KnapsackInstance((1,), (1,), 0)
    with pytest.raises(ValueError,
                       match="values and weights must have equal length"):
        KnapsackInstance((1, 2), (1,), 3)


def test_mis_path_graph():
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    enc = mis_to_qubo(g)
    best_e, best = brute_min(enc.model)
    assert best_e == pytest.approx(-2.0)
    assert [enc.decode(b) for b in best] == [frozenset({0, 2})]


def test_mis_edgeless_takes_everything():
    g = WeightedGraph(4, {})
    best_e, best = brute_min(mis_to_qubo(g).model)
    assert best_e == pytest.approx(-4.0)
    assert best == [(1, 1, 1, 1)]


def test_mis_complete_graph():
    g = WeightedGraph(4, {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)})
    enc = mis_to_qubo(g)
    best_e, best = brute_min(enc.model)
    assert best_e == pytest.approx(-1.0)
    assert len(best) == 4  # any single vertex


def test_mis_penalty_strictly_separates():
    # Every infeasible bit vector sits strictly above every feasible one.
    g = WeightedGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    enc = mis_to_qubo(g)
    feas, infeas = [], []
    for bits in all_assignments(4, (0, 1)):
        target = feas if is_independent_set(g, frozenset(
            i for i in range(4) if bits[i])) else infeas
        target.append(energy(enc.model, bits))
    assert min(infeas) > max(feas)


def test_mis_sparsity_matches_edges():
    g = WeightedGraph(5, {(0, 3): 1.0, (1, 4): 1.0})
    enc = mis_to_qubo(g)
    assert set(enc.model.J) == {(0, 3), (1, 4)}


def test_write_read_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    for cls in (IsingModel, BinaryModel):
        n = 5
        h = tuple(rng.normal(size=n))
        J = {(i, j): float(rng.normal()) for i in range(n)
             for j in range(i + 1, n) if rng.random() < 0.6}
        model = cls(n, h, J, float(rng.normal()))
        back = read_model(write_model(model))
        assert type(back) is cls
        assert back.n == model.n
        assert back.offset == model.offset
        assert back.J == model.J
        for a, b in zip(back.h, model.h):
            assert a == b


@settings(max_examples=200, deadline=None)
@given(model=quadratic_models(st.floats(allow_nan=False, allow_infinity=False),
                              max_n=8))
def test_write_read_round_trip_any_finite_floats(model):
    back = read_model(write_model(model))
    assert type(back) is type(model)
    assert back == model


def test_write_model_header():
    model = IsingModel(2, (0.5, 0.0), {(0, 1): -1.0}, 2.0)
    lines = write_model(model).splitlines()
    assert lines[0] == "QUBO 2 2 spin"
    assert lines[1] == "0 0 0.5"
    assert lines[2] == "0 1 -1"


def test_read_model_rejects_garbage():
    with pytest.raises(ValueError):
        read_model("NOPE 2 0 spin\n")
    with pytest.raises(ValueError):
        read_model("QUBO 2 0 ternary\n")


def test_model_size_cap_is_inclusive():
    model = read_model(f"QUBO {qubo.MODEL_MAX_VARS} 0 spin\n0 1 -1\n")
    assert model.n == qubo.MODEL_MAX_VARS
    with pytest.raises(CapacityError):
        read_model(f"QUBO {qubo.MODEL_MAX_VARS + 1} 0 spin\n")
    with pytest.raises(CapacityError):
        qubo.weighted_graph_from_json(f'{{"n": {qubo.MODEL_MAX_VARS + 1}}}')


def test_json_loaders():
    g = qubo.weighted_graph_from_json('{"n": 3, "edges": [[0, 1, 2.5]]}')
    assert g.edges == {(0, 1): 2.5}
    fg = qubo.fragment_graph_from_json('{"n": 2, "edges": [[1, 0, -1]]}')
    assert fg.edges == {(0, 1): -1.0}
    k = qubo.knapsack_from_json(
        '{"values": [6, 10], "weights": [2, 2], "capacity": 3}')
    assert k.capacity == 3
    o = qubo.overlap_from_json('{"n": 2, "overlaps": [[0, 1, 4.0]]}')
    assert o.overlaps == {(0, 1): 4.0}
