import dataclasses
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoq import solvers
from genoq.errors import CapacityError
from genoq.qubo import (
    BinaryModel, IsingModel, Model, WeightedGraph, energy, maxcut_to_ising)
from genoq.solvers import (
    BRUTE_FORCE_MAX_VARS,
    AnnealSchedule,
    brute_force,
    estimate_success_probability,
    planted_ferromagnet,
    simulated_annealing,
)
from genoq.tts import wilson_interval
from strategies import quadratic_models


def chain_ferromagnet(n):
    return IsingModel(n, (0.0,) * n, {(i, i + 1): -1.0 for i in range(n - 1)})


def random_model(rng, n, cls=IsingModel):
    h = tuple(rng.normal(size=n))
    J = {(i, j): float(rng.normal()) for i in range(n)
         for j in range(i + 1, n) if rng.random() < 0.6}
    return cls(n, h, J, float(rng.normal()))


def test_brute_force_single_spin():
    model = IsingModel(1, (2.0,))
    assert brute_force(model) == (-2.0, [(-1,)])


def test_brute_force_chain_two_ground_states():
    best_e, best = brute_force(chain_ferromagnet(5))
    assert best_e == pytest.approx(-4.0)
    assert set(best) == {(1,) * 5, (-1,) * 5}


def test_brute_force_triangle_maxcut_degenerate():
    g = WeightedGraph(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    best_e, best = brute_force(maxcut_to_ising(g).model)
    assert best_e == pytest.approx(-2.0)
    assert len(best) == 6


def test_brute_force_matches_enumeration():
    rng = np.random.default_rng(5)
    for cls in (IsingModel, BinaryModel):
        model = random_model(rng, 6, cls)
        best_e, best = brute_force(model)
        alphabet = (-1, 1) if cls is IsingModel else (0, 1)
        energies = [
            energy(model, [alphabet[(m >> i) & 1] for i in range(6)])
            for m in range(64)
        ]
        assert best_e == pytest.approx(min(energies), abs=1e-9)
        for a in best:
            assert energy(model, a) == pytest.approx(best_e, abs=1e-9)


def test_brute_force_capacity():
    with pytest.raises(CapacityError):
        brute_force(IsingModel(26, (0.0,) * 26))


def test_brute_force_at_capacity_stays_small():
    # n = 25 splits into 13 low and 12 high variables; the planted state and
    # its complement are the only optima of a connected planted glass.
    model = planted_ferromagnet(BRUTE_FORCE_MAX_VARS, density=0.3, seed=3)
    tracemalloc.start()
    try:
        best_e, best = brute_force(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best_e == -float(len(model.J))
    assert len(best) == 2 and best[1] == tuple(-s for s in best[0])
    assert peak <= 4 * 2**20


def reference_enumeration(model):
    """``energy`` of every assignment in flat index order (bit i = variable i)."""
    alphabet = (-1, 1) if isinstance(model, IsingModel) else (0, 1)
    assignments = [tuple(alphabet[(m >> i) & 1] for i in range(model.n))
                   for m in range(1 << model.n)]
    return assignments, [energy(model, a) for a in assignments]


@settings(max_examples=80, deadline=None)
@given(model=quadratic_models(st.integers(-8, 8).map(lambda k: k / 2), max_n=14))
@example(model=IsingModel(1, (0.5,)))
@example(model=BinaryModel(1, (-0.5,), {}, 1.0))
def test_brute_force_equals_reference_on_exact_weights(model):
    # Half-integer weights keep every partial sum exact, so the block
    # evaluation must find exactly the reference optima, in index order.
    assignments, energies = reference_enumeration(model)
    ground = min(energies)
    best_e, best = brute_force(model)
    assert best_e == ground
    assert best == [a for a, e in zip(assignments, energies) if e == ground]


# Its optima's energies, -5.666666666666667 and -5.666666666666666, lie in
# high rows 4, 5 and 6.
NEAR_TIE_THIRDS = IsingModel(6, (2 / 3, -1.0, -4 / 3, 4 / 3, 4 / 3, -2 / 3),
                             {(0, 1): 2 / 3, (0, 5): 2 / 3, (3, 4): 4 / 3}, 2 / 3)
# Chained near ties: states 0, 1 and 2 have energies 1.5e-12, 8e-13 and 0.0.
# The optima are 1 and 2, within 1e-12 of the minimum 0.0; state 0 is within
# 1e-12 of state 1 but not of the minimum.
CHAINED_NEAR_TIES = BinaryModel(2, (-0.7e-12, -1.5e-12), {(0, 1): 1.0}, 1.5e-12)
# High rows 0, 1 and 2 (one block each, in blocks of a row) have energies 0,
# -0.9e-12 and -1.1e-12: row 1 is optimal but lies more than 1e-12 above the
# best of the block before it, and a later block lowers the best.
CHAINED_ROWS = BinaryModel(4, (0.0, 0.0, -0.9e-12, -1.1e-12), {(2, 3): 1.0})


def test_brute_force_reports_the_minimum_of_chained_near_ties():
    assert brute_force(CHAINED_NEAR_TIES) == (0.0, [(1, 0), (0, 1)])


@settings(max_examples=80, deadline=None)
@given(model=st.one_of(
    quadratic_models(st.floats(-1.0, 1.0), max_n=14),
    quadratic_models(st.integers(-9, 9).map(lambda k: k / 3), max_n=14),
    quadratic_models(st.integers(-9, 9).map(lambda k: k / 10), max_n=14)))
@example(model=IsingModel(1, (0.1,), {}, 0.3))
@example(model=BinaryModel(2, (1e-12, -1.0), {}, 1.0))
# Near ties: optima whose ``energy`` differs in the last bits, such as
# -0.1 - 0.2 at (1, 1, 0) and -0.3 at (0, 0, 1), in different high rows.
@example(model=BinaryModel(3, (-0.1, -0.2, -0.3), {(0, 2): 0.3, (1, 2): 0.3}))
@example(model=IsingModel(3, (-0.1, 0.1, -0.2), {(0, 1): 0.1, (0, 2): 0.2}, -0.3))
@example(model=NEAR_TIE_THIRDS)
# State 0 lies one ulp more than 1e-12 above the optimum -x: the rounding
# window lets it in as the first candidate, but it is not an optimum.
@example(model=BinaryModel(2, (0.0, -math.nextafter(1e-12, 1.0))))
@example(model=CHAINED_NEAR_TIES)
def test_brute_force_energy_is_exact_on_real_weights(model):
    # One rule: the optimum is the minimum of ``energy``, and the optima are
    # every state within 1e-12 of it, in index order.
    assignments, energies = reference_enumeration(model)
    best_e, best = brute_force(model)
    assert best_e == min(energies)
    assert best == [a for a, e in zip(assignments, energies)
                    if abs(e - best_e) <= 1e-12]


def field_free(model):
    return IsingModel(model.n, (0.0,) * model.n, model.J, model.offset)


@settings(max_examples=80, deadline=None)
@given(model=st.one_of(
    quadratic_models(st.integers(-8, 8).map(lambda k: k / 2), max_n=14),
    quadratic_models(st.floats(-1.0, 1.0), max_n=14)).map(field_free))
@example(model=IsingModel(1, (0.0,), {}, 0.5))
@example(model=IsingModel(2, (0.0, 0.0), {(0, 1): 1.5}))
@example(model=IsingModel(5, (0.0,) * 5))
@example(model=IsingModel(4, (-0.0,) * 4, {(0, 1): 1.0, (2, 3): -0.5}, -0.0))
@example(model=IsingModel(3, (0.0,) * 3, {(0, 1): 0.5, (0, 2): 0.5,
                                           (1, 2): 0.5}, 0.5))
# Optima 1 and 2 compute -0.9000000000000001 and -0.9; 5 and 6 mirror them.
@example(model=IsingModel(3, (0.0,) * 3, {(0, 1): 0.8, (0, 2): -0.7,
                                           (1, 2): -0.7}, -0.1))
def test_field_free_brute_force_equals_reference(model):
    # E(x) = E(-x): brute force enumerates the states whose top spin is -1
    # and appends their optima's mirrors; every optimum of the reference,
    # in index order, must come out. With J = {} all 2^n states are optimal.
    assignments, energies = reference_enumeration(model)
    best_e, best = brute_force(model)
    assert best_e == min(energies)
    assert best == [a for a, e in zip(assignments, energies)
                    if abs(e - best_e) <= 1e-12]
    if not model.J:
        assert len(best) == 1 << model.n


BRUTE_MODELS = (chain_ferromagnet(9), NEAR_TIE_THIRDS,
                random_model(np.random.default_rng(0), 9, BinaryModel))


def test_brute_force_builds_model_arrays_once(monkeypatch):
    # Count each derivation of a model's arrays, and run brute force twice
    # on each fresh copy: the second run reads the cached arrays.
    built = []
    derive = Model.arrays.func

    def counted(model):
        built.append(model)
        return derive(model)

    arrays = cached_property(counted)
    arrays.__set_name__(Model, "arrays")
    monkeypatch.setattr(Model, "arrays", arrays)
    for model in map(dataclasses.replace, BRUTE_MODELS):
        built.clear()
        assert brute_force(model) == brute_force(model)
        assert built == [model] and built[0] is model


def test_brute_force_never_builds_neighbour_lists():
    # Brute force caches the arrays, scale and exact it reads on the model,
    # but not SA's neighbour lists. Fresh copies: another test may have run
    # SA on a shared model.
    for model in map(dataclasses.replace, BRUTE_MODELS):
        brute_force(model)
        fields = {f.name for f in dataclasses.fields(model)}
        assert vars(model).keys() - fields == {"arrays", "scale", "exact"}


def test_cached_arrays_follow_the_fields_in_J_order():
    model = BinaryModel(4, (1.0, -2.0, 0.5, 3.0),
                        {(2, 3): -1.5, (0, 1): 2.0, (1, 3): 4.0}, 0.25)
    h, pairs, w = model.arrays
    assert h.tolist() == list(model.h)
    assert list(map(tuple, pairs.tolist())) == list(model.J)
    assert w.tolist() == list(model.J.values())
    assert model.arrays is model.arrays


# All 16 states are optima: each ``energy`` is within 1e-12 of -1.0. The 4
# with x2 = x3 = 1 have matmul energies that round past -1.0 + 1e-12, so a
# candidate window of 1e-12 alone drops them.
FOUR_NEAR_TIES = BinaryModel(4, (0.0, 0.0, float.fromhex("0x1.19799812dea11p-40"),
                                 float.fromhex("0x1.8dcf1bba60898p-55")), {}, -1.0)


def test_brute_force_keeps_optima_past_the_matmul_rounding():
    best_e, best = brute_force(FOUR_NEAR_TIES)
    assert best_e == -1.0
    assert len(best) == 16


@pytest.mark.parametrize("block", [1, 8, 64, "row"])
@settings(max_examples=40, deadline=None)
@given(model=st.one_of(quadratic_models(st.floats(-1.0, 1.0), max_n=12),
                       quadratic_models(st.integers(-2, 2), max_n=12)))
@example(model=IsingModel(12, (0.0,) * 12))
@example(model=BinaryModel(7, (0.0,) * 7))
# Optima in different blocks of one high row each: the first and last rows;
# high rows 1-3 but not 0; a low first row, then the best in the last one;
# real-weight near ties in rows 4-6; a near tie whose later row computes
# lower by less than 1e-12, which must not drop the earlier optimum.
@example(model=chain_ferromagnet(9))
@example(model=BinaryModel(5, (0.0, 0.0, 0.0, -1.0, -1.0), {(3, 4): 1.0}))
@example(model=IsingModel(6, (0.0,) * 5 + (-0.5,),
                          {(i, i + 1): -1.0 for i in range(5)}))
@example(model=NEAR_TIE_THIRDS)
@example(model=BinaryModel(5, (1.0, -4 / 3, -1 / 3, 2 / 3, -2 / 3),
                           {(1, 2): 4 / 3, (1, 3): 4 / 3, (1, 4): 4 / 3,
                            (2, 3): -4 / 3, (3, 4): 1 / 3}, -1.0))
@example(model=FOUR_NEAR_TIES)
@example(model=CHAINED_NEAR_TIES)
@example(model=CHAINED_ROWS)
def test_brute_force_ignores_block_size(block, model):
    # Blocks of 1, 8 and 64 energies split runs of optima and ties across
    # block boundaries, and "row" gives each high row (1 << a energies) its
    # own block; the optimum and every optimal row must not move.
    if block == "row":
        block = 1 << (model.n + 1) // 2
    expected = brute_force(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "BLOCK_ENTRIES", block)
        assert brute_force(model) == expected
    assignments, energies = reference_enumeration(model)
    best_e, best = expected
    assert best_e == min(energies)
    assert best == [a for a, e in zip(assignments, energies)
                    if abs(e - best_e) <= 1e-12]


@settings(max_examples=60, deadline=None)
@given(model=quadratic_models(st.floats(-1.0, 1.0), max_n=10))
@example(model=IsingModel(10, (0.0,) * 10))
@example(model=BinaryModel(3, (-0.1, -0.2, -0.3), {(0, 2): 1.0, (1, 2): 1.0}))
@example(model=CHAINED_NEAR_TIES)
def test_tie_filter_equals_energy_list_filter(model):
    # The array filter must keep exactly the rows a per-assignment ``energy``
    # filter keeps; (1, 1, 0) and (0, 0, 1) above tie to within 6e-17.
    rows, energies = reference_enumeration(model)
    values = np.array(rows)
    assert solvers._energies(model, values).tolist() == energies
    best = min(energies)
    assert solvers._ties(model, values) == (
        best, [a for a in rows if abs(energy(model, a) - best) <= 1e-12])


@pytest.mark.parametrize("solve", [
    brute_force,
    lambda model: simulated_annealing(model, AnnealSchedule(sweeps=3), 1),
    lambda model: estimate_success_probability(
        model, AnnealSchedule(sweeps=3), runs=2, threshold=0.0, seed=1),
    # The overflow is reported before the runs' capacity check.
    lambda model: estimate_success_probability(
        model, AnnealSchedule(sweeps=3), runs=solvers.MODEL_MAX_VARS,
        threshold=0.0, seed=1),
], ids=["brute", "sa", "sa-estimate", "sa-estimate-past-cap"])
def test_brute_force_rejects_overflowing_energies(solve):
    with pytest.raises(ValueError, match="overflow"):
        solve(IsingModel(2, (1e308, 1e308), {(0, 1): 1e308}))


@settings(max_examples=80, deadline=None)
@given(model=quadratic_models(st.sampled_from([-1.0, 0.0, 0.0, 1.0]), max_n=10),
       cap=st.integers(1, 16))
@example(model=BinaryModel(6, (0.0,) * 6, {(4, 5): -1.0}), cap=16)
@example(model=IsingModel(5, (0.0,) * 5), cap=16)
def test_optimum_cap_refuses_exactly_the_models_over_it(model, cap):
    # On integer weights the candidates are the optima, so brute force is
    # refused iff they are more than the cap, wherever their blocks lie, and
    # otherwise returns what it returns uncapped. Blocks of 4 energies let a
    # lower block come after ties that passed the cap.
    expected = brute_force(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "BRUTE_FORCE_MAX_OPTIMA", cap)
        mp.setattr(solvers, "BLOCK_ENTRIES", 4)
        if len(expected[1]) > cap:
            with pytest.raises(CapacityError, match=f"more than {cap} optimal"):
                brute_force(model)
        else:
            assert brute_force(model) == expected


# The optima are states 0 and 4, within 1e-12 of -5e-13 at state 4. States
# 1 and 2 lie within 1e-12 of state 0, the lowest of the first block of 4
# energies, so that block alone holds more candidates than a cap of 2.
CAPPED_NEAR_TIES = BinaryModel(3, (0.9e-12, 0.95e-12, -0.5e-12),
                               {(0, 2): 1.0, (1, 2): 1.0})


def capped_outcome(model, cap, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "BRUTE_FORCE_MAX_OPTIMA", cap)
        mp.setattr(solvers, "BLOCK_ENTRIES", block)
        try:
            return brute_force(model)
        except CapacityError as exc:
            return str(exc)


def test_optimum_cap_counts_only_the_final_candidates():
    for block in (4, solvers.BLOCK_ENTRIES):
        assert capped_outcome(CAPPED_NEAR_TIES, 2, block) == (
            -5e-13, [(0, 0, 0), (0, 0, 1)])


@pytest.mark.parametrize("block", [1, 4, 8, "row"])
@settings(max_examples=60, deadline=None)
@given(model=quadratic_models(st.one_of(
           st.integers(-20, 20).map(lambda k: k * 1e-13),
           st.sampled_from([0.0, 1.0])), max_n=6),
       cap=st.integers(1, 4))
@example(model=CAPPED_NEAR_TIES, cap=2)
def test_optimum_cap_ignores_block_size(block, model, cap):
    # Near ties of real weights: whether the cap refuses a model, and what
    # it returns when it does not, must not depend on where blocks split.
    if block == "row":
        block = 1 << (model.n + 1) // 2
    assert capped_outcome(model, cap, block) == capped_outcome(
        model, cap, solvers.BLOCK_ENTRIES)


def test_brute_force_binary_model():
    model = BinaryModel(2, (1.0, -2.0), {(0, 1): 3.0})
    best_e, best = brute_force(model)
    assert best_e == -2.0
    assert best == [(0, 1)]


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=0)
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=5, beta_start=2.0, beta_end=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=5, beta_start=0.0)


@pytest.mark.parametrize("beta_start, beta_end", [
    (0.1, math.inf), (math.inf, math.inf), (math.nan, 10.0), (0.1, math.nan),
    (1e-320, 10.0), (3e-308, 3e-308), (-1.0, 10.0)])
def test_schedule_rejects_betas_that_are_not_finite_or_too_small(beta_start,
                                                                 beta_end):
    # An infinite beta anneals on 0 * inf; 3e-308 is a normal float, but an
    # Exp(1) draw over it overflows.
    with pytest.raises(ValueError, match="beta_start <= beta_end < inf"):
        AnnealSchedule(sweeps=5, beta_start=beta_start, beta_end=beta_end)


def test_schedule_accepts_the_extreme_finite_betas():
    schedule = AnnealSchedule(sweeps=3, beta_start=solvers.MIN_BETA,
                              beta_end=1.7e308)
    assert schedule.betas(0, 3)[[0, -1]].tolist() == [solvers.MIN_BETA, 1.7e308]
    _, best_e, _ = simulated_annealing(chain_ferromagnet(4), schedule, seed=1)
    assert best_e == -3.0


def test_schedule_ladders():
    geo = AnnealSchedule(sweeps=3, beta_start=1.0, beta_end=4.0)
    assert np.allclose(geo.betas(0, 3), [1.0, 2.0, 4.0])
    assert AnnealSchedule(sweeps=1).betas(0, 1).tolist() == [0.1]


@pytest.mark.parametrize("beta_start, beta_end", [
    (0.1, 10.0), (1.0, 1.0), (0.3, 0.30000000000000004), (1e-3, 1e3),
    (2.5, 7.0)])
def test_schedule_slices_equal_geomspace(beta_start, beta_end):
    # The anneal builds one block's betas at a time; joined, the blocks must
    # be the full geomspace ladder bit for bit, pinned ends included.
    for sweeps in [*range(1, 130), 599, 1000, 4096, 123457]:
        schedule = AnnealSchedule(sweeps, beta_start, beta_end)
        blocks = [schedule.betas(s, min(s + solvers.SWEEPS_PER_DRAW, sweeps))
                  for s in range(0, sweeps, solvers.SWEEPS_PER_DRAW)]
        ladder = np.geomspace(beta_start, beta_end, sweeps)
        assert np.concatenate(blocks).tobytes() == ladder.tobytes(), sweeps


def test_sa_deterministic_per_seed():
    model = chain_ferromagnet(10)
    sched = AnnealSchedule(sweeps=50)
    best1, e1, trace1 = simulated_annealing(model, sched, seed=42)
    best2, e2, trace2 = simulated_annealing(model, sched, seed=42)
    assert best1 == best2
    assert e1 == e2
    assert trace1 == trace2


def test_sa_trace_non_increasing_and_consistent():
    rng = np.random.default_rng(2)
    model = random_model(rng, 12)
    best, best_e, trace = simulated_annealing(
        model, AnnealSchedule(sweeps=80), seed=7)
    assert len(trace) == 80
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    # The reported best energy is the exact energy of the reported assignment.
    assert best_e == pytest.approx(energy(model, best), abs=1e-9)
    assert trace[-1] == pytest.approx(best_e, abs=1e-9)


@pytest.mark.parametrize("sweeps", [1, 7, 8, 9, 17, 1638, 1639])
@pytest.mark.parametrize("cls", [IsingModel, BinaryModel])
def test_sa_trace_has_one_entry_per_sweep_across_draw_blocks(cls, sweeps):
    # Randomness is drawn SWEEPS_PER_DRAW sweeps at a time by the estimator's
    # runs and BLOCK_ENTRIES // 10 = 1638 at a time by a single run; a
    # schedule that ends inside, at or just past a block edge must still run
    # every sweep.
    model = random_model(np.random.default_rng(4), 10, cls)
    schedule = AnnealSchedule(sweeps=sweeps)
    _, _, trace = simulated_annealing(model, schedule, seed=3)
    traces = [trace] + [t for _, t, _ in full_runs(model, schedule, 2, 3)]
    for trace in traces:
        assert len(trace) == sweeps
        assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_sa_finds_chain_ground_state():
    model = chain_ferromagnet(12)
    hits = 0
    for seed in range(100):
        _, best_e, _ = simulated_annealing(
            model, AnnealSchedule(sweeps=200), seed=seed)
        if best_e <= -11.0 + 1e-9:
            hits += 1
    assert hits >= 99


def test_sa_binary_model():
    model = BinaryModel(4, (1.0, 1.0, -3.0, -3.0), {(2, 3): 1.0})
    best, best_e, _ = simulated_annealing(
        model, AnnealSchedule(sweeps=100), seed=1)
    assert set(best) <= {0, 1}
    assert best_e == pytest.approx(-5.0)


def test_sa_degenerate_single_sweep():
    model = chain_ferromagnet(4)
    best, best_e, trace = simulated_annealing(
        model, AnnealSchedule(sweeps=1), seed=3)
    assert len(trace) == 1
    assert best_e == pytest.approx(energy(model, best), abs=1e-12)


# Per class, (sweeps, model seed, seed, assignment, best energy, trace). The
# 6-sweep entries are one draw block under either single-run layout; the
# 20-sweep ones, recorded from the kernel that draws a single run's targets
# and Exp(1) limits BLOCK_ENTRIES at a time, pin that layout past the old
# SWEEPS_PER_DRAW block edges. Both pin RNG use and float arithmetic.
SA_GOLDEN = {
    IsingModel: [
        (6, 23, 31, (-1, -1, 1, 1, -1, 1, -1, -1, -1), -20.316512422611563,
         [-6.616437713727311, -7.289650040196118, -11.647949673412842,
          -11.921406484093753, -17.219437804117106, -20.316512422611567]),
        (20, 23, 31, (1, -1, 1, 1, -1, 1, -1, -1, -1), -20.649677797026392,
         [-6.616437713727311] * 2 + [-7.251455825336159] * 2
         + [-8.308087331106563, -20.316512422611567]
         + [-20.6496777970264] * 14),
    ],
    BinaryModel: [
        (6, 29, 37, (1, 0, 0, 0, 0, 1, 1, 0, 1), -1.570327048112995,
         [-1.3793494754802413] * 4
         + [-1.5125853569363568, -1.570327048112993]),
        (20, 29, 37, (1, 0, 0, 1, 1, 0, 1, 0, 1), -2.0739519985807338,
         [-1.3793494754802413] * 13 + [-1.4347211585451043] * 3
         + [-2.073951998580733] * 4),
    ],
}


@pytest.mark.parametrize("cls", [IsingModel, BinaryModel])
def test_sa_golden_outputs(cls):
    for sweeps, model_seed, seed, assignment, best_e, trace in SA_GOLDEN[cls]:
        model = random_model(np.random.default_rng(model_seed), 9, cls)
        assert simulated_annealing(model, AnnealSchedule(sweeps),
                                   seed=seed) == (assignment, best_e, trace)


# simulated_annealing runs, of seeds 0..399, that reach the ground of
# random_model(default_rng(1), 12, cls), recorded from the kernel that drew a
# single run's targets and Exp(1) limits SWEEPS_PER_DRAW sweeps at a time. A
# change of the single-run draw layout must leave each rate statistically
# equal.
SA_SINGLE_RUN_HITS = {(IsingModel, 20): 115, (IsingModel, 40): 200,
                      (BinaryModel, 20): 248, (BinaryModel, 40): 316}


@pytest.mark.parametrize("cls, sweeps", list(SA_SINGLE_RUN_HITS),
                         ids=lambda v: getattr(v, "__name__", v))
def test_sa_hit_rates_match_per_block_draw_kernel(cls, sweeps):
    runs = 400
    model = random_model(np.random.default_rng(1), 12, cls)
    ground, _ = brute_force(model)
    hits = sum(simulated_annealing(model, AnnealSchedule(sweeps), seed)[1]
               <= ground + 1e-9 for seed in range(runs))
    low, high = wilson_interval(hits / runs, runs)
    ref_low, ref_high = wilson_interval(
        SA_SINGLE_RUN_HITS[(cls, sweeps)] / runs, runs)
    assert low <= ref_high and ref_low <= high


def full_runs(model, schedule, runs, seed):
    """The estimator's runs, from its generator, each annealed to the end."""
    return solvers._anneal(model, schedule, np.random.default_rng(seed), runs)


def test_success_probability_counts_sa_runs():
    # Real weights: a hit is confirmed by ``energy``, not by the incremental
    # energy alone.
    model = random_model(np.random.default_rng(8), 10)
    schedule = AnnealSchedule(sweeps=5)
    ground, _ = brute_force(model)
    stats = estimate_success_probability(
        model, schedule, runs=30, threshold=ground, seed=13)
    runs = full_runs(model, schedule, 30, seed=13)
    assert stats.successes == sum(
        energy(model, best) <= ground + 1e-9 for best, _, _ in runs)
    assert 0 < stats.successes < 30


@pytest.mark.parametrize("sweeps", [1, 6, 8, 20])
@pytest.mark.parametrize("cls", [IsingModel, BinaryModel])
def test_anneal_single_run_equals_simulated_annealing(cls, sweeps):
    # simulated_annealing is one run of _anneal that draws BLOCK_ENTRIES // n
    # sweeps at a time. Up to SWEEPS_PER_DRAW sweeps the estimator's layout
    # draws the same single block, so its single run equals it too.
    for model_seed in range(5):
        model = random_model(np.random.default_rng(model_seed), 9, cls)
        schedule = AnnealSchedule(sweeps=sweeps)
        [(best, trace, hit)] = solvers._anneal(
            model, schedule, np.random.default_rng(model_seed), 1,
            sweeps_per_draw=solvers.BLOCK_ENTRIES // 9)
        sa_best, _, sa_trace = simulated_annealing(model, schedule,
                                                   seed=model_seed)
        assert (tuple(best), trace, hit) == (sa_best, sa_trace, False)
        if sweeps <= solvers.SWEEPS_PER_DRAW:
            assert full_runs(model, schedule, 1, seed=model_seed) == [
                (best, trace, hit)]


def test_run_trace_does_not_change_when_other_runs_stop():
    # Every block draws for every run, so stopping some runs moves no other
    # run's draws: a stopped run's trace is a prefix of its full trace and
    # an unstopped run's trace is all of it.
    model = random_model(np.random.default_rng(3), 12)
    schedule = AnnealSchedule(sweeps=30)
    ground, _ = brute_force(model)
    stopped = solvers._anneal(model, schedule, np.random.default_rng(6), 24,
                              stop=ground + 1e-9)
    full = full_runs(model, schedule, 24, seed=6)
    assert 0 < sum(hit for _, _, hit in stopped) < 24
    for (best, trace, hit), (_, full_trace, _) in zip(stopped, full):
        if hit:
            assert len(trace) < 30
            assert trace == full_trace[:len(trace)]
            assert energy(model, best) <= ground + 1e-9
        else:
            assert trace == full_trace


@pytest.mark.parametrize("model", [
    planted_ferromagnet(8, density=0.5, seed=3),
    random_model(np.random.default_rng(8), 8),
], ids=["exact", "real"])
def test_run_that_starts_at_the_stop_stops_before_its_first_sweep(model):
    # The stop is the lowest start energy: the run that starts there is a
    # hit with an empty trace, where annealed it runs every sweep, and no
    # other run's draws move.
    schedule = AnnealSchedule(sweeps=20)
    bits = np.random.default_rng(4).integers(0, 2, size=(6, model.n))
    starts = (2 * bits - 1 if model.spin else bits).tolist()
    energies = [energy(model, start) for start in starts]
    first = int(np.argmin(energies))
    stopped = solvers._anneal(model, schedule, np.random.default_rng(4), 6,
                              energies[first] + 1e-9)
    full = full_runs(model, schedule, 6, seed=4)
    assert stopped[first] == (starts[first], [], True)
    assert len(full[first][1]) == 20
    assert sum(trace == [] for _, trace, _ in stopped) == 1
    for (_, trace, hit), (_, full_trace, _) in zip(stopped, full):
        # A hit ends its last sweep early, where the full run goes on.
        kept = max(len(trace) - 1, 0) if hit else len(full_trace)
        assert trace[:kept] == full_trace[:kept]


@settings(max_examples=60, deadline=None)
@given(model=quadratic_models(st.integers(-8, 8).map(lambda k: k / 2), max_n=8),
       shift=st.sampled_from([-0.5, 0.0, 0.5]), sweeps=st.integers(1, 20),
       runs=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
def test_success_probability_equals_full_sa_runs(model, shift, sweeps, runs,
                                                 seed):
    # Stopping a run at its first hit must count exactly the runs whose full
    # schedule ends at or below the threshold. Half-integer weights keep the
    # incremental energies exact; a threshold below the ground admits none.
    ground, _ = brute_force(model)
    schedule = AnnealSchedule(sweeps=sweeps)
    stats = estimate_success_probability(
        model, schedule, runs=runs, threshold=ground + shift, seed=seed)
    full = full_runs(model, schedule, runs, seed)
    assert stats.successes == sum(
        energy(model, best) <= ground + shift + 1e-9 for best, _, _ in full)
    if shift < 0:
        assert stats.successes == 0


@settings(max_examples=80, deadline=None)
@given(model=st.sampled_from([1.0, 0.5]).flatmap(lambda unit: quadratic_models(
           st.integers(-8, 8).map(lambda k: k * unit), max_n=8)),
       threshold=st.sampled_from(["start", -0.5, 0.0, 0.5, 2.0]),
       sweeps=st.integers(1, 20), runs=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_exact_shortcut_counts_the_confirmed_successes(model, threshold, sweeps,
                                                       runs, seed):
    # On an integer model the running energy decides hits and successes
    # without ``energy``; with confirmation forced on, the same runs succeed.
    # A threshold at run 0's start energy is met before any move.
    coefficients = (model.offset, *model.h, *model.J.values())
    assert model.exact == all(c == int(c) for c in coefficients)
    if threshold == "start":
        bits = np.random.default_rng(seed).integers(0, 2, size=(runs, model.n))
        threshold = energy(model, (2 * bits[0] - 1 if model.spin
                                   else bits[0]).tolist())
    else:
        threshold += brute_force(model)[0]
    schedule = AnnealSchedule(sweeps=sweeps)
    stats = estimate_success_probability(model, schedule, runs, threshold,
                                         seed)
    forced = dataclasses.replace(model)
    vars(forced)["exact"] = False
    confirmed = estimate_success_probability(forced, schedule, runs,
                                             threshold, seed)
    assert stats == confirmed


@pytest.mark.parametrize("model, exact", [
    (random_model(np.random.default_rng(8), 10), False),
    (IsingModel(3, (2.0**51, 1.0, -1.0), {(0, 1): 1.0, (1, 2): -2.0}), False),
    (IsingModel(3, (2.0**50, 1.0, -1.0), {(0, 1): 1.0, (1, 2): -2.0}), True),
    (planted_ferromagnet(10, density=0.5, seed=1), True),
], ids=["real", "integer-past-bound", "integer-within-bound", "planted"])
def test_only_exact_models_skip_energy(monkeypatch, model, exact):
    # Real weights, or integers with 4 * sum of |coefficients| >= 2^53, need
    # ``energy`` to confirm each run: at least one call per run.
    assert model.exact == exact
    ground, _ = brute_force(model)
    calls = []

    def counted(*args):
        calls.append(args)
        return energy(*args)

    monkeypatch.setattr(solvers, "energy", counted)
    stats = estimate_success_probability(
        model, AnnealSchedule(sweeps=5), runs=30, threshold=ground, seed=13)
    assert stats.successes > 0
    if exact:
        assert calls == []
    else:
        assert len(calls) >= 30


def test_success_probability_stops_runs_at_first_hit(monkeypatch):
    # On a planted n = 12 glass, 128 sweeps reach the certified ground long
    # before the schedule ends; those runs must stop there.
    model = planted_ferromagnet(12, density=0.5, seed=4)
    ground = -float(len(model.J))
    anneal, lengths = solvers._anneal, []

    def recording(*args, **kwargs):
        results = anneal(*args, **kwargs)
        lengths.extend((len(trace), hit) for _, trace, hit in results)
        return results

    monkeypatch.setattr(solvers, "_anneal", recording)
    stats = estimate_success_probability(
        model, AnnealSchedule(sweeps=128), runs=16, threshold=ground, seed=2)
    assert stats.successes == 16
    assert len(lengths) == 16
    assert all(hit and n < 128 for n, hit in lengths)
    _, _, trace = simulated_annealing(model, AnnealSchedule(sweeps=128), seed=2)
    assert len(trace) == 128


# Successes in 4000 runs at seed 7 on planted_ferromagnet(n, 0.5, 100 + n),
# recorded from the kernel that drew targets and uniforms once per sweep and
# accepted against exp(-beta * dE). A change of SA's random stream must leave
# every success probability statistically equal.
PER_SWEEP_DRAW_SUCCESSES = {(14, 2): 551, (14, 4): 2941, (20, 4): 2784,
                            (20, 8): 3958, (16, 3): 1547}


@pytest.mark.parametrize("n, sweeps", list(PER_SWEEP_DRAW_SUCCESSES))
def test_success_counts_match_per_sweep_draw_kernel(n, sweeps):
    runs = 4000
    model = planted_ferromagnet(n, 0.5, 100 + n)
    stats = estimate_success_probability(
        model, AnnealSchedule(sweeps=sweeps), runs=runs,
        threshold=-float(len(model.J)), seed=7)
    low, high = wilson_interval(stats.p_hat, runs)
    ref_low, ref_high = wilson_interval(
        PER_SWEEP_DRAW_SUCCESSES[(n, sweeps)] / runs, runs)
    assert low <= ref_high and ref_low <= high


def test_success_probability_reproducible_and_bounded():
    model = chain_ferromagnet(8)
    stats = estimate_success_probability(
        model, AnnealSchedule(sweeps=30), runs=20, threshold=-7.0, seed=5)
    again = estimate_success_probability(
        model, AnnealSchedule(sweeps=30), runs=20, threshold=-7.0, seed=5)
    assert stats.successes == again.successes
    assert 0.0 <= stats.p_hat <= 1.0


def test_success_probability_monotone_in_sweeps():
    model = planted_ferromagnet(14, density=0.4, seed=0)
    ground, _ = brute_force(model)
    p = []
    for sweeps in (2, 30, 300):
        stats = estimate_success_probability(
            model, AnnealSchedule(sweeps=sweeps), runs=40,
            threshold=ground, seed=11)
        p.append(stats.p_hat)
    assert p[0] <= p[1] <= p[2]
    assert p[2] > 0.8


def test_success_probability_run_validation():
    with pytest.raises(ValueError):
        estimate_success_probability(
            chain_ferromagnet(3), AnnealSchedule(sweeps=1), runs=0,
            threshold=0.0, seed=0)


def test_planted_ferromagnet_ground_state():
    # The planted configuration saturates every coupling, so its energy is
    # -(number of edges) and brute force can do no better.
    model = planted_ferromagnet(10, density=0.5, seed=9)
    ground, _ = brute_force(model)
    assert ground == pytest.approx(-len(model.J))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       seed=st.integers(0, 2**31 - 1))
def test_planted_ground_is_minus_coupling_count(n, density, seed):
    # tts-scan uses -len(J) as the success threshold instead of brute force.
    model = planted_ferromagnet(n, density, seed)
    ground, _ = brute_force(model)
    assert ground == -float(len(model.J))


@pytest.mark.parametrize("density", [float("nan"), -0.5, 1.5])
def test_planted_ferromagnet_rejects_density_outside_unit_interval(density):
    with pytest.raises(ValueError, match="density must be in"):
        planted_ferromagnet(8, density, seed=1)


def test_planted_ferromagnet_over_size_cap():
    # 1449 spins have 1049076 candidate couplings, past the 2^20 cap; 1448
    # spins have 1047628.
    with pytest.raises(CapacityError, match="1049076 candidate couplings"):
        planted_ferromagnet(1449, density=0.5, seed=1)
    assert planted_ferromagnet(1448, density=0.0, seed=1).J == {}


def nested_loop_planted_couplings(n, density, seed):
    """One uniform per pair (i, j), i < j, drawn in row order."""
    rng = np.random.default_rng(seed)
    planted = rng.choice([-1, 1], size=n)
    J = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                J[(i, j)] = -float(planted[i] * planted[j])
    return J


@pytest.mark.parametrize("n", [1, 2, 5, 14, 20, 33])
def test_planted_ferromagnet_equals_nested_loop_draws(n):
    for density in (0.0, 0.3, 0.5, 1.0):
        for seed in (0, 5, 123):
            J = planted_ferromagnet(n, density, seed).J
            ref = nested_loop_planted_couplings(n, density, seed)
            assert list(J.items()) == list(ref.items()), (density, seed)
            assert all(type(k) is int for key in J for k in key)
            assert all(type(w) is float for w in J.values())


def test_planted_ferromagnet_reproducible():
    a = planted_ferromagnet(8, density=0.3, seed=4)
    b = planted_ferromagnet(8, density=0.3, seed=4)
    assert a.J == b.J
