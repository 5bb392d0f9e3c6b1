import math
import re
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scbf import montecarlo
from scbf.errors import InsufficientData
from scbf.montecarlo import (
    FixedPolicyController,
    OpenLoopController,
    SafetyCurve,
    ScbfQpController,
    SimConfig,
    bicycle_circle_reference,
    constant_reference,
    estimate_safety_curve,
    fit_decay_rate,
    simulate,
    wilson_interval,
    write_safety_curve_csv,
    write_trajectory_csv,
)
from scbf.safety_filter import FilterSpec
from scbf.semigroup import PolicyTable, PropagationConfig
from scbf.spectral import initial_field, power_iteration, power_policy_iteration
from scbf.systems import make_benchmark


def dirichlet_series(t: float, terms: int = 50) -> float:
    """Survival of standard Brownian motion on [-1, 1] started at 0."""
    return sum(
        (4.0 / (k * math.pi)) * math.sin(k * math.pi / 2.0)
        * math.exp(-((k * math.pi / 2.0) ** 2) * t / 2.0)
        for k in range(1, 2 * terms, 2)
    )


def split_into_chunks(monkeypatch, size):
    """Cap chunks at ``size`` trials and record each chunk's trial range and
    the thread that ran it."""
    chunks = []
    run_chunk = montecarlo._curve_chunk

    def recording(sys, cfg, x0, lo, hi):
        chunks.append((lo, hi, threading.get_ident()))
        return run_chunk(sys, cfg, x0, lo, hi)

    monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", size)
    monkeypatch.setattr(montecarlo, "_curve_chunk", recording)
    return chunks


@pytest.fixture(scope="module")
def brownian():
    return make_benchmark("brownian_1d")


@pytest.fixture(scope="module")
def di_omni_barrier():
    sys = make_benchmark("di_omni", grid_counts=(21, 41))
    return sys, power_policy_iteration(sys, PropagationConfig(horizon=0.5), tol=1e-4)


def test_t_end_not_whole_steps_rejected():
    # t_end = 1.0 at dt = 0.3 used to simulate to 0.9 without a word.
    ctrl = OpenLoopController([0.0])
    with pytest.raises(ValueError, match="t_end 1.0 is not a whole number of steps of dt 0.3"):
        SimConfig(t_end=1.0, trials=1, seed=0, controller=ctrl, dt=0.3)
    assert SimConfig(t_end=0.3, trials=1, seed=0, controller=ctrl, dt=0.1).n_steps == 3


@pytest.mark.parametrize("field, value", [("trials", 2.5), ("seed", 1.5)])
def test_non_integer_trials_and_seed_rejected(field, value):
    # 2.5 trials used to fail later with a numpy TypeError, a seed of 1.5
    # at once with a TypeError that named no field.
    kw = {"trials": 1, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
        SimConfig(t_end=1.0, controller=OpenLoopController([0.0]), **kw)


@pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (1e-3, math.inf), (1e-3, math.nan),
                                       (math.inf, 1.0)])
def test_non_finite_step_or_horizon_rejected(dt, t_end):
    # An infinite t_end raised OverflowError from n_steps, a nan dt
    # "cannot convert float NaN to integer".
    with pytest.raises(ValueError, match="dt and t_end must be finite and positive"):
        SimConfig(t_end=t_end, trials=1, seed=0, controller=OpenLoopController([0.0]), dt=dt)


@pytest.mark.parametrize("dt, t_end, trials, message", [
    (0.5, 0.3, 1, "dt must not exceed t_end"), (1e-3, 1.0, 0, "need at least one trial")])
def test_step_above_horizon_or_no_trials_rejected(dt, t_end, trials, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(t_end=t_end, trials=trials, seed=0, controller=OpenLoopController([0.0]), dt=dt)


@pytest.mark.parametrize("entry", ["simulate", "estimate_safety_curve"])
@pytest.mark.parametrize("x0, message", [
    ([3.0, 0.0], "initial state is outside the safe set"),
    # These used to end in an IndexError and a numpy broadcast error.
    ([0.0], "x0 has 1 entries, di_omni has 2 states"),
    ([0.0, 0.0, 5.0], "x0 has 3 entries, di_omni has 2 states")])
def test_bad_start_rejected(entry, x0, message):
    sys = make_benchmark("di_omni", grid_counts=(21, 41))
    cfg = SimConfig(t_end=0.1, trials=5, seed=0, controller=OpenLoopController([0.0]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(montecarlo, entry)(sys, cfg, x0)


class TestSimulate:
    def test_frozen_dynamics(self):
        sys = make_benchmark("brownian_1d", {"sigma": 0.0})
        cfg = SimConfig(t_end=0.5, trials=1, seed=0,
                        controller=OpenLoopController([0.0]))
        traj = simulate(sys, cfg, [0.3])
        assert np.all(traj.states == 0.3)
        assert np.all(traj.alive)

    def test_killed_stays_killed(self):
        sys = make_benchmark("di_omni", grid_counts=(21, 41))
        cfg = SimConfig(t_end=3.0, trials=1, seed=5,
                        controller=OpenLoopController([0.0]))
        traj = simulate(sys, cfg, [0.9, 1.8])  # near the corner, dies fast
        assert traj.killed
        k = int(np.argmin(traj.alive))
        assert not traj.alive[k:].any()
        assert np.all(traj.states[k:] == traj.states[k])
        assert np.all(traj.inputs[k:] == 0.0)

    def test_deterministic_in_seed_and_trial(self, brownian):
        cfg = SimConfig(t_end=0.2, trials=4, seed=9,
                        controller=OpenLoopController([0.0]))
        a = simulate(brownian, cfg, [0.1], trial=2)
        b = simulate(brownian, cfg, [0.1], trial=2)
        c = simulate(brownian, cfg, [0.1], trial=3)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    @pytest.mark.parametrize("trial, message", [
        (-1, "trial must lie in [0, 2**64), got -1"),
        (2**64, f"trial must lie in [0, 2**64), got {2**64}"),
        (2.0, "trial must be an integer, got 2.0")])
    def test_trial_out_of_range_rejected(self, brownian, trial, message):
        # 2**64 used to give trial 0's path and -1 that of trial 2**64 - 1.
        cfg = SimConfig(t_end=0.1, trials=1, seed=3, controller=OpenLoopController([0.0]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(brownian, cfg, [0.0], trial=trial)

    def test_last_trial_key_is_its_own(self, brownian):
        cfg = SimConfig(t_end=0.1, trials=1, seed=3, controller=OpenLoopController([0.0]))
        last = simulate(brownian, cfg, [0.0], trial=2**64 - 1).states
        assert not np.array_equal(last, simulate(brownian, cfg, [0.0], trial=0).states)
        assert not np.array_equal(last, simulate(brownian, cfg, [0.0], trial=2**63 - 1).states)


class TestSafetyCurve:
    def test_survival_starts_at_one_and_decreases(self, brownian):
        cfg = SimConfig(t_end=0.5, trials=400, seed=3,
                        controller=OpenLoopController([0.0]))
        curve = estimate_safety_curve(brownian, cfg, [0.0])
        assert curve.survival_fraction[0] == 1.0
        assert np.all(np.diff(curve.alive_counts) <= 0)

    def test_brownian_against_heat_kernel_series(self, brownian):
        # [DERIVED] Dirichlet heat kernel series; dt = 1e-4 keeps the
        # discrete-exit bias below the 99% interval resolution.
        cfg = SimConfig(t_end=1.0, trials=10000, seed=2024,
                        controller=OpenLoopController([0.0]), dt=1e-4)
        curve = estimate_safety_curve(brownian, cfg, [0.0], confidence=0.99)
        z = dirichlet_series(1.0)
        assert curve.wilson_low[-1] <= z <= curve.wilson_high[-1]

    def test_thread_count_invariance(self, brownian, monkeypatch):
        chunks = split_into_chunks(monkeypatch, 200)
        cfg = SimConfig(t_end=0.3, trials=600, seed=42,
                        controller=OpenLoopController([0.0]))
        c1 = estimate_safety_curve(brownian, cfg, [0.0], threads=1)
        assert [c[:2] for c in chunks] == [(0, 200), (200, 400), (400, 600)]
        assert {c[2] for c in chunks} == {threading.get_ident()}
        chunks.clear()
        c3 = estimate_safety_curve(brownian, cfg, [0.0], threads=3)
        assert len(chunks) == 3
        assert threading.get_ident() not in {c[2] for c in chunks}
        assert np.array_equal(c1.alive_counts, c3.alive_counts)

    @pytest.mark.parametrize("threads, message", [
        (0, "threads must be at least 1, got 0"), (-3, "threads must be at least 1, got -3"),
        (2.5, "threads must be an integer, got 2.5")])
    def test_thread_count_below_one_or_fractional_rejected(self, brownian, threads, message):
        # These used to run one thread without a word.
        cfg = SimConfig(t_end=0.1, trials=10, seed=1, controller=OpenLoopController([0.0]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_safety_curve(brownian, cfg, [0.0], threads=threads)

    def test_noise_block_length_invariance(self, brownian, monkeypatch):
        # Drawing a trial's normals in blocks of any length gives the same
        # stream as one draw of the whole horizon.
        cfg = SimConfig(t_end=0.3, trials=300, seed=43,
                        controller=OpenLoopController([0.0]))
        base = estimate_safety_curve(brownian, cfg, [0.0]).alive_counts
        path = simulate(brownian, cfg, [0.0], trial=5).states
        for block in (1, 7, 1000):
            monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", block)
            assert np.array_equal(estimate_safety_curve(brownian, cfg, [0.0]).alive_counts,
                                  base)
            assert np.array_equal(simulate(brownian, cfg, [0.0], trial=5).states, path)

    def test_simulate_matches_batch_trial(self, brownian):
        # A trial's path does not depend on the other trials in its batch.
        cfg = SimConfig(t_end=0.3, trials=50, seed=44,
                        controller=OpenLoopController([0.0]))
        alive = np.zeros(cfg.n_steps + 1, dtype=np.int64)
        for i in range(cfg.trials):
            alive += simulate(brownian, cfg, [0.0], trial=i).alive
        curve = estimate_safety_curve(brownian, cfg, [0.0])
        assert np.array_equal(curve.alive_counts, alive)

    @pytest.mark.parametrize("kind", ["fixed_policy", "scbf_qp"])
    def test_batch_row_matches_lone_path(self, di_omni_barrier, kind):
        # A trial stepped as row 0 of a batch, beside rows that die while it
        # lives, takes its lone path's states and inputs bit for bit: the
        # policy blend, the filter and the two-channel noise product read
        # each row on its own.  (Alive counts on brownian_1d, one noise
        # channel, cannot show a noise product that depends on the batch.)
        sys, res = di_omni_barrier
        controller = (FixedPolicyController(res.policy) if kind == "fixed_policy" else
                      ScbfQpController(FilterSpec(sys, res), constant_reference([0.5])))
        cfg = SimConfig(t_end=1.0, trials=40, seed=46, controller=controller)
        x0 = np.array([0.6, 1.2])
        for lo in (0, 5, 17):
            counts, path = montecarlo._curve_chunk(sys, cfg, x0, lo, lo + 20)
            lone = simulate(sys, cfg, x0, trial=lo)
            assert path.states.tobytes() == lone.states.tobytes()
            assert path.inputs.tobytes() == lone.inputs.tobytes()
            assert np.array_equal(path.alive, lone.alive)
            assert counts[int(path.alive.sum()) - 1] < 20   # rows died beside it

    def test_seed_determinism_and_sensitivity(self, brownian):
        base = dict(t_end=0.3, trials=500, controller=OpenLoopController([0.0]))
        c1 = estimate_safety_curve(brownian, SimConfig(seed=1, **base), [0.0])
        c2 = estimate_safety_curve(brownian, SimConfig(seed=1, **base), [0.0])
        c3 = estimate_safety_curve(brownian, SimConfig(seed=2, **base), [0.0])
        assert np.array_equal(c1.alive_counts, c2.alive_counts)
        assert not np.array_equal(c1.alive_counts, c3.alive_counts)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            SimConfig(t_end=0.1, trials=1, seed=seed, controller=OpenLoopController([0.0]))

    def test_trial_streams_use_the_exact_key(self):
        # Words below 2**63 give the stream Philox(key=...) gives; above,
        # the key is no longer rounded through a float (2**63 + 5 used to
        # become 2**63, and 2**64 - 1 became 0).
        def stream(seed, trial):
            return np.random.Philox(montecarlo._TrialKey(seed, trial))

        for seed, trial in ((0, 0), (5, 17), (2**63 - 1, 2**63 - 1)):
            assert np.array_equal(np.random.Generator(stream(seed, trial)).standard_normal(8),
                                  np.random.Generator(np.random.Philox(key=[seed, trial]))
                                  .standard_normal(8))
        for seed in (2**63 + 5, 2**64 - 1):
            assert stream(seed, 3).state["state"]["key"].tolist() == [seed, 3]

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint64), (2, np.uint32), (1, np.uint64)])
    def test_trial_key_is_two_64_bit_words(self, n_words, dtype):
        key = montecarlo._TrialKey(5, 17)
        with pytest.raises(ValueError, match="^a trial key is two 64-bit words$"):
            key.generate_state(n_words, dtype)
        assert key.generate_state(2, np.uint64).tolist() == [5, 17]

    def test_top_seed_has_its_own_stream(self, brownian):
        base = dict(t_end=0.3, trials=200, controller=OpenLoopController([0.0]))
        top = estimate_safety_curve(brownian, SimConfig(seed=2**64 - 1, **base), [0.0])
        zero = estimate_safety_curve(brownian, SimConfig(seed=0, **base), [0.0])
        assert not np.array_equal(top.alive_counts, zero.alive_counts)

    def test_ci_width_shrinks_like_sqrt_n(self, brownian):
        widths = []
        for trials in (100, 1000, 10000):
            cfg = SimConfig(t_end=0.5, trials=trials, seed=8,
                            controller=OpenLoopController([0.0]), dt=5e-3)
            curve = estimate_safety_curve(brownian, cfg, [0.0])
            k = curve.times.size // 2
            widths.append(curve.wilson_high[k] - curve.wilson_low[k])
        assert 2.0 <= widths[0] / widths[1] <= 5.0
        assert 2.0 <= widths[1] / widths[2] <= 5.0

    def test_bound_attached(self, brownian):
        pol = PolicyTable.zero(brownian)
        res = power_iteration(brownian, pol, PropagationConfig(horizon=0.5),
                              initial_field(brownian, "bump"), tol=1e-6)
        cfg = SimConfig(t_end=0.5, trials=200, seed=4,
                        controller=FixedPolicyController(pol))
        curve = estimate_safety_curve(brownian, cfg, [0.0], bound=res)
        assert curve.theoretical_bound is not None
        assert curve.theoretical_bound[0] == pytest.approx(1.0, abs=1e-6)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 400)
        s = np.exp(-1.2424 * t)
        curve = SafetyCurve(t, s, s, s, 1, np.ones_like(t, dtype=np.int64))
        assert fit_decay_rate(curve, 0.5) == pytest.approx(1.2424, abs=1e-6)

    def test_insufficient_data(self):
        t = np.linspace(0.0, 1.0, 50)
        s = np.where(t < 0.2, 1.0, 0.0)
        curve = SafetyCurve(t, s, s, s, 1, (s > 0).astype(np.int64))
        with pytest.raises(InsufficientData):
            fit_decay_rate(curve, 0.5)

    @pytest.mark.parametrize("window", [0.0, -0.5, 1.5, math.nan])
    def test_window_outside_unit_interval_rejected(self, window):
        t = np.linspace(0.0, 3.0, 400)
        s = np.exp(-t)
        curve = SafetyCurve(t, s, s, s, 1, np.ones_like(t, dtype=np.int64))
        with pytest.raises(ValueError, match=r"^window must lie in \(0, 1\]$"):
            fit_decay_rate(curve, window)

    def test_brownian_rate(self, brownian):
        cfg = SimConfig(t_end=3.0, trials=10000, seed=6,
                        controller=OpenLoopController([0.0]), dt=1e-3)
        curve = estimate_safety_curve(brownian, cfg, [0.0])
        rate = fit_decay_rate(curve, 0.5)
        assert abs(rate - math.pi**2 / 8.0) / (math.pi**2 / 8.0) < 0.10


class TestWilson:
    def test_edge_cases(self):
        lo, hi = wilson_interval(np.array([0, 10]), 10)
        assert lo[0] == 0.0 and hi[0] < 0.5
        assert hi[1] == pytest.approx(1.0, abs=1e-12) and lo[1] > 0.5

    def test_no_trials_rejected(self):
        # n = 0 used to warn and return NaN bounds.
        with pytest.raises(ValueError,
                           match="^a Wilson interval needs at least one trial, got n = 0$"):
            wilson_interval(np.array([0]), 0)

    def test_unknown_confidence(self):
        with pytest.raises(ValueError):
            wilson_interval(np.array([1]), 10, confidence=0.5)


class TestCsv:
    def test_round_trip_stability(self, tmp_path, brownian):
        cfg = SimConfig(t_end=0.05, trials=20, seed=1,
                        controller=OpenLoopController([0.0]))
        traj = simulate(brownian, cfg, [0.0])
        curve = estimate_safety_curve(brownian, cfg, [0.0])
        write_trajectory_csv(traj, tmp_path / "t.csv")
        write_safety_curve_csv(curve, tmp_path / "c.csv")
        t_bytes = (tmp_path / "t.csv").read_bytes()
        c_bytes = (tmp_path / "c.csv").read_bytes()
        write_trajectory_csv(traj, tmp_path / "t.csv")
        write_safety_curve_csv(curve, tmp_path / "c.csv")
        assert (tmp_path / "t.csv").read_bytes() == t_bytes
        assert (tmp_path / "c.csv").read_bytes() == c_bytes


class TestReferences:
    def test_constant(self):
        ref = constant_reference([0.03, 300.0])
        out = ref(0.0, np.zeros((4, 3)))
        assert_allclose(out, np.tile([0.03, 300.0], (4, 1)))

    def test_circle_tracker_shapes_and_bounds(self):
        ref = bicycle_circle_reference()
        X = np.array([[1.5, 0.0, np.pi / 2, 1.0],
                      [0.0, 2.5, np.pi, 0.5]])
        U = ref(0.0, X)
        assert U.shape == (2, 2)
        assert np.all(np.abs(U) <= 1.0)
        # on schedule: steady left steering (circle curvature), speed on hold
        assert 0.0 < U[0, 0] < 0.8
        assert abs(U[0, 1]) < 0.1

    def test_circle_tracker_chases_schedule(self):
        # far behind schedule, the chase vector points across the circle
        ref = bicycle_circle_reference()
        behind = np.array([[1.5, 0.0, np.pi / 2, 1.0]])
        t_late = 0.5 * np.pi * 1.5  # target is a quarter turn ahead by now
        U = ref(t_late, behind)
        assert U[0, 0] == 1.0  # hard-left chase
