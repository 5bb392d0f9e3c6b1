import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scbf.errors import NonPositiveAirspeed, StructureError, UnknownParameter
from scbf.grid import ScalarField
from scbf.safety_filter import (
    FilterSpec, _Affine, _Candidates, _Quadratic, generator_coefficients)
from scbf.semigroup import PolicyTable, PropagationConfig, _Operator
from scbf.spectral import EigenResult
from scbf.systems import BENCHMARKS, WIG_DEFAULTS, SystemModel, make_benchmark, wig_forces
from test_pinned_optimal import _cross_input_noise

SMALL_GRIDS = {"wig_aircraft": (5, 5, 5), "bicycle": (7, 7, 6, 5), "brownian_1d": (21,)}


def _two_input_noise():
    """Double integrator pushed by two inputs, the first of which scales the
    noise: input-affine drift and quadratic Gram, but not a scalar input."""
    di = make_benchmark("di_input_noise", grid_counts=(11, 21))

    def drift(x, u):
        return di.drift(x, np.asarray(u)[..., :1] + np.asarray(u)[..., 1:])

    return SystemModel(name="two_input_noise", n_x=2, n_u=2, n_w=1, drift=drift,
                       diffusion=lambda x, u: di.diffusion(x, np.asarray(u)[..., :1]),
                       input_lower=[-1.0, -1.0], input_upper=[1.0, 1.0],
                       grid=di.grid, safe_set=di.safe_set)


def _small(name):
    if name == "cross_input_noise":
        return _cross_input_noise((5, 5, 4))
    if name == "two_input_noise":
        return _two_input_noise()
    return make_benchmark(name, grid_counts=SMALL_GRIDS.get(name, (11, 21)))


def _random_points(sys, shape, seed):
    """States in the grid box and inputs a quarter-width beyond the input box."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(sys.grid.lower), np.asarray(sys.grid.upper)
    X = lo + (hi - lo) * rng.random(shape + (sys.n_x,))
    width = sys.input_upper - sys.input_lower
    U = sys.input_lower + width * (1.5 * rng.random(shape + (sys.n_u,)) - 0.25)
    return X, U


class TestMakeBenchmark:
    def test_di_omni_identity_noise(self):
        sys = make_benchmark("di_omni")
        x = np.array([0.3, -1.2])
        u = np.array([0.7])
        assert_allclose(sys.diffusion(x, u), np.eye(2))
        assert_allclose(sys.drift(x, u), [-1.2, 0.7])

    def test_wig_table_parameters(self):
        sys = make_benchmark("wig_aircraft", grid_counts=(5, 5, 5))
        assert sys.params["m"] == 500.0
        assert sys.params["S"] == 12.0
        assert sys.params["c_GE"] == 0.2
        assert sys.params["k_L"] == 5.0
        assert sys.params["SigmaL2"] == 6.0e4

    def test_di_deterministic_zero_noise(self):
        sys = make_benchmark("di_deterministic")
        assert_allclose(sys.diffusion(np.array([0.0, 0.0]), np.array([0.5])),
                        np.zeros((2, 1)))
        assert sys.flags.sigma_zero

    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameter):
            make_benchmark("di_omni", {"massx": 1.0})
        with pytest.raises(UnknownParameter):
            make_benchmark("no_such_system")

    def test_non_integer_grid_counts_rejected(self):
        with pytest.raises(ValueError, match="grid_counts must be an integer, got 41.7"):
            make_benchmark("di_omni", grid_counts=(41.7, 81))
        assert make_benchmark("brownian_1d", grid_counts=(41,)).grid.counts == (41,)

    @pytest.mark.parametrize("name, counts, message", [
        # used to build the default 81x161 grid, since () is falsy
        ("di_omni", [], "di_omni: grid_counts has 0 values, expected 2"),
        # these used to fail in GridSpec without naming the model
        ("di_omni", (41,), "di_omni: grid_counts has 1 value, expected 2"),
        ("bicycle", (9, 9, 8), "bicycle: grid_counts has 3 values, expected 4"),
    ], ids=["empty", "short", "short_bicycle"])
    def test_grid_counts_length_checked(self, name, counts, message):
        with pytest.raises(ValueError, match=re.escape(f"{message} (one per dimension)")):
            make_benchmark(name, grid_counts=counts)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_table_entry_builds_the_model(self, name):
        # The table's parameters, each overridden in turn, reach the model,
        # and its default counts give one grid dimension each.
        entry = BENCHMARKS[name]
        counts = SMALL_GRIDS.get(name, (11, 21))
        assert len(counts) == len(entry.counts)
        assert make_benchmark(name, grid_counts=counts).params == entry.defaults
        for key, value in entry.defaults.items():
            sys = make_benchmark(name, {key: 0.9 * value + 0.1}, counts)
            assert sys.params == {**entry.defaults, key: 0.9 * value + 0.1}
        assert make_benchmark(name).grid.counts == entry.counts

    def test_readme_lists_the_table(self):
        # README's table of built-in ids gives each id's parameters and
        # default nodes as BENCHMARKS holds them, and every id once.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = {}
        for row in readme.split("| id | model |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]:
            ids, _, params, counts = (re.findall(r"`([^`]+)`", cell)
                                      for cell in row.split("|")[1:5])
            for name in ids:
                assert name not in listed, name
                listed[name] = (params, tuple(int(c) for c in counts[0].split(",")))
        assert listed == {name: (list(entry.defaults), entry.counts)
                          for name, entry in BENCHMARKS.items()}

    @pytest.mark.parametrize("u_max", [math.nan, math.inf])
    def test_non_finite_input_box_rejected(self, capfd, u_max):
        # Such a box used to reach the structure probe, which printed LAPACK
        # parameter errors and raised LinAlgError.
        with pytest.raises(ValueError, match="^input box corners must be finite$"):
            make_benchmark("di_omni", {"u_max": u_max}, (11, 21))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("lower, upper, message", [
        ([-1.0, -1.0], [1.0, 1.0], "input box size does not match n_u"),
        ([-1.0], [1.0, 1.0], "input box size does not match n_u"),
        ([1.0], [-1.0], "input box upper corner below lower corner"),
    ])
    def test_input_box_rejected(self, lower, upper, message):
        sys = make_benchmark("di_omni", grid_counts=(11, 21))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(sys, input_lower=lower, input_upper=upper)

    def test_override_applies(self):
        sys = make_benchmark("brownian_1d", {"sigma": 2.0})
        assert sys.diffusion(np.array([0.0]), np.array([0.0]))[0, 0] == 2.0


class TestWigForces:
    def test_saturation_knee(self):
        x = np.array([3.0, WIG_DEFAULTS["V_F"], 0.0])
        u = np.array([0.05, 640.0])
        F, _, _ = wig_forces(x, u)
        assert F == pytest.approx(640.0)

    def test_zero_thrust_at_70(self):
        # c_F = 0.02, V = 70: sat(1 - 0.02*50) = sat(0) = 0
        x = np.array([3.0, 70.0, 0.0])
        F, _, _ = wig_forces(x, np.array([0.05, 640.0]))
        assert F == 0.0

    def test_ground_effect_vanishes_high(self):
        alpha = 0.1
        u = np.array([alpha, 0.0])
        _, L_high, _ = wig_forces(np.array([1e6, 40.0, 0.0]), u)
        cl_inf = WIG_DEFAULTS["C_L0"] + WIG_DEFAULTS["C_La"] * alpha
        q = 0.5 * WIG_DEFAULTS["rho"] * WIG_DEFAULTS["S"] * 40.0**2
        assert L_high == pytest.approx(q * cl_inf, rel=1e-9)

    def test_ground_effect_boosts_lift(self):
        u = np.array([0.1, 0.0])
        _, L_low, D_low = wig_forces(np.array([0.0, 40.0, 0.0]), u)
        _, L_high, D_high = wig_forces(np.array([9.0, 40.0, 0.0]), u)
        assert L_low > L_high        # lift amplified near the ground
        assert D_low < D_high        # induced drag reduced near the ground

    def test_negative_airspeed(self):
        with pytest.raises(NonPositiveAirspeed):
            wig_forces(np.array([1.0, 0.0, 0.0]), np.array([0.1, 100.0]))


class TestStructureFlags:
    def test_omni_full_rank(self):
        assert make_benchmark("di_omni").flags.noise_rank == 2
        assert make_benchmark("di_omni").flags.full_row_rank

    def test_rank_deficient_cases(self):
        for case in ("di_velocity", "di_input_noise"):
            flags = make_benchmark(case).flags
            assert flags.noise_rank == 1
            assert not flags.full_row_rank

    def test_affine_flags(self):
        for case in ("di_omni", "di_velocity", "di_input_noise",
                     "di_deterministic", "bicycle", "brownian_1d"):
            kw = {"grid_counts": (7, 7, 6, 5)} if case == "bicycle" else {}
            assert make_benchmark(case, **kw).flags.input_affine, case

    def test_wig_not_affine(self):
        flags = make_benchmark("wig_aircraft", grid_counts=(5, 5, 5)).flags
        assert not flags.input_affine
        assert flags.sigma_u_independent

    def test_input_noise_quadratic_gram(self):
        flags = make_benchmark("di_input_noise").flags
        assert not flags.sigma_u_independent
        assert flags.sigma_gram_quadratic

    # (input_affine, sigma_u_independent, sigma_zero, sigma_gram_quadratic,
    # full_row_rank, noise_rank), recorded from the per-state probe.
    FLAGS = {"bicycle": (True, True, False, True, False, 2),
             "brownian_1d": (True, True, False, True, True, 1),
             "cross_input_noise": (True, False, False, True, True, 3),
             "di_deterministic": (True, True, True, True, False, 0),
             "di_input_noise": (True, False, False, True, False, 1),
             "di_omni": (True, True, False, True, True, 2),
             "di_velocity": (True, True, False, True, False, 1),
             "two_input_noise": (True, False, False, True, False, 1),
             "wig_aircraft": (False, True, False, True, False, 2)}

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_flag_table(self, name):
        assert dataclasses.astuple(_small(name).flags) == self.FLAGS[name]

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_one_model_call_per_check(self, name):
        # drift once (affine fit); diffusion once each for the noise flags,
        # the Gram fit and the rank
        sys = _small(name)
        calls = {"drift": 0, "diffusion": 0}

        def counted(key, fn):
            def wrapper(x, u):
                calls[key] += 1
                return fn(x, u)
            return wrapper

        probed = dataclasses.replace(sys, flags=None, drift=counted("drift", sys.drift),
                                     diffusion=counted("diffusion", sys.diffusion))
        assert probed.flags == sys.flags
        assert calls["drift"] <= 1
        assert calls["diffusion"] <= 3


class TestBicycle:
    def test_heading_periodicity(self):
        sys = make_benchmark("bicycle", grid_counts=(7, 7, 6, 5))
        u = np.array([0.3, -0.2])
        x1 = np.array([1.5, 0.5, 0.7, 1.0])
        x2 = x1.copy()
        x2[2] += 2.0 * np.pi
        assert_allclose(sys.drift(x1, u), sys.drift(x2, u), atol=1e-12)

    def test_obstacle_is_exterior(self):
        sys = make_benchmark("bicycle", grid_counts=(13, 13, 6, 5))
        assert not bool(sys.contains(np.array([0.0, 0.0, 0.0, 0.0]))[0])
        assert bool(sys.contains(np.array([2.0, 0.0, 0.0, 0.0]))[0])

    def test_sdf_from_the_axes(self):
        # The signed distance is formed on the x and y axes and broadcast:
        # the bytes of evaluating it at every node.
        sys = make_benchmark("bicycle", grid_counts=(13, 11, 6, 5))
        nodes = sys.grid.nodes()
        expected = 1.0 - np.hypot(nodes[:, 0], nodes[:, 1])
        assert sys.safe_set.sdf.values.tobytes() == expected.tobytes()

    def test_noise_matrix(self):
        sys = make_benchmark("bicycle", grid_counts=(7, 7, 6, 5))
        S = sys.diffusion(np.array([2.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0]))
        expected = np.zeros((4, 2))
        expected[2, 0] = 0.5
        expected[3, 1] = 0.5
        assert_allclose(S, expected)


class TestVectorization:
    def test_batched_drift_matches_scalar(self):
        for case in ("di_omni", "wig_aircraft", "bicycle", "brownian_1d"):
            kw = {"grid_counts": (5,) * 4} if case == "bicycle" else (
                {"grid_counts": (5, 5, 5)} if case == "wig_aircraft" else {})
            sys = make_benchmark(case, **kw)
            rng = np.random.default_rng(1)
            lo = np.asarray(sys.grid.lower)
            hi = np.asarray(sys.grid.upper)
            X = lo + (hi - lo) * rng.random((6, sys.n_x))
            U = sys.input_lower + (sys.input_upper - sys.input_lower) * rng.random((6, sys.n_u))
            FB = sys.drift(X, U)
            SB = sys.diffusion(X, U)
            for i in range(6):
                assert_allclose(FB[i], sys.drift(X[i], U[i]), atol=1e-13)
                assert_allclose(SB[i], sys.diffusion(X[i], U[i]), atol=1e-13)


class TestInputStructure:
    """The filter and the optimal-control operator read the input structure
    through ``SystemModel.regime`` and ``SystemModel.gram``; the operator
    build also reads ``flags.sigma_u_independent`` and ``flags.sigma_zero``
    to evaluate one noise Gram for all candidates."""

    REGIMES = {"di_omni": "affine", "di_velocity": "affine",
               "di_input_noise": "quadratic", "di_deterministic": "affine",
               "wig_aircraft": "nonaffine", "bicycle": "affine",
               "brownian_1d": "affine", "cross_input_noise": "quadratic",
               "two_input_noise": "nonaffine"}

    def test_every_builtin_listed(self):
        assert set(self.REGIMES) == set(BENCHMARKS) | {"cross_input_noise", "two_input_noise"}

    @pytest.mark.parametrize("name, regime", sorted(REGIMES.items()))
    def test_regime_drives_filter_and_candidates(self, name, regime):
        sys = _small(name)
        assert sys.regime == regime
        res = EigenResult(gamma=0.0, psi=ScalarField(sys.grid, np.zeros(sys.grid.size)),
                          policy=PolicyTable.zero(sys), history=[], converged=True,
                          horizon=0.5)
        spec = FilterSpec(sys, res)
        assert type(spec._regime) is {"affine": _Affine, "quadratic": _Quadratic,
                                      "nonaffine": _Candidates}[regime]
        x = sys.grid.nodes()[int(np.argmax(sys.interior_mask()))]
        if regime == "nonaffine":
            with pytest.raises(StructureError, match="nonaffine"):
                generator_coefficients(spec, x)
        else:
            assert (generator_coefficients(spec, x)[2] is None) == (regime == "affine")

        op = _Operator(sys, PropagationConfig(horizon=0.1, candidate_points=3))
        # The candidates, listed here: the box corners, or a 3-point grid per
        # axis when nonaffine; one point on a degenerate axis.
        expected = np.array(list(itertools.product(*[
            (lo,) if lo == hi else np.linspace(lo, hi, 3) if regime == "nonaffine" else (lo, hi)
            for lo, hi in zip(sys.input_lower, sys.input_upper)])))
        np.testing.assert_array_equal(op.inputs, expected)
        assert (op.critical is not None) == (regime == "quadratic")
        assert op.candidates == len(expected) + (regime == "quadratic")

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_gram_exact_on_builtins(self, name):
        # Each Gram entry of a built-in system has at most one nonzero
        # product, so the summation order cannot matter.
        sys = _small(name)
        X, U = _random_points(sys, (4, 5), seed=3)
        s = sys.diffusion(X, U)
        g = sys.gram(X, U)
        assert g.shape == (4, 5, sys.n_x, sys.n_x)
        np.testing.assert_array_equal(g, np.einsum("...ik,...jk->...ij", s, s))
        np.testing.assert_array_equal(sys.gram(X[0, 0], U[0, 0]), g[0, 0])

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_constant_gram_is_declared_not_probed(self, name):
        # A constant diffusion declares its matrix, and its Gram has the
        # bytes of the per-node one; the same callable behind a wrapper
        # declares nothing and gets None.
        sys = _small(name)
        gram = sys.constant_gram()
        assert (gram is None) == (name in ("di_input_noise", "wig_aircraft"))
        if gram is not None:
            X, U = _random_points(sys, (6,), seed=5)
            expected = sys.gram_entries(X, U)
            assert np.broadcast_to(gram[:, :, None], expected.shape).tobytes() == expected.tobytes()
            wrapped = dataclasses.replace(sys, diffusion=lambda x, u: sys.diffusion(x, u))
            assert wrapped.constant_gram() is None

    def test_gram_cross_input_noise(self):
        # Two entries of this model's Gram sum two nonzero products, which
        # the channel-by-channel sum may round differently from einsum.
        sys = _small("cross_input_noise")
        X, U = _random_points(sys, (200,), seed=4)
        s = sys.diffusion(X, U)
        assert_allclose(sys.gram(X, U), np.einsum("...ik,...jk->...ij", s, s),
                        rtol=1e-15, atol=0.0)
