import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scbf.errors import OutOfDomain, StructureError
from scbf.grid import ScalarField, gradient_at, hessian_at, interpolate
from scbf import safety_filter
from scbf.safety_filter import (
    CODE_BY_STATUS,
    SLACK,
    FilterSpec,
    FilterStatus,
    filter_input,
    filter_input_batch,
    generator_coefficients,
    generator_value,
)
from scbf.semigroup import PolicyTable, PropagationConfig
from scbf.spectral import EigenResult, power_policy_iteration
from scbf.systems import make_benchmark


@pytest.fixture(scope="module")
def di():
    return make_benchmark("di_omni", grid_counts=(41, 81))


@pytest.fixture(scope="module")
def di_result(di):
    return power_policy_iteration(di, PropagationConfig(horizon=0.5), tol=1e-6)


@pytest.fixture(scope="module")
def di_filter(di, di_result):
    # A rate above the synthesized one gives the constraint interior slack,
    # which is the intended deployment regime.
    return FilterSpec(di, di_result, gamma=1.25 * di_result.gamma)


def random_interior_states(sys, count, seed, margin=0.15):
    rng = np.random.default_rng(seed)
    lo = np.asarray(sys.grid.lower)
    hi = np.asarray(sys.grid.upper)
    span = hi - lo
    out = []
    while len(out) < count:
        x = lo + span * (margin + (1 - 2 * margin) * rng.random(sys.n_x))
        if bool(sys.contains(x)[0]):
            out.append(x)
    return np.array(out)


class TestGeneratorCoefficients:
    def test_di_omni_symbolic_decomposition(self, di, di_filter):
        # [DERIVED] f = (x2, u), sigma = I:
        # a0 = p1 x2 + (H11 + H22)/2 + gamma psi,  a_lin = (p2,)
        x = np.array([0.2, 0.6])
        a0, a_lin, a_quad = generator_coefficients(di_filter, x)
        p = gradient_at(di_filter.psi, x)
        H = hessian_at(di_filter.psi, x)
        expected_a0 = p[0] * x[1] + 0.5 * (H[0, 0] + H[1, 1]) \
            + di_filter.gamma * interpolate(di_filter.psi, x)
        assert a0 == pytest.approx(expected_a0, rel=1e-10)
        assert a_lin[0] == pytest.approx(p[1], rel=1e-10)
        assert a_quad is None

    def test_zero_field_degenerate(self, di):
        zero_res = EigenResult(gamma=0.0,
                               psi=ScalarField(di.grid, np.zeros(di.grid.size)),
                               policy=PolicyTable.zero(di),
                               history=[], converged=True, horizon=0.5)
        spec = FilterSpec(di, zero_res, gamma=0.0)
        a0, a_lin, _ = generator_coefficients(spec, np.array([0.1, 0.1]))
        assert a0 == pytest.approx(0.0, abs=1e-14)
        assert_allclose(a_lin, [0.0], atol=1e-14)
        u, status = filter_input(spec, np.array([0.1, 0.1]), np.array([0.4]))
        assert status is FilterStatus.UNMODIFIED
        assert u[0] == pytest.approx(0.4)

    def test_input_noise_quadratic_term(self):
        # [DERIVED] sigma = (0, sqrt(1+u^2)): the trace term is
        # (1 + u^2) psi_vv / 2, so a_quad = psi_vv / 2.
        sys = make_benchmark("di_input_noise", grid_counts=(41, 81))
        res = power_policy_iteration(sys, PropagationConfig(horizon=0.5), tol=1e-5)
        spec = FilterSpec(sys, res, gamma=1.2 * res.gamma)
        x = np.array([0.1, -0.4])
        _, _, a_quad = generator_coefficients(spec, x)
        H = hessian_at(spec.psi, x)
        assert a_quad[0, 0] == pytest.approx(0.5 * H[1, 1], rel=1e-8, abs=1e-12)

    def test_wig_not_affine(self):
        sys = make_benchmark("wig_aircraft", grid_counts=(7, 7, 7))
        res = EigenResult(gamma=0.0,
                          psi=ScalarField(sys.grid, np.zeros(sys.grid.size)),
                          policy=PolicyTable.zero(sys),
                          history=[], converged=True, horizon=0.5)
        spec = FilterSpec(sys, res, gamma=0.01)
        with pytest.raises(StructureError):
            generator_coefficients(spec, np.array([5.0, 45.0, 0.0]))

    def test_out_of_domain(self, di_filter):
        with pytest.raises(OutOfDomain):
            generator_coefficients(di_filter, np.array([3.0, 0.0]))


class TestFilterInput:
    def test_slack_means_unmodified(self, di_filter):
        # at the barrier peak the generator condition holds with slack
        peak = di_filter.psi.spec.nodes()[int(np.argmax(di_filter.psi.values))]
        a0, a_lin, _ = generator_coefficients(di_filter, peak)
        u_ref = np.array([0.3])
        assert a0 + a_lin @ u_ref > 0
        u, status = filter_input(di_filter, peak, u_ref)
        assert status is FilterStatus.UNMODIFIED
        assert_allclose(u, u_ref)

    def test_one_d_kkt_projection(self, di, di_filter):
        # [DERIVED] affine constraint a0 + a1 u >= 0 with a1 > 0 and an
        # infeasible reference projects onto the threshold -a0/a1.
        for x in random_interior_states(di, 400, seed=5):
            a0, a_lin, _ = generator_coefficients(di_filter, x)
            a1 = a_lin[0]
            if a1 <= 1e-6:
                continue
            thr = -a0 / a1
            if not -1.0 < thr < 1.0:
                continue
            u_ref = np.array([thr - 0.5])
            u, status = filter_input(di_filter, x, u_ref)
            if status is FilterStatus.MODIFIED:
                assert u[0] == pytest.approx(thr, abs=1e-9)

    def test_idempotence(self, di, di_filter):
        # Re-filtering an answer returns it unchanged: feasible answers pass
        # the slack check untouched, infeasible states reproduce the same
        # deterministic fallback.
        rng = np.random.default_rng(2)
        states = random_interior_states(di, 200, seed=3)
        refs = rng.uniform(-2.0, 2.0, size=(200, 1))
        for x, r in zip(states, refs):
            u, status = filter_input(di_filter, x, r)
            u2, status2 = filter_input(di_filter, x, u)
            assert_allclose(u2, u, atol=1e-12)
            if status in (FilterStatus.UNMODIFIED, FilterStatus.MODIFIED,
                          FilterStatus.BACKUP):
                assert status2 is FilterStatus.UNMODIFIED

    def test_minimal_deviation_vs_grid_search(self, di, di_filter):
        # [DERIVED] exhaustive fine-grid reference: the active-set QP answer
        # must match within one search cell in weighted distance.
        grid_u = np.linspace(-1.0, 1.0, 2001)[:, None]
        cell = 2.0 / 2000
        rng = np.random.default_rng(7)
        hits = 0
        for x in random_interior_states(di, 300, seed=11):
            u_ref = rng.uniform(-1.5, 1.5, size=1)
            u, status = filter_input(di_filter, x, u_ref)
            if status is not FilterStatus.MODIFIED:
                continue
            a0, a_lin, _ = generator_coefficients(di_filter, x)
            vals = a0 + grid_u @ a_lin
            feas = grid_u[vals >= 0.0]
            if len(feas) == 0:
                continue
            best = feas[np.argmin(np.abs(feas[:, 0] - u_ref[0]))]
            assert abs(abs(u[0] - u_ref[0]) - abs(best[0] - u_ref[0])) <= cell
            hits += 1
        assert hits > 20  # the scenario actually exercised the QP

    def test_backup_feasible_at_nodes(self, di, di_result):
        # [consequence of the eigen-relation] at gamma = gamma_pi the backup
        # policy satisfies the condition up to the upwind/central gap
        # sum_i (h_i/2)|f_i| |H_ii| plus iteration residual slop.
        spec = FilterSpec(di, di_result)  # gamma = synthesized rate
        h = di.grid.spacing
        nodes = di.grid.nodes()
        interior = np.nonzero(di.interior_mask())[0]
        rng = np.random.default_rng(13)
        sample = rng.choice(interior, size=300, replace=False)
        X = nodes[sample]
        P = di_result.policy.inputs[sample]
        F = di.drift(X, P)
        Hd = hessian_at(spec.psi, X)
        slack = np.sum(0.5 * h * np.abs(F) * np.abs(
            np.stack([Hd[:, i, i] for i in range(di.n_x)], axis=1)), axis=1)
        for k, node in enumerate(sample):
            a0, a_lin, _ = generator_coefficients(spec, X[k])
            g = a0 + a_lin @ P[k]
            assert g >= -(slack[k] + 50 * 1e-6), (X[k], g, slack[k])

    def test_monotone_conservatism(self, di, di_result):
        lo = FilterSpec(di, di_result, gamma=di_result.gamma)
        hi = FilterSpec(di, di_result, gamma=2.0 * di_result.gamma)
        for x in random_interior_states(di, 50, seed=17):
            a0_lo, a_lin_lo, _ = generator_coefficients(lo, x)
            a0_hi, a_lin_hi, _ = generator_coefficients(hi, x)
            assert a0_hi >= a0_lo - 1e-14          # constraint only relaxes
            assert_allclose(a_lin_lo, a_lin_hi)    # input term unchanged

    def test_construction_refuses_lower_gamma(self, di, di_result):
        with pytest.raises(ValueError):
            FilterSpec(di, di_result, gamma=0.5 * di_result.gamma)

    def test_weight_validation(self, di, di_result):
        with pytest.raises(ValueError):
            FilterSpec(di, di_result, weight=[0.0])

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, di, di_result, gamma):
        # nan passed the lower-rate test and inf beat it, and either turned
        # the filter off: every answer came back unmodified.
        with pytest.raises(ValueError, match="decay rate must be finite"):
            FilterSpec(di, di_result, gamma=gamma)

    def test_result_on_another_grid_rejected(self, di):
        coarse = make_benchmark("di_omni", grid_counts=(21, 41))
        res = EigenResult(gamma=0.0, psi=ScalarField(coarse.grid, np.zeros(coarse.grid.size)),
                          policy=PolicyTable.zero(coarse), history=[], converged=True,
                          horizon=0.5)
        with pytest.raises(ValueError, match="^barrier grid does not match the system grid$"):
            FilterSpec(di, res)

    def test_state_outside_safe_set_rejected(self, di_filter):
        with pytest.raises(OutOfDomain, match="^state is outside the safe set; treat as killed$"):
            filter_input(di_filter, np.array([3.0, 0.0]), np.array([0.0]))

    @pytest.mark.parametrize("u_ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_rejected(self, di_filter, u_ref):
        with pytest.raises(ValueError, match="^reference input must be finite$"):
            filter_input(di_filter, np.array([0.0, 0.0]), np.array([u_ref]))

    @pytest.mark.parametrize("u_ref", [[0.0, 0.0], []], ids=["two", "none"])
    def test_reference_of_wrong_length_rejected(self, di_filter, u_ref):
        # di_omni has one input; a two-entry reference used to come back as
        # a two-entry 'unmodified' answer.
        with pytest.raises(ValueError,
                           match=r"^reference input has \d entries, expected n_u = 1$"):
            filter_input(di_filter, np.zeros(2), np.array(u_ref))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, di, di_result, weight):
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            FilterSpec(di, di_result, weight=[weight])


@pytest.fixture(scope="module")
def quad_filter():
    sys = make_benchmark("di_input_noise", grid_counts=(41, 81))
    res = power_policy_iteration(sys, PropagationConfig(horizon=0.5), tol=1e-5)
    return sys, FilterSpec(sys, res, gamma=1.3 * res.gamma)


class TestQuadraticConstraint:
    def test_feasible_output(self, quad_filter):
        sys, spec = quad_filter
        rng = np.random.default_rng(23)
        checked = 0
        for x in random_interior_states(sys, 200, seed=29):
            u_ref = rng.uniform(-2.0, 2.0, size=1)
            u, status = filter_input(spec, x, u_ref)
            a0, a_lin, a_quad = generator_coefficients(spec, x)
            g = a0 + a_lin @ u + u @ a_quad @ u
            if status in (FilterStatus.UNMODIFIED, FilterStatus.MODIFIED):
                assert g >= -SLACK - 1e-12
                checked += 1
        assert checked > 100


@pytest.fixture(scope="module")
def wig_filter():
    sys = make_benchmark("wig_aircraft", grid_counts=(15, 15, 15))
    cfg = PropagationConfig(horizon=0.5, candidate_points=5)
    res = power_policy_iteration(sys, cfg, tol=2e-3, max_iter=150)
    return sys, FilterSpec(sys, res, gamma=0.01)


class TestWigFilter:
    def test_candidate_grid_feasibility(self, wig_filter):
        # [PAPER regime] non-affine inputs: answers are feasible with the
        # 1e-9 slack, locally optimal only.
        sys, spec = wig_filter
        u_ref = np.array([0.03, 300.0])
        modified = 0
        for x in random_interior_states(sys, 60, seed=31):
            u, status = filter_input(spec, x, u_ref)
            g = generator_value(spec, x, u[None, :])[0]
            if status in (FilterStatus.UNMODIFIED, FilterStatus.MODIFIED):
                assert g >= -SLACK - 1e-12
            if status is FilterStatus.MODIFIED:
                modified += 1
            assert np.all(u >= sys.input_lower - 1e-12)
            assert np.all(u <= sys.input_upper + 1e-12)

    def test_refinement_improves_on_grid(self, wig_filter):
        sys, spec = wig_filter
        u_ref = np.array([0.2, 1000.0])
        for x in random_interior_states(sys, 40, seed=37):
            u, status = filter_input(spec, x, u_ref)
            if status is not FilterStatus.MODIFIED:
                continue
            coarse = sys.input_grid(15)
            g = generator_value(spec, x, coarse)
            feas = coarse[g >= -SLACK]
            if len(feas):
                best_coarse = np.min(spec.cost(feas, u_ref))
                assert spec.cost(u, u_ref) <= best_coarse + 1e-9


def _regime_case(request, regime):
    if regime == "affine":
        return request.getfixturevalue("di"), request.getfixturevalue("di_filter")
    return request.getfixturevalue({"quadratic": "quad_filter",
                                    "nonaffine": "wig_filter"}[regime])


class TestBatchFilter:
    def test_matches_scalar_path(self, request):
        # filter_input is the one-row case of the batch path: the same bits
        # and status in every regime, for references inside and outside the
        # box.
        for regime, count in (("affine", 150), ("quadratic", 150), ("nonaffine", 40)):
            sys, spec = _regime_case(request, regime)
            rng = np.random.default_rng(41)
            X = random_interior_states(sys, count, seed=43)
            span = sys.input_upper - sys.input_lower
            U_ref = sys.input_lower - 0.5 * span + 2.0 * span * rng.random((count, sys.n_u))
            inside = np.all((U_ref >= sys.input_lower) & (U_ref <= sys.input_upper), axis=1)
            assert 0 < inside.sum() < count
            U, codes = filter_input_batch(spec, X, U_ref)
            assert len(set(codes.tolist())) >= 2, regime
            for i in range(count):
                u, status = filter_input(spec, X[i], U_ref[i])
                assert u.tobytes() == U[i].tobytes(), (regime, i, u, U[i])
                assert codes[i] == CODE_BY_STATUS[status], (regime, i)

    @pytest.mark.parametrize("regime", ["quadratic", "nonaffine"])
    def test_no_per_row_fallback(self, request, monkeypatch, regime):
        sys, spec = _regime_case(request, regime)
        X = random_interior_states(sys, 20, seed=47)
        U_ref = np.tile(sys.input_upper, (20, 1))
        expected = filter_input_batch(spec, X, U_ref)

        def refuse(*args):
            raise AssertionError("filter_input_batch called filter_input")

        monkeypatch.setattr(safety_filter, "filter_input", refuse)
        U, codes = filter_input_batch(spec, X, U_ref)
        assert np.array_equal(U, expected[0]) and np.array_equal(codes, expected[1])

    @pytest.mark.parametrize("shape", [(1, 1), (5, 2), (4, 1), (5,)])
    def test_references_of_wrong_shape_rejected(self, di_filter, shape):
        # One reference row used to be broadcast to all five states.
        with pytest.raises(ValueError, match=r"^references of shape .*, expected \(5, 1\)$"):
            filter_input_batch(di_filter, np.zeros((5, 2)), np.full(shape, 5.0))

    @pytest.mark.parametrize("u_ref", [math.nan, math.inf, -math.inf])
    def test_non_finite_references_rejected(self, di_filter, u_ref):
        # A NaN reference used to come back as a NaN 'unmodified' answer.
        U_ref = np.zeros((5, 1))
        U_ref[3] = u_ref
        with pytest.raises(ValueError, match="^reference input must be finite$"):
            filter_input_batch(di_filter, np.zeros((5, 2)), U_ref)

    def test_empty_batch(self, di, di_filter):
        U, codes = filter_input_batch(di_filter, np.zeros((0, 2)), np.zeros((0, 1)))
        assert U.shape == (0, 1) and codes.shape == (0,)
