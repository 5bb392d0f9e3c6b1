"""The three benchmark workloads: set-up, one round, and correctness gates.

Each workload has a ``setup(size)`` that builds what every round reuses and
a ``round(state, ctx, size, rng, workdir)`` that runs one closed-loop round of
public-API calls, timing each operation and gating its answer.  Every
random input comes from the workload seed; the program sees only the
generated inputs.  Sizes live in ``SIZES``: ``full`` is the benchmark,
``tiny`` is the self-test (see NOTES.md for why each workload exists).
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import time
import traceback

import numpy as np

import scbf
import scbf.cli

from tracing import filter_regime

SLACK = 1e-9
DECAY_TOL = SLACK + 1e-9  # the filter's slack plus evaluation rounding
LAMBDA_1 = math.pi**2 / 8.0


def brownian_survival(t: float, terms: int = 50) -> float:
    """P(Brownian motion from 0 stays in (-1, 1) up to t), sigma = 1."""
    total = 0.0
    for k in range(terms):
        n = 2 * k + 1
        total += (-1) ** k * 4.0 / (n * math.pi) * math.exp(-n * n * math.pi**2 * t / 8.0)
    return total


SIZES = {
    "full": {
        "synth_corner": {"grid": (81, 161), "gamma_ref": 1.30096},
        "synth_dense": {"grid": (41, 81), "wig_grid": (26, 26, 26), "wig_applies": 2,
                        "bicycle_grid": (31, 31, 24, 11), "bicycle_applies": 2},
        "deploy": {"grid": (41, 81), "noise_grid": (21, 41), "wig_grid": (21, 21, 21),
                   "wig_iters": 3, "mc_trials": 2000, "qp_trials": 300, "qp_t_end": 1.0,
                   "brownian_trials": 2500, "stream": 500, "batch_rows": 20000,
                   "batch_reps": 3, "quad_rows": 200, "wig_rows": 20, "cli_trials": 200,
                   "cli_queries": 200},
    },
    "tiny": {
        "synth_corner": {"grid": (21, 41), "gamma_ref": 1.36021},
        "synth_dense": {"grid": (11, 21), "wig_grid": (9, 9, 9), "wig_applies": 1,
                        "bicycle_grid": (9, 9, 8, 5), "bicycle_applies": 1},
        "deploy": {"grid": (11, 21), "noise_grid": (11, 21), "wig_grid": (9, 9, 9),
                   "wig_iters": 2, "mc_trials": 100, "qp_trials": 20, "qp_t_end": 0.5,
                   "brownian_trials": 200, "stream": 40, "batch_rows": 200,
                   "batch_reps": 1, "quad_rows": 10, "wig_rows": 3, "cli_trials": 20,
                   "cli_queries": 10},
    },
}

CFG = scbf.PropagationConfig(horizon=0.5)
CFG_GRID5 = scbf.PropagationConfig(horizon=0.5, candidate_points=5)


# --- measurement context ------------------------------------------------------


class Context:
    """Operation counts, gate results, per-operation samples and the tracer.

    ``stages`` maps each operation name of the current round to the seconds
    of each timed call it made; gate checks run outside the timed calls, so
    round times count only calls into the program.  When ``reference`` is
    set (a function returning the seconds of a fixed kernel), each operation
    is framed by two reference measurements and ``costs`` holds its calls'
    seconds divided by their mean: the same calls in reference units.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}
        self.stages = {}
        self.costs = {}
        self._op_name = None

    def sample(self, metric, value):
        """Record one sample; traced rounds add none, so reported figures
        always come from untraced calls."""
        if self.tracer is None:
            self.samples.setdefault(metric, []).append(value)

    def add_time(self, seconds):
        self.stages.setdefault(self._op_name, []).append(seconds)

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.add_time(dt)
        return out, dt

    @contextlib.contextmanager
    def operation(self, name, attempts=1):
        """One gated operation (or ``attempts`` rows of one); an exception
        fails every row and ends the operation, not the run."""
        if self.tracer is not None:
            self.tracer.new_op()
        op = _Operation(name, attempts)
        self._op_name = name
        ref_before = self.reference() if self.reference else None
        try:
            yield op
        except Exception:
            op.bad_rows = attempts
            op.notes.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        if self.reference:
            ref = 0.5 * (ref_before + self.reference())
            self.costs[name] = [t / ref for t in self.stages.get(name, ())]
        self.attempted += attempts
        bad = min(attempts, op.bad_rows)
        self.failed += bad
        if bad:
            self.failures.append(f"{name}: " + "; ".join(op.notes))


class _Operation:
    def __init__(self, name, attempts):
        self.name = name
        self.attempts = attempts
        self.bad_rows = 0
        self.notes = []

    def check(self, gate, ok, detail=""):
        """A gate on the whole operation: failing it fails every row."""
        if not ok:
            self.bad_rows = self.attempts
            self.notes.append(f"{gate} failed {detail}".strip())

    def check_rows(self, gate, bad_mask, detail=""):
        """A gate per row: each failing row counts once."""
        n = int(np.count_nonzero(bad_mask))
        if n:
            self.bad_rows = max(self.bad_rows, n)
            self.notes.append(f"{gate} failed on {n} rows {detail}".strip())


# --- shared gates ---------------------------------------------------------------


def check_barrier(op, sys_model, res, gamma_ref=None):
    psi = res.psi.values
    op.check("converged", res.converged, f"after {res.iterations} iterations")
    if gamma_ref is not None:
        rel = abs(res.gamma - gamma_ref) / gamma_ref
        op.check("gamma", rel <= 0.005, f"gamma {res.gamma!r} vs {gamma_ref} ({100 * rel:.3f}%)")
    op.check("psi_nonnegative", float(np.min(psi)) >= 0.0)
    op.check("psi_unit_sup", abs(float(np.max(np.abs(psi))) - 1.0) <= 1e-12)
    op.check("psi_zero_killed", not np.any(psi[~sys_model.interior_mask()] != 0.0))
    check_policy(op, sys_model, res.policy)


def check_policy(op, sys_model, policy):
    inside = np.all((policy.inputs >= sys_model.input_lower - 1e-12)
                    & (policy.inputs <= sys_model.input_upper + 1e-12))
    op.check("policy_in_box", inside)


def check_apply(op, sys_model, field, out, policy):
    vals = out.values
    op.check("apply_nonnegative", float(np.min(vals)) >= 0.0)
    op.check("apply_nonexpansive",
             float(np.max(vals)) <= float(np.max(field.values)) * (1.0 + 1e-12))
    op.check("apply_zero_off_interior", not np.any(vals[~sys_model.interior_mask()] != 0.0))
    check_policy(op, sys_model, policy)


def check_filter_rows(op, spec, X, U, statuses, max_decay_rows=None):
    """Box membership of every row; the decay condition on accepted rows."""
    sys_model = spec.sys
    outside = np.any((U < sys_model.input_lower - 1e-12) | (U > sys_model.input_upper + 1e-12), axis=1)
    op.check_rows("filter_in_box", outside)
    accepted = np.nonzero(np.isin(statuses, ("modified", "unmodified")))[0]
    if max_decay_rows is not None:
        accepted = accepted[:max_decay_rows]
    bad = [i for i in accepted
           if scbf.generator_value(spec, X[i], U[i][None, :])[0] < -DECAY_TOL]
    op.check_rows("decay_condition", np.ones(len(bad), dtype=bool))


def perturbed_start(sys_model, rng, amplitude=0.02):
    """The default bump start, scaled node by node by 1 + amplitude * U(0,1).

    Small enough that the iteration counts stay those of the bump start.
    """
    base = scbf.default_initial_field(sys_model)
    return scbf.ScalarField(sys_model.grid,
                            base.values * (1.0 + amplitude * rng.random(base.values.size)))


def interior_states(sys_model, rng, n, shrink=0.95):
    lo = np.asarray(sys_model.grid.lower)
    hi = np.asarray(sys_model.grid.upper)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * shrink
    return mid + half * rng.uniform(-1.0, 1.0, (n, sys_model.n_x))


def box_inputs(sys_model, rng, n, widen=1.5):
    lo, hi = sys_model.input_lower, sys_model.input_upper
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * widen
    return mid + half * rng.uniform(-1.0, 1.0, (n, sys_model.n_u))


# --- synth_corner -----------------------------------------------------------------


def setup_synth_corner(size):
    di = scbf.make_benchmark("di_omni", grid_counts=size["grid"])
    brown = scbf.make_benchmark("brownian_1d")
    di.node_classes()
    brown.node_classes()
    return {"di": di, "brown": brown, "models": (di, brown)}


def round_synth_corner(state, ctx, size, rng, workdir):
    di, brown = state["di"], state["brown"]
    init = perturbed_start(di, rng)
    res = None
    with ctx.operation("synthesize di_omni") as op:
        res, dt = ctx.timed(scbf.power_policy_iteration, di, CFG, init_psi=init, tol=1e-4)
        ctx.sample("synth_s", dt)
        check_barrier(op, di, res, size["gamma_ref"])
    with ctx.operation("verify di_omni") as op:
        def verify():
            residual = scbf.eigen_residual(res, di, CFG)
            doubled = scbf.propagate(res.psi, di, res.policy, scbf.PropagationConfig(horizon=1.0))
            return residual, -math.log(scbf.sup_norm(doubled)) / 1.0
        (residual, gamma2), dt = ctx.timed(verify)
        ctx.sample("verify_s", dt)
        op.check("eigen_residual", residual <= 5e-3, f"residual {residual:.3e}")
        gap = abs(gamma2 - res.gamma) / res.gamma
        op.check("horizon_doubling", gap <= 0.02, f"{100 * gap:.3f}%")
    with ctx.operation("brownian oracle") as op:
        init_b = perturbed_start(brown, rng)
        zero = scbf.PolicyTable.zero(brown)
        res_b, _ = ctx.timed(scbf.power_iteration, brown, zero, CFG, init_b, tol=1e-5)
        err = abs(res_b.gamma - LAMBDA_1) / LAMBDA_1
        ctx.sample("gamma_rel_err", err)
        x = brown.grid.nodes()[:, 0]
        mode = np.sin(np.pi * (x + 1.0) / 2.0)
        op.check("oracle_converged", res_b.converged)
        op.check("oracle_gamma", err < 0.02, f"rel err {err:.3e}")
        op.check("oracle_mode", float(np.max(np.abs(res_b.psi.values - mode))) < 0.02)


# --- synth_dense ------------------------------------------------------------------


def setup_synth_dense(size):
    noise = scbf.make_benchmark("di_input_noise", grid_counts=size["grid"])
    wig = scbf.make_benchmark("wig_aircraft", grid_counts=size["wig_grid"])
    bike = scbf.make_benchmark("bicycle", grid_counts=size["bicycle_grid"])
    for model in (noise, wig, bike):
        model.node_classes()
    return {"noise": noise, "wig": wig, "bike": bike, "models": (noise, wig, bike)}


def round_synth_dense(state, ctx, size, rng, workdir):
    noise = state["noise"]
    with ctx.operation("synthesize di_input_noise") as op:
        res, dt = ctx.timed(scbf.power_policy_iteration, noise, CFG,
                            init_psi=perturbed_start(noise, rng), tol=1e-4)
        ctx.sample("synth_s", dt)
        check_barrier(op, noise, res)
    for key, metric, cfg, count in (("wig", "apply_wig_s", CFG_GRID5, size["wig_applies"]),
                                    ("bike", "apply_bicycle_s", CFG, size["bicycle_applies"])):
        model = state[key]
        for _ in range(count):
            with ctx.operation(f"apply {model.name}") as op:
                field = perturbed_start(model, rng)
                (out, policy), dt = ctx.timed(scbf.propagate_optimal, field, model, cfg)
                ctx.sample(metric, dt)
                check_apply(op, model, field, out, policy)


# --- deploy -------------------------------------------------------------------------


def setup_deploy(size):
    di = scbf.make_benchmark("di_omni", grid_counts=size["grid"])
    noise = scbf.make_benchmark("di_input_noise", grid_counts=size["noise_grid"])
    wig = scbf.make_benchmark("wig_aircraft", grid_counts=size["wig_grid"])
    brown = scbf.make_benchmark("brownian_1d")
    res_di = scbf.power_policy_iteration(di, CFG, tol=1e-4)
    res_noise = scbf.power_policy_iteration(noise, CFG, tol=1e-4)
    # The filter's cost barely depends on how converged the barrier is.
    res_wig = scbf.power_policy_iteration(wig, CFG_GRID5, max_iter=size["wig_iters"])
    return {
        "di": di, "res_di": res_di, "brown": brown,
        "specs": {name: scbf.FilterSpec(m, r, gamma=1.25 * r.gamma)
                  for name, m, r in (("di", di, res_di), ("noise", noise, res_noise),
                                     ("wig", wig, res_wig))},
        "models": (di, noise, wig, brown),
    }


def _bound_holds(curve):
    half = 0.5 * (curve.wilson_high - curve.wilson_low)
    return bool(np.all(curve.survival_fraction + half >= curve.theoretical_bound - 1e-12))


def _alive_trial_steps(curve):
    return int(curve.alive_counts[:-1].sum())


def _pooled_survivors(samples):
    """Survivors and trials of every round's ``brownian_1d`` estimate, summed."""
    survivors, trials = (sum(col) for col in zip(*samples))
    return survivors, trials


def mc_bias(samples):
    survivors, trials = _pooled_survivors(samples)
    return abs(survivors / trials - brownian_survival(1.0)), trials


def mc_bias_halfwidth(samples):
    """Wilson 95% half-width of the pooled survival fraction."""
    survivors, trials = _pooled_survivors(samples)
    low, high = scbf.wilson_interval(survivors, trials)
    return 0.5 * float(high - low), trials


def round_deploy(state, ctx, size, rng, workdir):
    di, res_di, specs = state["di"], state["res_di"], state["specs"]
    x0 = di.grid.nodes()[int(np.argmax(res_di.psi.values))]
    mc_seed = int(rng.integers(2**31))

    with ctx.operation("monte carlo fixed policy") as op:
        sim = scbf.SimConfig(t_end=3.0, trials=size["mc_trials"], seed=mc_seed,
                             controller=scbf.FixedPolicyController(res_di.policy), dt=1e-3)
        curve, dt = ctx.timed(scbf.estimate_safety_curve, di, sim, x0, bound=res_di, threads=1)
        ctx.sample("mc_trial_steps_per_s", _alive_trial_steps(curve) / dt)
        op.check("theorem1_bound", _bound_holds(curve))

    with ctx.operation("monte carlo scbf_qp") as op:
        controller = scbf.ScbfQpController(specs["di"], scbf.constant_reference([0.5]))
        sim = scbf.SimConfig(t_end=size["qp_t_end"], trials=size["qp_trials"], seed=mc_seed + 1,
                             controller=controller, dt=1e-3)
        curve, dt = ctx.timed(scbf.estimate_safety_curve, di, sim, x0, bound=specs["di"], threads=1)
        ctx.sample("mc_qp_trial_steps_per_s", _alive_trial_steps(curve) / dt)
        op.check("theorem1_bound", _bound_holds(curve))

    with ctx.operation("monte carlo brownian_1d"):
        brown = state["brown"]
        sim = scbf.SimConfig(t_end=1.0, trials=size["brownian_trials"], seed=mc_seed + 2,
                             controller=scbf.FixedPolicyController(scbf.PolicyTable.zero(brown)),
                             dt=1e-3)
        curve, _ = ctx.timed(scbf.estimate_safety_curve, brown, sim, np.zeros(1), threads=1)
        ctx.sample("brownian_survivors", (int(curve.alive_counts[-1]), size["brownian_trials"]))

    spec = specs["di"]
    n = size["stream"]
    with ctx.operation("filter_input stream", attempts=n) as op:
        X = interior_states(di, rng, n)
        R = box_inputs(di, rng, n)
        U = np.empty_like(R)
        statuses = []
        lat = np.empty(n)
        for i in range(n):
            t0 = time.perf_counter()
            u, status = scbf.filter_input(spec, X[i], R[i])
            lat[i] = time.perf_counter() - t0
            U[i] = u
            statuses.append(status.value)
        ctx.add_time(float(lat.sum()))
        ctx.sample("filter_latency_s", lat)
        check_filter_rows(op, spec, X, U, np.array(statuses))

    codes = scbf.safety_filter.STATUS_BY_CODE
    n = size["batch_rows"]
    with ctx.operation("filter_input_batch affine", attempts=n) as op:
        X = interior_states(di, rng, n)
        R = box_inputs(di, rng, n)
        times = []
        for _ in range(size["batch_reps"]):
            (U, c), dt = ctx.timed(scbf.filter_input_batch, spec, X, R)
            times.append(dt)
        ctx.sample("filter_batch_qps", n / float(np.median(times)))
        statuses = np.array([codes[k].value for k in c])
        check_filter_rows(op, spec, X, U, statuses, max_decay_rows=200)
        _check_agreement(op, spec, X[:20], R[:20], U[:20], statuses[:20])

    rows = {"noise": size["quad_rows"], "wig": size["wig_rows"]}
    with ctx.operation("filter_input_batch nonlinear", attempts=sum(rows.values())) as op:
        done, spent = 0, 0.0
        for key, n in rows.items():
            s = specs[key]
            X = interior_states(s.sys, rng, n, shrink=0.9)
            R = box_inputs(s.sys, rng, n)
            (U, c), dt = ctx.timed(scbf.filter_input_batch, s, X, R)
            done, spent = done + n, spent + dt
            statuses = np.array([codes[k].value for k in c])
            check_filter_rows(op, s, X, U, statuses)
            _check_agreement(op, s, X[:3], R[:3], U[:3], statuses[:3])
        ctx.sample("filter_batch_qps_nonlinear", done / spent)

    _cli_chain(ctx, size, rng, workdir, res_di)


def _check_agreement(op, spec, X, R, U, statuses):
    """Batch and scalar answers agree row by row."""
    bad = []
    for i in range(len(X)):
        u, status = scbf.filter_input(spec, X[i], R[i])
        bad.append(status.value != statuses[i] or not np.allclose(u, U[i], rtol=1e-9, atol=1e-9))
    op.check_rows(f"batch_scalar_agree[{filter_regime(spec.sys)}]", np.array(bad))


def _cli_chain(ctx, size, rng, workdir, res_di):
    """synthesize -> verify -> simulate -> filter -> export-plot, in-process."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    grid = ",".join(str(c) for c in size["grid"])
    art, sim_out = workdir / "di", workdir / "sim"
    x0 = res_di.psi.spec.nodes()[int(np.argmax(res_di.psi.values))]
    (workdir / "sim.cfg").write_text(
        "simulation.x0 = " + ",".join(repr(float(v)) for v in x0) + "\n"
        f"simulation.trials = {size['cli_trials']}\n"
        f"simulation.seed = {int(rng.integers(2**31))}\n"
        "simulation.t_end = 1.0\n", encoding="ascii")
    grid_spec = res_di.psi.spec
    n = size["cli_queries"]
    lo, hi = np.asarray(grid_spec.lower), np.asarray(grid_spec.upper)
    X = 0.5 * (lo + hi) + 0.475 * (hi - lo) * rng.uniform(-1.0, 1.0, (n, 2))
    Uq = rng.uniform(-1.5, 1.5, n)
    (workdir / "queries.csv").write_text(
        "t,x1,x2,u1\n" + "".join(f"0.0,{x[0]!r},{x[1]!r},{u!r}\n" for x, u in zip(X.tolist(), Uq.tolist())),
        encoding="ascii")
    common = ["--system", "di_omni", "--grid", grid]
    commands = [
        ("synthesize", common + ["--out", str(art)]),
        ("verify", common + ["--artifacts", str(art)]),
        ("simulate", common + ["--artifacts", str(art), "--config", str(workdir / "sim.cfg"),
                               "--out", str(sim_out)]),
        ("filter", common + ["--artifacts", str(art), "--queries", str(workdir / "queries.csv"),
                             "--output", str(workdir / "answers.csv")]),
        ("export-plot", ["--artifacts", str(sim_out), "--out", str(workdir / "plots")]),
    ]
    total = 0.0
    for name, args in commands:
        with ctx.operation(f"cli {name}") as op:
            buf = io.StringIO()
            span = ctx.tracer.span(f"cli.{name}") if ctx.tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(buf), span:
                code, dt = ctx.timed(scbf.cli.main, [name] + args)
            total += dt
            if code != 0 and ctx.tracer is not None:
                ctx.tracer.counts["cli.exit_nonzero"] += 1
            op.check("exit_code", code == 0, f"exit {code}: {buf.getvalue().strip()[-200:]}")
            if name == "verify":
                m = re.search(r"(\d+)/(\d+) checks passed", buf.getvalue())
                op.check("verify_all_passed", bool(m) and m.group(1) == m.group(2))
            if name == "filter":
                answers = (workdir / "answers.csv").read_text().splitlines()[1:]
                op.check("filter_answers", len(answers) == n, f"{len(answers)} rows")
    ctx.sample("cli_s", total)


WORKLOADS = {
    "synth_corner": (setup_synth_corner, round_synth_corner),
    "synth_dense": (setup_synth_dense, round_synth_dense),
    "deploy": (setup_deploy, round_deploy),
}

# The figures each workload reports beside the result line's metrics:
# (name, unit, how the samples of one run reduce to one value: a name that
# ``run.reduce_samples`` knows, or a function of the list of samples that
# returns the value and the count it rests on).
REPORTED = {
    "synth_corner": [("synth_s", "s", "median"), ("verify_s", "s", "median"),
                     ("gamma_rel_err", "ratio", "median")],
    "synth_dense": [("synth_s", "s", "median"), ("apply_wig_s", "s", "median"),
                    ("apply_bicycle_s", "s", "median")],
    "deploy": [("mc_trial_steps_per_s", "1/s", "median"),
               ("mc_qp_trial_steps_per_s", "1/s", "median"),
               ("mc_bias", "ratio", mc_bias), ("mc_bias_halfwidth", "ratio", mc_bias_halfwidth),
               ("filter_p50_us", "us", "p50"), ("filter_p99_us", "us", "p99"),
               ("filter_batch_qps", "1/s", "median"),
               ("filter_batch_qps_nonlinear", "1/s", "median"), ("cli_s", "s", "median")],
}

# Reported figures computed from samples recorded under another name.
SAMPLED_AS = {"filter_p50_us": "filter_latency_s", "filter_p99_us": "filter_latency_s",
              "mc_bias": "brownian_survivors", "mc_bias_halfwidth": "brownian_survivors"}
