"""Command-line orchestration: synthesize / simulate / filter / verify / export-plot.

Jobs are described by a flat ``key = value`` config file (dotted keys, ``#``
comments); command-line flags override config keys.  Every output directory
receives a metadata document that echoes the effective configuration, so a
job can be re-run bit-exactly from its own metadata file (the ``result.*``,
``history.*`` and ``system.flags.*`` namespaces are ignored on input).

Exit codes: 0 success, 1 config/file errors, 2 synthesis did not converge
(files are still written), 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, OutOfDomain, ScbfError
from .grid import ScalarField, _read_text, read_field, sup_norm, write_field
from .montecarlo import (
    FixedPolicyController,
    OpenLoopController,
    ScbfQpController,
    SimConfig,
    bicycle_circle_reference,
    constant_reference,
    estimate_safety_curve,
    write_safety_curve_csv,
    write_trajectory_csv,
)
from .safety_filter import STATUS_BY_CODE, FilterSpec, filter_input_batch
from .semigroup import PolicyTable, PropagationConfig, propagate
from .spectral import (
    EigenResult,
    IterationRecord,
    eigen_residual,
    initial_field,
    power_iteration,
    power_policy_iteration,
    warm_start_field,
)
from .systems import BENCHMARKS, make_benchmark

# --- config schema ------------------------------------------------------------


# What a caster reads, for messages (else the caster's name, as for int).
_EXPECTS = {}


def _caster(parse, ok, expects: str):
    """A caster that reads ``parse(text)`` and accepts the value only where
    ``ok(value)``; messages call what it reads ``expects``."""
    def caster(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value

    _EXPECTS[caster] = expects
    return caster


def _integer(low: int, high: float, expects: str):
    """A caster that reads an integer in ``[low, high)``."""
    return _caster(int, lambda value: low <= value < high, expects)


def _one_of(*choices: str):
    """A caster that reads exactly one of ``choices``."""
    return _caster(str, choices.__contains__, "one of " + ", ".join(choices))


def _parts(parse):
    """A parser of comma-separated parts, each read by ``parse``; blank
    parts are dropped."""
    return lambda text: [parse(part) for part in text.split(",") if part.strip()]


_ints = _caster(_parts(int), lambda values: True, "comma-separated integers")
_floats = _caster(_parts(float), lambda values: all(map(math.isfinite, values)),
                  "comma-separated finite numbers")
_finite = _caster(float, math.isfinite, "a finite number")
_tolerance = _caster(float, lambda value: 0.0 <= value < math.inf, "a finite nonnegative number")
_finite_positive = _caster(float, lambda value: 0.0 < value < math.inf, "a finite positive number")
_fraction = _caster(float, lambda value: 0.0 < value <= 1.0, "a number in (0, 1]")
_positive = _integer(1, math.inf, "a positive integer")


# Every config key: the caster that reads its value, its default (None
# for none: a key without one is echoed only when set) and the flag that
# sets it (None for none).  Flags are read in table order, so of two bad
# flags the first here is reported.
_KEYS = {
    "system.id": (str, None, "system"),
    "grid.counts": (_ints, None, "grid"),
    "propagation.horizon": (_finite_positive, 0.5, "horizon"),
    "propagation.cfl_safety": (_fraction, 0.8, None),
    "propagation.candidate_points": (_integer(2, math.inf, "an integer of at least 2"), 9, None),
    "iteration.tol": (_finite_positive, 1e-4, "tol"),
    "iteration.max_iter": (_positive, 500, None),
    "iteration.init": (_one_of("bump", "gauss", "plateau"), "bump", None),
    "iteration.algorithm": (_one_of("power_policy", "power_policy_two_step", "power_fixed"),
                            "power_policy", None),
    "iteration.warm_start": (str, None, None),
    # 0 or 1 only, so that a larger value stays free to mean a level count.
    "iteration.coarse_ladder": (_integer(0, 2, "0 or 1"), 0, None),
    "simulation.dt": (_finite_positive, 1e-3, None),
    "simulation.t_end": (_finite_positive, 3.0, None),
    "simulation.seed": (_integer(0, 2**64, "an integer in [0, 2**64)"), 0, "seed"),
    "simulation.trials": (_positive, 1000, "trials"),
    "simulation.x0": (_floats, None, None),
    "simulation.controller": (_one_of("fixed_policy", "scbf_qp", "open_loop"),
                              "fixed_policy", None),
    "simulation.reference": (_one_of("zero", "constant", "circle"), "zero", None),
    "simulation.reference_u": (_floats, None, None),
    "simulation.u_const": (_floats, None, None),
    "verify.residual_tol": (_tolerance, 5e-3, None),
    "threads": (_positive, 1, "threads"),
    "filter.gamma": (_finite, None, "gamma"),
    "filter.weight": (_floats, None, None),
}

_IGNORED_PREFIXES = ("result.", "history.", "system.flags.")
_OVERRIDES = "system.overrides."

# The metadata keys load_result reads as numbers; every other key is text.
_METADATA_SCHEMA = {"result.gamma": _finite, "result.horizon": _finite,
                    "result.converged": int}


def _cast(key: str, text: str, caster, at: str):
    """``caster(text)``; a value it cannot read raises ConfigError prefixed
    with ``at``, the value's origin (``file:line: ``, ``SCBF_THREADS: ``, or
    nothing for a flag)."""
    try:
        return caster(text)
    except ValueError:
        raise ConfigError(f"{at}key {key!r}: expected "
                          f"{_EXPECTS.get(caster, caster.__name__)}, got {text!r}") from None


def _read_pairs(text: str, origin: str, caster_of) -> dict:
    """``key -> (value, text, 'origin:line: ')`` of ``key = value`` lines
    (``#`` comments), each value cast by ``caster_of(key, at)``; a None
    caster drops the key.  Each line is checked in full before the next, and
    a line without ``=``, a repeated key or a value its caster cannot read
    raises ConfigError naming ``origin:line``."""
    pairs, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = f"{origin}:{lineno}: "
        if "=" not in line:
            raise ConfigError(f"{at}expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{at}key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        caster = caster_of(key, at)
        if caster is not None:
            pairs[key] = (_cast(key, value, caster, at), value, at)
    return pairs


def _config_caster(key: str, at: str):
    """A config key's caster: None for the ignored namespaces; an unknown
    key raises ConfigError."""
    if key.startswith(_IGNORED_PREFIXES):
        return None
    if key.startswith(_OVERRIDES):
        return _finite
    if key not in _KEYS:
        raise ConfigError(f"{at}unknown config key {key!r}")
    return _KEYS[key][0]


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Strict flat key = value parser with line diagnostics: an unknown or
    repeated key, or a value its key's type cannot read, names its line.
    Returns ``key -> value text``."""
    return {key: text for key, (_, text, _) in
            _read_pairs(text, origin, _config_caster).items()}


class JobConfig:
    """Typed view over the merged config-file + flag key/value map."""

    def __init__(self, entries: dict):
        self.entries = entries  # key -> (value, text, origin prefix), as _read_pairs

    def get(self, key):
        if key in self.entries:
            return self.entries[key][0]
        return _KEYS[key][1]

    def overrides(self) -> dict:
        return {key[len(_OVERRIDES):]: value for key, (value, _, _) in self.entries.items()
                if key.startswith(_OVERRIDES)}

    def sized_vector(self, key, length: int, what: str):
        """The vector at ``key``, checked to hold ``length`` numbers
        (``what`` says what they count); None when the key is unset."""
        vec = self.get(key)
        if vec is not None and len(vec) != length:
            raise ConfigError(f"{self.entries[key][2]}config key {key!r} has length "
                              f"{len(vec)}, expected {length} ({what})")
        return vec

    def echo_lines(self) -> list[str]:
        keys = set(self.entries) | {key for key, (_, default, _) in _KEYS.items()
                                    if default is not None}
        return [f"{key} = {self.entries[key][1] if key in self.entries else _KEYS[key][1]}"
                for key in sorted(keys)]


def _load_job(args) -> JobConfig:
    entries = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        entries = _read_pairs(_read_text(path, "utf-8"), str(path), _config_caster)
    for key, (caster, _, flag) in _KEYS.items():
        text = getattr(args, flag, None) if flag else None
        if text is not None:
            entries[key] = (_cast(key, text, caster, ""), text, "")
    env = os.environ.get("SCBF_THREADS")
    if "threads" not in entries and env:
        at = "SCBF_THREADS: "
        entries["threads"] = (_cast("threads", env, _KEYS["threads"][0], at), env, at)
    return JobConfig(entries)


def _build_system(job: JobConfig):
    bench = job.get("system.id")
    if bench is None:
        raise ConfigError("missing required key 'system.id'")
    # An unknown id gets no counts, so make_benchmark names the id.
    counts = (job.sized_vector("grid.counts", len(BENCHMARKS[bench].counts),
                               f"one per dimension of {bench}")
              if bench in BENCHMARKS else None)
    return make_benchmark(bench, job.overrides(), counts)


def _prop_config(job: JobConfig) -> PropagationConfig:
    return PropagationConfig(
        horizon=job.get("propagation.horizon"),
        cfl_safety=job.get("propagation.cfl_safety"),
        candidate_points=job.get("propagation.candidate_points"),
    )


# --- artifact I/O ---------------------------------------------------------------


def _write_metadata(path: Path, job: JobConfig, result_lines: list[str],
                    history: list[IterationRecord] | None = None):
    lines = job.echo_lines() + result_lines
    if history:
        for rec in history:
            lines.append(
                f"history.{rec.iteration} = {rec.residual!r} {rec.gamma_estimate!r}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_metadata(path: Path) -> tuple[dict, int]:
    """:func:`_read_pairs`'s map of a metadata file, and its line count;
    :data:`_METADATA_SCHEMA` keys are cast, every other value is text."""
    text = _read_text(path, "utf-8")
    return (_read_pairs(text, str(path), lambda key, at: _METADATA_SCHEMA.get(key, str)),
            len(text.splitlines()))


def save_result(result: EigenResult, job: JobConfig, out: Path, sys_model):
    out.mkdir(parents=True, exist_ok=True)
    write_field(result.psi, out / "psi.fld")
    policy_files = []
    for j, fld in enumerate(result.policy.channel_fields()):
        name = f"policy_{j}.fld"
        write_field(fld, out / name)
        policy_files.append(name)
    final_residual = result.history[-1].residual if result.history else math.nan
    # Diagnostic only: whether the rate estimate decreased monotonically over
    # the tail half of the iteration (not guaranteed during the transient).
    gammas = [rec.gamma_estimate for rec in result.history]
    tail = gammas[len(gammas) // 2:]
    monotone = int(all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])))
    # The structure flags the model probed (booleans as 0 or 1), then what
    # the last operator application did: candidates scored per node and step
    # (0 for fixed-policy steps), the step, the steps per apply and the CFL
    # load.
    result_lines = [
        f"system.flags.{f.name} = {int(getattr(sys_model.flags, f.name))}"
        for f in fields(sys_model.flags)
    ] + [
        f"result.gamma = {result.gamma!r}",
        f"result.converged = {int(result.converged)}",
        f"result.iterations = {result.iterations}",
        f"result.residual = {final_residual!r}",
        f"result.horizon = {result.horizon!r}",
        f"result.gamma_tail_monotone = {monotone}",
        "result.psi_file = psi.fld",
        f"result.policy_files = {','.join(policy_files)}",
        f"result.regime = {sys_model.regime}",
        f"result.candidates = {result.candidates}",
        f"result.dt = {result.dt!r}",
        f"result.steps_per_apply = {result.steps_per_apply}",
        f"result.cfl_load = {result.cfl_load!r}",
    ]
    _write_metadata(out / "metadata.txt", job, result_lines, result.history)


def _check_grid(got, want, subject: str, expected: str):
    """ConfigError unless ``got == want``; ``subject`` is on ``got``."""
    if got != want:
        raise ConfigError(
            f"{subject} is on a grid of shape {got.counts}, expected {expected}, "
            f"shape {want.counts}" + (" (same shape, other bounds or periodicity)"
                                      if got.counts == want.counts else ""))


def load_result(artifacts: Path, sys_model) -> EigenResult:
    """The result ``synthesize`` stored in ``artifacts`` (its history
    empty), its fields checked against ``sys_model``'s grid and inputs."""
    meta_path = artifacts / "metadata.txt"
    if not meta_path.exists():
        raise ConfigError(f"missing metadata file: {meta_path}")
    meta, end = _read_metadata(meta_path)

    def get(key, default=None):
        """``meta[key]``'s value; a missing required key raises ConfigError."""
        if key in meta:
            return meta[key][0]
        if default is None:
            raise ConfigError(f"{meta_path}:{max(end, 1)}: file ends without key {key!r}")
        return default

    psi_path = artifacts / get("result.psi_file", default="psi.fld")
    if not psi_path.exists():
        raise ConfigError(f"missing barrier field file: {psi_path}")
    psi = read_field(psi_path)
    _check_grid(psi.spec, sys_model.grid, f"{psi_path}: barrier field",
                f"the configured grid of {sys_model.name}")
    names = [name.strip() for name in get("result.policy_files").split(",") if name.strip()]
    where = meta["result.policy_files"][2]
    if not names:
        raise ConfigError(f"{where}no policy files recorded")
    if len(names) != sys_model.n_u:
        raise ConfigError(
            f"{where}{len(names)} policy files give a policy of shape "
            f"{(psi.spec.size, len(names))}, expected {(psi.spec.size, sys_model.n_u)} "
            "(one file per input channel)")
    channels = []
    for name in names:
        fpath = artifacts / name
        if not fpath.exists():
            raise ConfigError(f"missing policy field file: {fpath}")
        channel = read_field(fpath)
        _check_grid(channel.spec, psi.spec, f"{where}policy file {name!r}",
                    f"the grid of {psi_path.name}")
        channels.append(channel.values)
    policy = PolicyTable(psi.spec, np.stack(channels, axis=1),
                         sys_model.input_lower, sys_model.input_upper)
    return EigenResult(
        gamma=get("result.gamma"),
        psi=psi,
        policy=policy,
        history=[],
        converged=bool(get("result.converged", 0)),
        horizon=get("result.horizon", _KEYS["propagation.horizon"][1]),
    )


# --- subcommands -----------------------------------------------------------------


def _warm_start(job: JobConfig, sys_model) -> ScalarField:
    """The field ``iteration.warm_start`` names, resampled onto the system
    grid; a file that cannot be read or resampled raises ConfigError naming
    the key and its ``file:line``."""
    path = Path(job.get("iteration.warm_start"))
    try:
        return warm_start_field(read_field(path), sys_model)
    except OSError as exc:
        message = f"cannot read {path}: {exc.strerror or exc}"
    except (ValueError, OutOfDomain) as exc:
        message = str(exc)
    raise ConfigError(f"{job.entries['iteration.warm_start'][2]}config key "
                      f"'iteration.warm_start': {message}")


def cmd_synthesize(args) -> int:
    job = _load_job(args)
    sys_model = _build_system(job)
    cfg = _prop_config(job)
    tol = job.get("iteration.tol")
    max_iter = job.get("iteration.max_iter")
    algorithm = job.get("iteration.algorithm")

    init = None
    warm = job.get("iteration.warm_start")
    if warm:
        init = _warm_start(job, sys_model)
    elif job.get("iteration.coarse_ladder"):
        coarse_counts = [max(3, (c + 1) // 2) for c in sys_model.grid.counts]
        coarse_sys = make_benchmark(job.get("system.id"), job.overrides(), coarse_counts)
        coarse_res = _run_iteration(coarse_sys, cfg, algorithm,
                                    initial_field(coarse_sys, job.get("iteration.init")),
                                    tol, max_iter)
        init = warm_start_field(coarse_res.psi, sys_model)
    if init is None:
        init = initial_field(sys_model, job.get("iteration.init"))

    result = _run_iteration(sys_model, cfg, algorithm, init, tol, max_iter)
    out = Path(args.out or "out")
    save_result(result, job, out, sys_model)
    print(f"gamma = {result.gamma!r}  converged = {result.converged} "
          f"iterations = {result.iterations}  -> {out}")
    return 0 if result.converged else 2


def _run_iteration(sys_model, cfg, algorithm, init, tol, max_iter) -> EigenResult:
    if algorithm == "power_policy":
        return power_policy_iteration(sys_model, cfg, init_psi=init, tol=tol,
                                      max_iter=max_iter)
    if algorithm == "power_policy_two_step":
        return power_policy_iteration(sys_model, cfg, init_psi=init, tol=tol,
                                      max_iter=max_iter, accelerated=False)
    return power_iteration(sys_model, PolicyTable.zero(sys_model), cfg,
                           init, tol=tol, max_iter=max_iter)


def _filter_spec(job: JobConfig, sys_model, result: EigenResult) -> FilterSpec:
    return FilterSpec(sys_model, result, gamma=job.get("filter.gamma"),
                      weight=job.sized_vector("filter.weight", sys_model.n_u, "n_u"))


def _build_controller(job: JobConfig, sys_model, result: EigenResult):
    kind = job.get("simulation.controller")
    if kind == "fixed_policy":
        return FixedPolicyController(result.policy)
    if kind == "open_loop":
        u = job.sized_vector("simulation.u_const", sys_model.n_u, "n_u")
        if u is None:
            raise ConfigError("open_loop controller needs 'simulation.u_const'")
        return OpenLoopController(np.asarray(u))
    spec = _filter_spec(job, sys_model, result)
    ref_kind = job.get("simulation.reference")
    if ref_kind == "constant":
        u_ref = job.sized_vector("simulation.reference_u", sys_model.n_u, "n_u")
        if u_ref is None:
            raise ConfigError("constant reference needs 'simulation.reference_u'")
        reference = constant_reference(u_ref)
    elif ref_kind == "circle":
        if sys_model.name != "bicycle":
            raise ConfigError(f"{job.entries['simulation.reference'][2]}config key "
                              "'simulation.reference': circle steers the bicycle, "
                              f"not {sys_model.name}")
        reference = bicycle_circle_reference()
    else:
        reference = constant_reference(np.zeros(sys_model.n_u))
    return ScbfQpController(spec, reference)


def cmd_simulate(args) -> int:
    job = _load_job(args)
    sys_model = _build_system(job)
    artifacts = Path(args.artifacts)
    result = load_result(artifacts, sys_model)
    x0 = job.sized_vector("simulation.x0", sys_model.n_x, "n_x")
    if x0 is None:
        raise ConfigError("missing required key 'simulation.x0'")
    controller = _build_controller(job, sys_model, result)
    sim = SimConfig(
        t_end=job.get("simulation.t_end"),
        trials=job.get("simulation.trials"),
        seed=job.get("simulation.seed"),
        controller=controller,
        dt=job.get("simulation.dt"),
    )
    filtered = isinstance(controller, ScbfQpController)
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    curve = estimate_safety_curve(sys_model, sim, np.asarray(x0),
                                  bound=controller.spec if filtered else result,
                                  threads=job.get("threads"))
    write_trajectory_csv(curve.trajectory, out / "trajectory.csv")
    write_safety_curve_csv(curve, out / "curve.csv")
    result_lines = [
        f"result.survival_end = {float(curve.survival_fraction[-1])!r}",
        "result.curve_file = curve.csv",
        "result.trajectory_file = trajectory.csv",
    ]
    if filtered:
        # how often the filter returned each status over the estimate's
        # trial-steps
        counts = controller.status_counts
        result_lines += [f"result.filter.{status.value}_fraction = {float(n / counts.sum())!r}"
                         for status, n in zip(STATUS_BY_CODE, counts)]
    _write_metadata(out / "sim_metadata.txt", job, result_lines)
    print(f"survival({sim.t_end}) = {float(curve.survival_fraction[-1])!r}  -> {out}")
    return 0


def cmd_filter(args) -> int:
    job = _load_job(args)
    sys_model = _build_system(job)
    result = load_result(Path(args.artifacts), sys_model)
    spec = _filter_spec(job, sys_model, result)
    queries = Path(args.queries)
    if not queries.exists():
        raise ConfigError(f"query file not found: {queries}")
    X, U_ref, linenos = _read_queries(queries, sys_model.n_x, sys_model.n_u)
    # A row fails as the filter would reject it: state first, then input.
    outside = ~sys_model.contains(X)
    bad = (outside | ~np.isfinite(U_ref).all(axis=1)).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise ConfigError(f"{queries}:{linenos[i]}: " + (
            "state is outside the safe set; treat as killed" if outside[i]
            else "reference input must be finite"))
    U, codes = filter_input_batch(spec, X, U_ref)
    out_lines = [",".join([f"u{j + 1}" for j in range(sys_model.n_u)] + ["status"])]
    out_lines += [",".join([repr(float(v)) for v in u] + [STATUS_BY_CODE[c].value])
                  for u, c in zip(U, codes)]
    Path(args.output).write_text("\n".join(out_lines) + "\n", encoding="ascii")
    print(f"answered {len(out_lines) - 1} filter queries -> {args.output}")
    return 0


def _reads_as_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_queries(path: Path, n_x: int, n_u: int):
    """States ``(B, n_x)``, references ``(B, n_u)`` and line numbers of the
    rows ``t, x, u_ref`` of a query CSV (header optional)."""
    lines = _read_text(path, "utf-8").splitlines()
    # A header starts with a letter and holds no number (``nan`` and ``inf``
    # are numbers).
    start = 1 if lines and lines[0].lstrip()[:1].isalpha() and \
        not any(_reads_as_number(part) for part in lines[0].split(",")) else 0
    columns = 1 + n_x + n_u
    rows, linenos = [], []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != columns:
            raise ConfigError(f"{path}:{lineno}: expected {columns} columns (t, x, u_ref)")
        try:
            rows.append([float(p) for p in fields])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    rows = np.array(rows, dtype=float).reshape(-1, columns)
    return rows[:, 1:1 + n_x], rows[:, 1 + n_x:], linenos


def cmd_verify(args) -> int:
    job = _load_job(args)
    sys_model = _build_system(job)
    result = load_result(Path(args.artifacts), sys_model)
    cfg = replace(_prop_config(job), horizon=result.horizon)
    checks = []

    def check(name, ok, detail):
        checks.append((name, bool(ok), detail))

    psi = result.psi
    check("normalization", abs(sup_norm(psi) - 1.0) <= 1e-12,
          f"sup_norm = {sup_norm(psi)!r}")
    check("positivity", float(np.min(psi.values)) >= 0.0,
          f"min = {float(np.min(psi.values))!r}")
    killed = ~sys_model.interior_mask()
    check("boundary_zeros", not np.any(psi.values[killed] != 0.0),
          "barrier vanishes on killed nodes")
    in_box = np.all(result.policy.inputs >= sys_model.input_lower - 1e-12) and \
        np.all(result.policy.inputs <= sys_model.input_upper + 1e-12)
    check("policy_in_box", in_box, "policy inputs within the input box")
    res = eigen_residual(result, sys_model, cfg)
    rtol = job.get("verify.residual_tol")
    check("eigen_residual", res <= rtol, f"residual = {res!r} (tol {rtol!r})")
    double = replace(cfg, horizon=2.0 * result.horizon)
    out2 = propagate(psi, sys_model, result.policy, double)
    gamma2 = -math.log(max(sup_norm(out2), 1e-300)) / double.horizon
    dgap = abs(gamma2 - result.gamma)
    check("horizon_invariance", dgap <= 0.02 * abs(result.gamma) + 1e-6,
          f"gamma(t) = {result.gamma!r}, gamma(2t) = {gamma2!r}")

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 3 if failed else 0


def cmd_export_plot(args) -> int:
    src = Path(args.artifacts)
    out = Path(args.out or src)
    out.mkdir(parents=True, exist_ok=True)
    wrote = []
    curve_csv = src / "curve.csv"
    if curve_csv.exists():
        rows = _read_text(curve_csv, "utf-8").splitlines()
        if not rows:
            raise ConfigError(f"{curve_csv}:1: empty file, expected a header line")
        header = rows[0].split(",")
        dat_lines = ["# " + " ".join(header)]
        dat_lines += [" ".join(r.split(",")) for r in rows[1:]]
        (out / "curve.dat").write_text("\n".join(dat_lines) + "\n")
        has_bound = "bound" in header
        gp = [
            "set xlabel 't'",
            "set ylabel 'survival probability'",
            "set yrange [0:1.05]",
            "plot 'curve.dat' using 1:3 with lines title 'empirical', \\",
            "     'curve.dat' using 1:4:5 with filledcurves fs transparent solid 0.2 title '95% CI'"
            + (", \\\n     'curve.dat' using 1:6 with lines dashtype 2 title 'bound'" if has_bound else ""),
        ]
        (out / "curve.gp").write_text("\n".join(gp) + "\n")
        wrote += ["curve.dat", "curve.gp"]
    meta = src / "metadata.txt"
    if meta.exists():
        hist = []
        for key, (value, _, at) in _read_metadata(meta)[0].items():
            if key.startswith("history."):
                try:
                    resid, gamma = value.split()
                    hist.append((int(key.split(".", 1)[1]), float(resid), float(gamma)))
                except ValueError:
                    raise ConfigError(f"{at}expected "
                                      "'history.<iteration> = <residual> <gamma>'") from None
        if hist:
            hist.sort()
            (out / "convergence.dat").write_text(
                "\n".join(f"{it} {r!r} {g!r}" for it, r, g in hist) + "\n"
            )
            (out / "convergence.gp").write_text(
                "set logscale y\nset xlabel 'iteration'\n"
                "plot 'convergence.dat' using 1:2 with linespoints title 'residual', \\\n"
                "     'convergence.dat' using 1:3 with linespoints title 'gamma'\n"
            )
            wrote += ["convergence.dat", "convergence.gp"]
    if not wrote:
        raise ConfigError(f"nothing to export from {src}")
    print(f"wrote {', '.join(wrote)} -> {out}")
    return 0


# --- entry point -------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="job config file (key = value lines)")
    p.add_argument("--system", help="benchmark system id")
    p.add_argument("--grid", help="nodes per dimension, comma separated")
    p.add_argument("--horizon", help="operator horizon")
    p.add_argument("--tol", help="iteration convergence tolerance")
    p.add_argument("--seed", help="simulation seed")
    p.add_argument("--trials", help="simulation trial count")
    p.add_argument("--threads", help="worker threads (env SCBF_THREADS)")
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scbf",
        description="Barrier synthesis and validation for stochastic safety-critical control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="run power-policy iteration, write psi/policy/metadata")
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo closed-loop survival estimation")
    _add_common(p)
    p.add_argument("--artifacts", required=True, help="directory with synthesize outputs")
    p.add_argument("--gamma", help="filter decay rate (scbf_qp controller)")

    p = sub.add_parser("filter", help="answer (t, x, u_ref) queries from a CSV")
    _add_common(p)
    p.add_argument("--artifacts", required=True)
    p.add_argument("--queries", required=True, help="CSV of t, x1..xn, u1..um rows")
    p.add_argument("--output", required=True, help="CSV to write (u, status) rows")
    p.add_argument("--gamma", help="filter decay rate")

    p = sub.add_parser("verify", help="check the invariant suite on stored artifacts")
    _add_common(p)
    p.add_argument("--artifacts", required=True)

    p = sub.add_parser("export-plot", help="emit gnuplot data + scripts for stored outputs")
    _add_common(p)
    p.add_argument("--artifacts", required=True)

    return parser


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "verify": cmd_verify,
    "export-plot": cmd_export_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, ScbfError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
