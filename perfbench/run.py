"""scbf benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload synth_corner --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ``scbf`` from its
``src/`` directory (nothing is installed).  Rounds of the workload run while
the next one is expected to end within ``--seconds`` (at least one), with
set-ups spread among them whose median gives ``setup_s``.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` one
round runs untraced, the rest traced, and the last line carries the
per-layer metrics (see NOTES.md).  Every line before it is a human-readable report.
All load is single-threaded: BLAS/OpenMP pools are pinned to one thread and
Monte Carlo runs with ``threads=1``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "SCBF_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
# Set-up runs before the first round, and before each later untraced round
# it repeats while its total time is below SETUP_SHARE of the run so far (at
# most SETUP_MAX_REPS times in a row).  Spreading the repeats over the whole
# run makes their median see the same machine as the rounds and gives
# millisecond set-ups enough samples, while a set-up of seconds takes no
# more than its share from the rounds.
SETUP_SHARE, SETUP_MAX_REPS = 0.15, 25

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_ref": "ref"}


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (ROOT / "src" / "scbf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no scbf sources under {ROOT / 'src'}; "
                         "run from the root of an scbf checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import scbf

    if Path(scbf.__file__).resolve().parent != (ROOT / "src" / "scbf").resolve():
        sys.stderr.write(f"error: imported scbf from {scbf.__file__}, not this checkout\n")
        raise SystemExit(2)


def provenance(seed: int) -> dict:
    import numpy as np

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            sha = ref
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def reduce_samples(values, how):
    import numpy as np

    if callable(how):
        return how(values)
    flat = np.concatenate([np.atleast_1d(v) for v in values])
    if how == "median":
        return float(np.median(flat)), flat.size
    scale = 1e6  # the latency samples are seconds, reported in microseconds
    q = {"p50": 50, "p99": 99}[how]
    return float(np.percentile(flat, q)) * scale, flat.size


def step_probe(model, optimal: bool, k1=10, k2=60, dt=1e-5, reps=3):
    """ns per node-step from pinned-dt applies of k1 and k2 steps: the
    difference cancels the per-apply set-up, leaving (k2 - k1) steps."""
    import numpy as np
    import scbf

    field = scbf.default_initial_field(model)
    policy = scbf.PolicyTable.zero(model)

    def apply(k):
        cfg = scbf.PropagationConfig(horizon=k * dt, dt=dt)
        t0 = time.perf_counter()
        if optimal:
            scbf.propagate_optimal(field, model, cfg)
        else:
            scbf.propagate(field, model, policy, cfg)
        return time.perf_counter() - t0

    per_step = [(apply(k2) - apply(k1)) / (k2 - k1) for _ in range(reps)]
    return float(np.median(per_step)) / model.grid.size * 1e9


def _setup_batch(setup, size, times, costs, state, elapsed, measure_reference):
    """Repeat set-up as SETUP_SHARE allows; a batch of repeats is framed by
    two reference measurements, which give each repeat's cost."""
    batch = []
    for _ in range(SETUP_MAX_REPS):
        if (times or batch) and sum(times) + sum(batch) >= SETUP_SHARE * elapsed:
            break
        if not batch:
            ref_before = measure_reference()
        t0 = time.perf_counter()
        state = setup(size)
        batch.append(time.perf_counter() - t0)
    if batch:
        ref = 0.5 * (ref_before + measure_reference())
        times += batch
        costs += [t / ref for t in batch]
    return state


def _round_total(stages: dict) -> float:
    return sum(sum(calls) for calls in stages.values())


def _sum_of_medians(rounds: list) -> float:
    """Sum over a round's timed calls of each call's median over the rounds.

    Every round makes the same calls on inputs of the same size, so the
    i-th call of an operation is the same call in every round."""
    return sum(statistics.median(r[op][i] for r in rounds if len(r.get(op, ())) > i)
               for op, calls in rounds[0].items() for i in range(len(calls)))


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full"):
    """Run one benchmark invocation; returns (result object, report lines)."""
    import numpy as np
    import reference
    import tracing
    import workloads

    setup, round_fn = workloads.WORKLOADS[workload]
    size = workloads.SIZES[size_name][workload]
    workdir = WORKDIR / workload
    WORKDIR.mkdir(exist_ok=True)
    lines = [f"provenance {json.dumps(provenance(seed), sort_keys=True)}"]

    tracer = tracing.Tracer() if trace else None
    reference_times = []

    def measure_reference():
        reference_times.append(reference.measure())
        return reference_times[-1]

    ctx = workloads.Context()
    setup_times, setup_costs, rounds, round_costs, traced_rounds = [], [], [], [], []
    layer = {}
    start = time.perf_counter()
    r, state, iteration_s = 0, None, []
    while True:
        t_iteration = time.perf_counter()
        rng = np.random.default_rng([seed, r])
        traced_round = trace and r > 0
        if not traced_round:
            state = _setup_batch(setup, size, setup_times, setup_costs, state,
                                 time.perf_counter() - start, measure_reference)
        elif r == 1:
            probe_model = state["models"][0]
            layer["semigroup.optimal_step_ns_per_node"] = step_probe(probe_model, True)
            layer["semigroup.fixed_step_ns_per_node"] = step_probe(probe_model, False)
            tracer.install()
            t0 = time.perf_counter()
            state = setup(size)
            traced_setup_s = time.perf_counter() - t0
            tracer.uninstall()
            first_round_op = tracer.new_op()
        ctx.tracer = tracer if traced_round else None
        ctx.reference = None if traced_round else measure_reference
        if traced_round:
            tracer.install(state["models"])
        ctx.stages, ctx.costs = {}, {}
        try:
            round_fn(state, ctx, size, rng, workdir)
        finally:
            if traced_round:
                tracer.uninstall()
        if traced_round:
            traced_rounds.append(ctx.stages)
        else:
            rounds.append(ctx.stages)
            round_costs.append(ctx.costs)
        r += 1
        iteration_s.append(time.perf_counter() - t_iteration)
        # Start no round that would end past the deadline: a run then lasts
        # about --seconds, whatever the length of its rounds.
        elapsed = time.perf_counter() - start
        if (not trace or traced_rounds) and elapsed + statistics.median(iteration_s) > seconds:
            break
    # Like rounds, set-up is timed in reference units; setup_s gives that cost
    # in seconds at the reference kernel's nominal time.
    setup_ref = statistics.median(setup_costs)
    setup_s = setup_ref * reference.NOMINAL_S
    setup_wall_s = statistics.median(setup_times)

    # The machine's speed moves by up to half for seconds to minutes at a
    # time (see reference.py), so the gated figure is a round's cost in
    # reference units; round_s, in seconds, is reported beside it.
    round_ref = _sum_of_medians(round_costs)
    round_s = _sum_of_medians(rounds)
    round_median_s = statistics.median(_round_total(r) for r in rounds)
    reference_s = statistics.median(reference_times)
    fail_frac = ctx.failed / ctx.attempted if ctx.attempted else 1.0
    lines.append(f"workload {workload} seed {seed} rounds {len(rounds)} untraced, "
                 f"{len(traced_rounds)} traced; operations {ctx.attempted}, failed {ctx.failed}")
    lines += [f"FAIL {msg}" for msg in ctx.failures]
    lines.append(f"metric setup_s {setup_s:.6g} s (median of {len(setup_times)} set-ups: "
                 f"{setup_ref:.6g} ref x {reference.NOMINAL_S} s nominal reference)")
    lines.append(f"metric setup_wall_s {setup_wall_s:.6g} s (median of {len(setup_times)} set-ups)")
    lines.append(f"metric round_ref {round_ref:.6g} ref (sum over a round's calls of the median "
                 f"over {len(rounds)} rounds of seconds / reference seconds)")
    lines.append(f"metric round_s {round_s:.6g} s (the same in seconds; median round "
                 f"{round_median_s:.6g} s)")
    lines.append(f"metric reference_s {reference_s:.6g} s (median of {len(reference_times)} "
                 f"measurements of {reference.REPS} kernels)")
    lines.append(f"metric fail_frac {fail_frac:.6g} ratio ({ctx.failed}/{ctx.attempted})")
    for op in rounds[0]:
        secs = [sum(r[op]) for r in rounds if op in r]
        refs = [sum(c[op]) for c in round_costs if op in c]
        lines.append(f"stage {op!r} median {statistics.median(secs):.4g} s, "
                     f"{statistics.median(refs):.4g} ref over {len(secs)} rounds")
    for name, unit, how in workloads.REPORTED[workload]:
        key = workloads.SAMPLED_AS.get(name, name)
        if key not in ctx.samples:  # its operation failed before measuring
            lines.append(f"metric {name} missing")
            continue
        value, n = reduce_samples(ctx.samples[key], how)
        basis = f"{how} of {n}" if isinstance(how, str) else f"pooled over {n}"
        lines.append(f"metric {name} {value:.6g} {unit} ({basis})")

    if trace:
        layer.update(tracing.layer_metrics(tracer, len(traced_rounds), first_round_op))
        layer["trace.overhead_setup_s"] = traced_setup_s - setup_wall_s
        layer["trace.overhead_round_s"] = (statistics.median(_round_total(r) for r in traced_rounds)
                                           - round_median_s)
        tracer.write(WORKDIR / f"trace-{workload}.jsonl")
        lines.append(f"trace {len(tracer.spans)} spans -> {WORKDIR / f'trace-{workload}.jsonl'}")
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in sorted(layer.items())}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines.append(f"metric peak_rss_mb {peak_rss_mb:.6g} MB")
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "round_ref": round_ref}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("synth_corner", "synth_dense", "deploy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"report": lines, "result": result}, indent=1) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
