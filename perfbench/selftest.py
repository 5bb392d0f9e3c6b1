"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, each with its unit, and that the report names every figure the
workload owns.  Then it corrupts answers on purpose (``gamma`` x 1.01, a
filter output outside the input box) and checks that the gates catch them,
and that the benchmark refuses to run without the program's sources.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CHECKS = []


def check(name, ok, detail=""):
    CHECKS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip(), flush=True)


def expected(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def emitted(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def metrics_are_complete():
    import workloads

    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.run(name, 7, 0, trace, "tiny")
            check(f"{name} trace={int(trace)} correct", result["correct"] and result["failed"] == 0,
                  f"{result['failed']}/{result['attempted']} failed")
            want, got = expected(kind), emitted(result)
            check(f"{name} trace={int(trace)} emits every {kind} metric with its unit", want == got,
                  f"missing {sorted(set(want) - set(got))} extra {sorted(set(got) - set(want))}")
            numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            check(f"{name} trace={int(trace)} values are numbers", numbers)
        reported = {line.split()[1] for line in lines
                    if line.startswith("metric ") and not line.endswith(" missing")}
        owned = {m for m, _, _ in workloads.REPORTED[name]} | {"fail_frac", "setup_s"}
        check(f"{name} reports its figures", owned <= reported, f"missing {sorted(owned - reported)}")


def corrupted(label, workload, attr, make_bad, gate):
    import scbf

    original = getattr(scbf, attr)
    setattr(scbf, attr, make_bad(original))
    try:
        result, lines = run.run(workload, 7, 0, False, "tiny")
    finally:
        setattr(scbf, attr, original)
    fails = [line for line in lines if line.startswith("FAIL")]
    tripped = any(gate in line for line in fails)
    check(f"corrupted {label} trips '{gate}'",
          tripped and not result["correct"] and result["failed"] > 0,
          f"fail_frac {result['failed']}/{result['attempted']}")


def scaled_gamma(fn):
    def wrapper(*args, **kwargs):
        res = fn(*args, **kwargs)
        res.gamma *= 1.01
        return res
    return wrapper


def outside_box(fn):
    def wrapper(spec, x, u_ref):
        u, status = fn(spec, x, u_ref)
        return u + 10.0 * (spec.sys.input_upper - spec.sys.input_lower), status
    return wrapper


def refuses_bare_directory():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"],
                                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check("bare directory exits non-zero without a result",
          proc.returncode != 0 and '"metrics"' not in proc.stdout, f"exit {proc.returncode}")


def main() -> int:
    run._import_program()
    metrics_are_complete()
    corrupted("gamma x 1.01", "synth_corner", "power_policy_iteration", scaled_gamma, "gamma failed")
    corrupted("filter output", "deploy", "filter_input", outside_box, "filter_in_box")
    refuses_bare_directory()
    print(f"{sum(CHECKS)}/{len(CHECKS)} self-test checks passed")
    return 0 if all(CHECKS) else 1


if __name__ == "__main__":
    sys.exit(main())
