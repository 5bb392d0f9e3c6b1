import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scbf import cli, montecarlo, semigroup
from scbf.cli import _KEYS, main, parse_config_text
from scbf.errors import ConfigError
from scbf.grid import GridSpec, read_field, write_field, ScalarField
from scbf.safety_filter import FilterSpec, FilterStatus, filter_input
from scbf.systems import make_benchmark


def run(*argv):
    return main(list(argv))


def read_meta(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


@pytest.fixture(scope="module")
def brownian_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("br")
    code = run("synthesize", "--system", "brownian_1d", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def di_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("di")
    code = run("synthesize", "--system", "di_omni", "--grid", "21,41", "--out", str(out))
    assert code == 0
    return out


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text("system.id = di_omni\n# comment\ngrid.counts = 5,7\n")
        assert cfg["system.id"] == "di_omni"
        assert cfg["grid.counts"] == "5,7"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="system.idd"):
            parse_config_text("system.idd = x\n", "f.cfg")

    def test_result_namespace_ignored(self):
        cfg = parse_config_text("result.gamma = 1.0\nhistory.3 = 0.1 0.2\n")
        assert cfg == {}

    def test_overrides_pass_through(self):
        cfg = parse_config_text("system.overrides.sigma = 2.0\n")
        assert cfg["system.overrides.sigma"] == "2.0"

    def test_readme_table_lists_the_schema(self):
        # Every key in the first column of the README's config table, and
        # nothing else, so the table and the schema cannot drift apart; a
        # key with a default ends its row with it in parentheses, as its
        # caster reads it.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
        keys, defaults = set(), {}
        for row in section.splitlines():
            if row.startswith("| `"):
                _, first, meaning, _ = row.split("|")
                named = re.findall(r"`([^`]+)`", first)
                keys |= set(named)
                if len(named) == 1 and named[0] in _KEYS and _KEYS[named[0]][1] is not None:
                    caster = _KEYS[named[0]][0]
                    defaults[named[0]] = caster(re.findall(r"\(([^()]*)\)", meaning)[-1])
        assert keys == set(_KEYS) | {"system.overrides.<name>"}
        assert defaults == {key: default for key, (_, default, _) in _KEYS.items()
                            if default is not None}

    def test_readme_table_states_what_each_key_accepts(self):
        # Every key has a row, and the row gives the values the key's caster
        # accepts in the words of its message (backticks aside), so the
        # table is the one place that states them; only the text keys have
        # no such words.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
        rows = {re.findall(r"`([^`]+)`", row.split("|")[1])[0]: row.split("|")[2].replace("`", "")
                for row in section.splitlines() if row.startswith("| `")}
        assert set(_KEYS) <= set(rows)
        casters = {key: caster for key, (caster, _, _) in _KEYS.items()}
        casters["system.overrides.<name>"] = cli._config_caster("system.overrides.sigma", "")
        assert {key for key, caster in casters.items()
                if caster not in cli._EXPECTS} == {"system.id", "iteration.warm_start"}
        assert {key: cli._EXPECTS[caster] for key, caster in casters.items()
                if cli._EXPECTS.get(caster, "") not in rows[key]} == {}


class TestLocatedValues:
    """A value that cannot be read ends in exit 1 with its origin:
    ``file:line:``, ``SCBF_THREADS:`` or, for a flag, nothing."""

    @pytest.mark.parametrize("command, lines, message", [
        # used to run the nan
        ("synthesize", ["iteration.tol = 1e-4", "iteration.tol = nan"],
         "3: key 'iteration.tol' repeats line 2"),
        # used to run a 41-node grid and exit 0
        ("synthesize", ["grid.counts = 41.7"],
         "2: key 'grid.counts': expected comma-separated integers, got '41.7'"),
        # used to name no file or line
        ("simulate", ["simulation.x0 = a"],
         "2: key 'simulation.x0': expected comma-separated finite numbers, got 'a'"),
        # used to exit 0: survival 0.0 with every filter query unmodified,
        # and a trajectory whose inputs read nan
        ("simulate", ["simulation.x0 = 0.0", "simulation.controller = scbf_qp",
                      "simulation.reference = constant", "simulation.reference_u = nan"],
         "5: key 'simulation.reference_u': expected comma-separated finite numbers, got 'nan'"),
        ("simulate", ["simulation.x0 = 0.0", "simulation.controller = open_loop",
                      "simulation.u_const = 0.5,nan"],
         "4: key 'simulation.u_const': expected comma-separated finite numbers, got '0.5,nan'"),
        # used to end in an error from inside the model or a solver:
        # "cannot convert float NaN to integer", or on di_omni, u_max = inf,
        # "SVD did not converge" after LAPACK and runtime warnings
        ("synthesize", ["system.overrides.sigma = nan"],
         "2: key 'system.overrides.sigma': expected a finite number, got 'nan'"),
        ("synthesize", ["system.overrides.sigma = inf"],
         "2: key 'system.overrides.sigma': expected a finite number, got 'inf'"),
        # used to FAIL the eigen_residual check and exit 3
        ("verify", ["verify.residual_tol = nan"],
         "2: key 'verify.residual_tol': expected a finite nonnegative number, got 'nan'"),
        ("verify", ["verify.residual_tol = -1e-3"],
         "2: key 'verify.residual_tol': expected a finite nonnegative number, got '-1e-3'"),
        # used to run one thread, exit 0 and echo the value
        ("simulate", ["threads = 0"], "2: key 'threads': expected a positive integer, got '0'"),
        # used to run the single level and echo the value into metadata.txt
        ("synthesize", ["iteration.coarse_ladder = 2"],
         "2: key 'iteration.coarse_ladder': expected 0 or 1, got '2'"),
        # used to end in an IndexError traceback in the reference
        ("simulate", ["simulation.x0 = 0.0", "simulation.controller = scbf_qp",
                      "simulation.reference = circle"],
         "4: config key 'simulation.reference': circle steers the bicycle, not brownian_1d"),
        # The enumerated keys used to be checked only where they were used,
        # after the system was built (and, for simulate, the artifacts
        # read), and without file or line.
        ("synthesize", ["iteration.init = bogus"],
         "2: key 'iteration.init': expected one of bump, gauss, plateau, got 'bogus'"),
        ("synthesize", ["iteration.algorithm = bogus"],
         "2: key 'iteration.algorithm': expected one of power_policy, "
         "power_policy_two_step, power_fixed, got 'bogus'"),
        ("simulate", ["simulation.x0 = 0.0", "simulation.controller = bogus"],
         "3: key 'simulation.controller': expected one of fixed_policy, scbf_qp, open_loop, "
         "got 'bogus'"),
        ("simulate", ["simulation.x0 = 0.0", "simulation.controller = scbf_qp",
                      "simulation.reference = bogus"],
         "4: key 'simulation.reference': expected one of zero, constant, circle, got 'bogus'"),
        # The scalar number keys used to be cast with float and left their
        # ranges to the library, whose message named no file or line.
        ("synthesize", ["propagation.horizon = 0"],
         "2: key 'propagation.horizon': expected a finite positive number, got '0'"),
        ("synthesize", ["propagation.cfl_safety = nan"],
         "2: key 'propagation.cfl_safety': expected a number in (0, 1], got 'nan'"),
        ("synthesize", ["iteration.tol = nan"],
         "2: key 'iteration.tol': expected a finite positive number, got 'nan'"),
        ("simulate", ["simulation.x0 = 0.0", "simulation.dt = -1e-3"],
         "3: key 'simulation.dt': expected a finite positive number, got '-1e-3'"),
        ("simulate", ["simulation.x0 = 0.0", "simulation.t_end = inf"],
         "3: key 'simulation.t_end': expected a finite positive number, got 'inf'"),
        ("simulate", ["simulation.x0 = 0.0", "simulation.controller = scbf_qp",
                      "filter.gamma = nan"],
         "4: key 'filter.gamma': expected a finite number, got 'nan'"),
        # The integer keys used to be cast with int and left their ranges to
        # the library, whose message named no file or line.
        ("simulate", ["simulation.x0 = 0.0", "simulation.trials = 0"],
         "3: key 'simulation.trials': expected a positive integer, got '0'"),
        ("simulate", ["simulation.x0 = 0.0", f"simulation.seed = {2**64}"],
         f"3: key 'simulation.seed': expected an integer in [0, 2**64), got '{2**64}'"),
    ], ids=["repeated_key", "fractional_count", "bad_vector", "nan_reference_u",
            "nan_u_const", "nan_override", "inf_override", "nan_tolerance",
            "negative_tolerance", "threads_below_one", "ladder_levels", "circle_off_bicycle",
            "init_choice", "algorithm_choice", "controller_choice", "reference_choice",
            "zero_horizon", "nan_cfl_safety", "nan_tol", "negative_dt", "inf_t_end",
            "nan_gamma", "zero_trials", "seed_above_range"])
    def test_config_line(self, tmp_path, capsys, brownian_artifacts, command, lines, message):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("\n".join(["system.id = brownian_1d"] + lines) + "\n")
        extra = ["--artifacts", str(brownian_artifacts)] if command in ("simulate", "verify") else []
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), *extra, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not out.exists()

    def test_choice_checked_before_system_and_artifacts(self, tmp_path, capsys):
        # Neither the system id nor the artifacts exist; the bad choice is
        # reported first.
        cfg = tmp_path / "job.cfg"
        cfg.write_text("system.id = no_such_system\nsimulation.controller = Scbf_qp\n")
        assert run("simulate", "--config", str(cfg), "--artifacts", str(tmp_path / "none"),
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: key 'simulation.controller': expected one of fixed_policy, "
            "scbf_qp, open_loop, got 'Scbf_qp'\n")

    def test_threads_env(self, tmp_path, capsys, brownian_artifacts, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n")
        monkeypatch.setenv("SCBF_THREADS", "x")
        assert run("simulate", "--config", str(cfg), "--artifacts", str(brownian_artifacts),
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            "error: SCBF_THREADS: key 'threads': expected a positive integer, got 'x'\n")

    def test_threads_env_below_one(self, tmp_path, capsys, brownian_artifacts, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n")
        monkeypatch.setenv("SCBF_THREADS", "-3")
        assert run("simulate", "--config", str(cfg), "--artifacts", str(brownian_artifacts),
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            "error: SCBF_THREADS: key 'threads': expected a positive integer, got '-3'\n")

    # A number flag is cast by its key's caster, as a config line is; an
    # argparse type used to end these in a usage dump and exit code 2.
    @pytest.mark.parametrize("command, flag, value, message", [
        ("synthesize", "--grid", "41.7,21",
         "key 'grid.counts': expected comma-separated integers, got '41.7,21'"),
        ("synthesize", "--seed", "1.5",
         "key 'simulation.seed': expected an integer in [0, 2**64), got '1.5'"),
        ("synthesize", "--horizon", "abc",
         "key 'propagation.horizon': expected a finite positive number, got 'abc'"),
        ("synthesize", "--tol", "x", "key 'iteration.tol': expected a finite positive number, "
         "got 'x'"),
        ("synthesize", "--tol", "nan", "key 'iteration.tol': expected a finite positive number, "
         "got 'nan'"),
        ("synthesize", "--trials", "2.5",
         "key 'simulation.trials': expected a positive integer, got '2.5'"),
        ("synthesize", "--threads", "2.5",
         "key 'threads': expected a positive integer, got '2.5'"),
        ("simulate", "--threads", "-3", "key 'threads': expected a positive integer, got '-3'"),
        ("simulate", "--gamma", "x", "key 'filter.gamma': expected a finite number, got 'x'"),
        ("filter", "--gamma", "inf", "key 'filter.gamma': expected a finite number, got 'inf'"),
    ], ids=["grid", "seed", "horizon", "tol", "nan_tol", "trials", "threads",
            "threads_below_one", "simulate_gamma", "filter_gamma"])
    def test_flag(self, tmp_path, capsys, command, flag, value, message):
        extra = {"synthesize": [],
                 "simulate": ["--artifacts", str(tmp_path)],
                 "filter": ["--artifacts", str(tmp_path), "--queries", str(tmp_path / "q.csv"),
                            "--output", str(tmp_path / "a.csv")]}[command]
        assert run(command, "--system", "di_omni", flag, value,
                   "--out", str(tmp_path / "o"), *extra) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSynthesize:
    def test_brownian_metadata_gamma(self, brownian_artifacts):
        meta = read_meta(brownian_artifacts / "metadata.txt")
        gamma = float(meta["result.gamma"])
        assert abs(gamma - math.pi**2 / 8.0) / (math.pi**2 / 8.0) < 0.02
        assert meta["result.converged"] == "1"
        assert (brownian_artifacts / "psi.fld").exists()
        assert (brownian_artifacts / "policy_0.fld").exists()

    def test_metadata_records_the_structure_flags(self, tmp_path, brownian_artifacts):
        # One system.flags.<field> line per StructureFlags field, as probed
        # (booleans as 0 or 1); a file written before those lines existed
        # still loads, and the lines do not stop a rerun from the file.
        meta = read_meta(brownian_artifacts / "metadata.txt")
        flags = make_benchmark("brownian_1d").flags
        assert {k: v for k, v in meta.items() if k.startswith("system.flags.")} == {
            f"system.flags.{f.name}": str(int(getattr(flags, f.name)))
            for f in dataclasses.fields(flags)}
        old = _copy_artifacts(brownian_artifacts, tmp_path / "old")
        lines = (old / "metadata.txt").read_text().splitlines()
        (old / "metadata.txt").write_text(
            "".join(l + "\n" for l in lines if not l.startswith("system.flags.")))
        assert run("verify", "--system", "brownian_1d", "--artifacts", str(old)) == 0
        assert run("synthesize", "--config", str(brownian_artifacts / "metadata.txt"),
                   "--out", str(tmp_path / "again")) == 0

    @pytest.mark.parametrize("system, grid", [
        ("brownian_1d", "21"), ("di_omni", "11,21"), ("di_velocity", "11,21"),
        ("di_input_noise", "11,21"), ("di_deterministic", "11,21"),
        ("wig_aircraft", "7,7,7"), ("bicycle", "7,7,6,5")])
    def test_metadata_keys_unique(self, tmp_path, system, grid):
        # Every built-in system, so every metadata writer path; the reader
        # rejects a repeated key.  The step keys say what each apply did:
        # the regime and the candidates scored per node and step (a fixed
        # input, box corners, corners plus the critical input, 9^2 grid).
        regime, candidates = {
            "brownian_1d": ("affine", "1"), "di_omni": ("affine", "2"),
            "di_velocity": ("affine", "2"), "di_input_noise": ("quadratic", "3"),
            "di_deterministic": ("affine", "2"), "wig_aircraft": ("nonaffine", "81"),
            "bicycle": ("affine", "4")}[system]
        cfg = tmp_path / "job.cfg"
        cfg.write_text("iteration.max_iter = 3\n")
        out = tmp_path / "out"
        code = run("synthesize", "--config", str(cfg), "--system", system,
                   "--grid", grid, "--out", str(out))
        assert code in (0, 2)
        meta, _ = cli._read_metadata(out / "metadata.txt")
        assert "result.gamma" in meta and any(k.startswith("history.") for k in meta)
        assert meta["result.regime"][0] == regime
        assert meta["result.candidates"][0] == candidates
        steps, dt = int(meta["result.steps_per_apply"][0]), float(meta["result.dt"][0])
        load = float(meta["result.cfl_load"][0])
        assert steps >= 1 and steps * dt == pytest.approx(0.5)
        assert load > 0.0 and dt * load <= 0.8 * (1.0 + 1e-12)

    @pytest.mark.parametrize("algorithm, candidates, steps", [
        ("power_policy", "2", "40"), ("power_policy_two_step", "0", "40"),
        ("power_fixed", "0", "37")])
    def test_step_keys_describe_the_applied_operator(self, tmp_path, algorithm, candidates,
                                                     steps):
        # Fixed-policy steps score no candidate.  The returned two-step
        # policy takes box corners, so its load is the corners' (64 on this
        # grid); the zero policy moves x2 not at all, so its load is 59.
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"iteration.max_iter = 2\niteration.algorithm = {algorithm}\n")
        out = tmp_path / "out"
        assert run("synthesize", "--config", str(cfg), "--system", "di_omni",
                   "--grid", "11,21", "--out", str(out)) in (0, 2)
        meta = read_meta(out / "metadata.txt")
        assert (meta["result.candidates"], meta["result.steps_per_apply"]) == (candidates, steps)

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system.bogus_key = 1\n")
        assert run("synthesize", "--config", str(cfg)) == 1
        assert "system.bogus_key" in capsys.readouterr().err

    def test_missing_system_exit_1(self, capsys):
        assert run("synthesize") == 1
        assert "system.id" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_candidate_points_below_two_exit_1(self, tmp_path, capsys, points):
        # 0 used to end in a TypeError traceback, 1 in a silent synthesis
        # against the lower input corner only; the library's check named no
        # file or line.
        cfg = tmp_path / "job.cfg"
        cfg.write_text("system.id = wig_aircraft\ngrid.counts = 5,5,5\n"
                       f"propagation.candidate_points = {points}\n")
        assert run("synthesize", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: key 'propagation.candidate_points': expected an integer of "
            f"at least 2, got '{points}'\n")
        assert not (tmp_path / "out" / "psi.fld").exists()

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_exit_1(self, tmp_path, capsys, max_iter):
        # 0 used to write result.gamma = nan and exit 2, and verify then
        # rejected the files with exit 1.
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"system.id = brownian_1d\niteration.max_iter = {max_iter}\n")
        assert run("synthesize", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: key 'iteration.max_iter': expected a positive integer, "
            f"got '{max_iter}'\n")
        assert not (tmp_path / "out" / "psi.fld").exists()

    @pytest.mark.parametrize("flag, config", [
        (["--horizon", "nan"], ""), (["--horizon", "inf"], ""),
        ([], "propagation.horizon = inf\n"), ([], "propagation.horizon = -1\n")])
    def test_non_finite_horizon_exit_1(self, tmp_path, capsys, flag, config):
        # nan used to make the operator the identity and write gamma = nan as
        # converged with exit 0; inf ended in an OverflowError traceback.
        cfg = tmp_path / "job.cfg"
        cfg.write_text("system.id = brownian_1d\n" + config)
        out = tmp_path / "out"
        assert run("synthesize", "--config", str(cfg), *flag, "--out", str(out)) == 1
        err = capsys.readouterr().err
        at = "" if flag else f"{cfg}:2: "
        assert err.startswith(f"error: {at}key 'propagation.horizon': expected a finite "
                              "positive number, got ")
        assert "Traceback" not in err
        assert not (out / "psi.fld").exists()

    @pytest.mark.parametrize("algorithm", ["power_policy", "power_fixed"])
    def test_one_operator_per_synthesize(self, tmp_path, monkeypatch, algorithm):
        # The step keys come from the synthesis's own operator; writing them
        # builds nothing more.
        real, builds = semigroup._Operator.__init__, []

        def counted(self, *args, **kwargs):
            builds.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(semigroup._Operator, "__init__", counted)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"iteration.max_iter = 3\niteration.algorithm = {algorithm}\n")
        out = tmp_path / "out"
        assert run("synthesize", "--config", str(cfg), "--system", "di_omni",
                   "--grid", "11,21", "--out", str(out)) in (0, 2)
        assert len(builds) == 1
        assert read_meta(out / "metadata.txt")["result.candidates"] == (
            "2" if algorithm == "power_policy" else "0")

    def test_rerun_from_metadata_bit_exact(self, tmp_path, brownian_artifacts):
        out2 = tmp_path / "again"
        code = run("synthesize", "--config", str(brownian_artifacts / "metadata.txt"),
                   "--out", str(out2))
        assert code == 0
        for name in ("psi.fld", "policy_0.fld"):
            assert (out2 / name).read_bytes() == (brownian_artifacts / name).read_bytes()

    def test_di_omni_small_grid(self, tmp_path):
        out = tmp_path / "di"
        code = run("synthesize", "--system", "di_omni", "--grid", "41,81",
                   "--out", str(out))
        assert code == 0
        gamma = float(read_meta(out / "metadata.txt")["result.gamma"])
        assert abs(gamma - 1.2424) / 1.2424 < 0.10

    def test_coarse_ladder_warm_start(self, tmp_path):
        out = tmp_path / "ladder"
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text("system.id = brownian_1d\niteration.coarse_ladder = 1\n")
        assert run("synthesize", "--config", str(cfg), "--out", str(out)) == 0
        gamma = float(read_meta(out / "metadata.txt")["result.gamma"])
        assert abs(gamma - math.pi**2 / 8.0) / (math.pi**2 / 8.0) < 0.02

    def test_warm_start_from_file(self, tmp_path, brownian_artifacts):
        out = tmp_path / "warm"
        cfg = tmp_path / "warm.cfg"
        cfg.write_text("system.id = brownian_1d\n"
                       f"iteration.warm_start = {brownian_artifacts / 'psi.fld'}\n")
        assert run("synthesize", "--config", str(cfg), "--out", str(out)) == 0
        meta = read_meta(out / "metadata.txt")
        assert int(meta["result.iterations"]) <= 2  # warm start converges at once

    def test_threads_env_fallback(self, tmp_path, brownian_artifacts, monkeypatch):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n"
                       "simulation.trials = 200\nsimulation.t_end = 0.1\n")
        monkeypatch.setenv("SCBF_THREADS", "2")
        out_env = tmp_path / "env"
        assert run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(out_env)) == 0
        monkeypatch.delenv("SCBF_THREADS")
        out_plain = tmp_path / "plain"
        assert run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(out_plain)) == 0
        assert (out_env / "curve.csv").read_bytes() == (out_plain / "curve.csv").read_bytes()

    def test_not_converged_exit_2(self, tmp_path):
        out = tmp_path / "nc"
        cfg = tmp_path / "nc.cfg"
        cfg.write_text("system.id = brownian_1d\niteration.max_iter = 1\n"
                       "iteration.tol = 1e-12\niteration.init = plateau\n")
        code = run("synthesize", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert (out / "psi.fld").exists()  # files still written


class TestSimulate:
    def test_fixed_policy_run(self, tmp_path, brownian_artifacts):
        out = tmp_path / "sim"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n"
                       "simulation.trials = 300\nsimulation.t_end = 0.5\n")
        code = run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(out))
        assert code == 0
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0].split(",") == ["t", "alive", "survival", "wilson_low",
                                       "wilson_high", "bound"]
        assert (out / "trajectory.csv").exists()

    def test_missing_psi_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n")
        code = run("simulate", "--config", str(cfg),
                   "--artifacts", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o"))
        assert code == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_1(self, tmp_path, capsys, brownian_artifacts, seed):
        # -1 used to run with the stream of seed 0 (a masked key cast to 0);
        # the flag is read by the key's caster.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), f"--seed={seed}",
                   "--artifacts", str(brownian_artifacts), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: key 'simulation.seed': expected an integer in [0, 2**64), got '{seed}'\n")
        assert not out.exists()

    def test_reproducible_and_thread_invariant(self, tmp_path, brownian_artifacts):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n"
                       "simulation.trials = 300\nsimulation.t_end = 0.2\n")
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            code = run("simulate", "--config", str(cfg), "--threads", threads,
                       "--artifacts", str(brownian_artifacts), "--out", str(out))
            assert code == 0
            outs.append((out / "curve.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_filter_status_fractions(self, tmp_path, di_artifacts, monkeypatch):
        # scbf_qp: the fraction of the estimate's trial-steps per filter
        # status, from integer counts summed over chunks, so threads 1 and
        # 3 (over 3 chunks) write the same lines and the same curve.
        monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", 100)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = di_omni\ngrid.counts = 21,41\nsimulation.x0 = 0.0,0.0\n"
                       "simulation.trials = 300\nsimulation.t_end = 0.3\n"
                       "simulation.controller = scbf_qp\nsimulation.reference = constant\n"
                       "simulation.reference_u = 0.8\n")
        metas, curves = [], []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            assert run("simulate", "--config", str(cfg), "--threads", threads,
                       "--artifacts", str(di_artifacts), "--out", str(out)) == 0
            metas.append(read_meta(out / "sim_metadata.txt"))
            curves.append((out / "curve.csv").read_bytes())
        keys = [f"result.filter.{s.value}_fraction" for s in FilterStatus]
        fractions = [float(metas[0][k]) for k in keys]
        assert [metas[1][k] for k in keys] == [metas[0][k] for k in keys]
        assert curves[0] == curves[1]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-12)
        assert fractions[0] > 0 and fractions[1] > 0   # unmodified and modified

    @pytest.mark.parametrize("lines, x0, threads, chunk", [
        (["simulation.controller = fixed_policy"], "0.6,1.2", "1", None),
        (["simulation.controller = scbf_qp"], "0.6,1.2", "1", None),
        (["simulation.controller = open_loop", "simulation.u_const = 0.3"], "0.6,1.2", "1", None),
        (["simulation.controller = open_loop", "simulation.u_const = 1.0"], "0.9,1.8", "1", None),
        (["simulation.controller = scbf_qp"], "0.6,1.2", "2", 16),
    ], ids=["fixed_policy", "scbf_qp", "open_loop", "killed", "two_threads_four_chunks"])
    def test_trajectory_is_the_estimates_trial_0(self, tmp_path, monkeypatch, di_artifacts,
                                                 lines, x0, threads, chunk):
        # trajectory.csv comes from the estimate's own trial 0, which is
        # stepped once; it equals the file of a lone simulate(trial=0).
        if chunk:
            monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", chunk)
        stepped = []
        live_steps = montecarlo._live_steps

        def recording(sys, cfg, start, trials):
            stepped.extend(trials)
            return live_steps(sys, cfg, start, trials)

        monkeypatch.setattr(montecarlo, "_live_steps", recording)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("\n".join(["system.id = di_omni", "grid.counts = 21,41",
                                  f"simulation.x0 = {x0}", "simulation.trials = 50",
                                  "simulation.t_end = 0.5", "simulation.seed = 7"] + lines) + "\n")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), "--threads", threads,
                   "--artifacts", str(di_artifacts), "--out", str(out)) == 0
        assert sorted(stepped) == list(range(50))

        sys_model = make_benchmark("di_omni", grid_counts=(21, 41))
        result = cli.load_result(di_artifacts, sys_model)
        kind = lines[0].split(" = ")[1]
        controller = {
            "fixed_policy": lambda: montecarlo.FixedPolicyController(result.policy),
            "scbf_qp": lambda: montecarlo.ScbfQpController(
                FilterSpec(sys_model, result), montecarlo.constant_reference([0.0])),
            "open_loop": lambda: montecarlo.OpenLoopController(
                np.array([float(lines[1].split(" = ")[1])])),
        }[kind]()
        sim = montecarlo.SimConfig(t_end=0.5, trials=50, seed=7, controller=controller)
        lone = montecarlo.simulate(sys_model, sim, np.array([float(v) for v in x0.split(",")]))
        montecarlo.write_trajectory_csv(lone, tmp_path / "lone.csv")
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "lone.csv").read_bytes()
        if x0 == "0.9,1.8":
            assert lone.killed and lone.alive.sum() < 100

    def test_runs_through_the_public_estimate(self, tmp_path, monkeypatch, di_artifacts):
        # scbf simulate takes its curve and trial 0's path from one call of
        # the public estimate_safety_curve, the name a tracer can wrap; the
        # wrapped run writes the same trajectory.csv.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = di_omni\ngrid.counts = 21,41\nsimulation.x0 = 0.6,1.2\n"
                       "simulation.trials = 30\nsimulation.t_end = 0.3\n")
        argv = ["simulate", "--config", str(cfg), "--artifacts", str(di_artifacts), "--out"]
        assert run(*argv, str(tmp_path / "plain")) == 0
        calls = []
        estimate = cli.estimate_safety_curve

        def counting(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_safety_curve", counting)
        assert run(*argv, str(tmp_path / "wrapped")) == 0
        assert len(calls) == 1
        assert ((tmp_path / "wrapped" / "trajectory.csv").read_bytes()
                == (tmp_path / "plain" / "trajectory.csv").read_bytes())

    def test_t_end_not_whole_steps_exit_1(self, tmp_path, capsys, brownian_artifacts):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n"
                       "simulation.t_end = 1.0\nsimulation.dt = 0.3\n")
        code = run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "not a whole number of steps" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["simulation.t_end = inf", "simulation.dt = nan",
                                       "simulation.dt = inf"])
    def test_non_finite_step_exit_1(self, tmp_path, capsys, brownian_artifacts, entry):
        # t_end = inf ended in an OverflowError traceback, dt = nan in
        # "cannot convert float NaN to integer".
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"system.id = brownian_1d\nsimulation.x0 = 0.0\n{entry}\n")
        code = run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        key = entry.split(" = ")[0]
        assert err.startswith(f"error: {cfg}:3: key {key!r}: expected a finite positive "
                              "number, got "), err
        assert "Traceback" not in err

    def test_filter_gamma_below_synthesized_exit_1(self, tmp_path, brownian_artifacts):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n"
                       "simulation.trials = 10\nsimulation.t_end = 0.1\n"
                       "simulation.controller = scbf_qp\nfilter.gamma = 0.01\n")
        code = run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(tmp_path / "o"))
        assert code == 1


class TestControllers:
    """Every ``simulation.controller`` and ``simulation.reference`` a job can
    name runs; a job that names another, or lacks what its choice needs,
    exits 1 with the reason."""

    BASE = ["simulation.trials = 20", "simulation.t_end = 0.1"]

    @pytest.mark.parametrize("lines, filtered", [
        (["simulation.controller = open_loop", "simulation.u_const = 0.5"], False),
        (["simulation.controller = scbf_qp"], True),   # the default zero reference
    ], ids=["open_loop", "scbf_qp_zero"])
    def test_runs(self, tmp_path, di_artifacts, lines, filtered):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("\n".join(["system.id = di_omni", "grid.counts = 21,41",
                                  "simulation.x0 = 0.0,0.0"] + self.BASE + lines) + "\n")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), "--artifacts", str(di_artifacts),
                   "--out", str(out)) == 0
        meta = read_meta(out / "sim_metadata.txt")
        assert ("result.filter.unmodified_fraction" in meta) == filtered
        rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
        assert rows[0][3] == "u1"
        if not filtered:   # the constant input at every step (the last row takes none)
            assert {row[3] for row in rows[1:-1]} == {"0.5"}

    def test_circle_on_bicycle(self, tmp_path):
        artifacts = tmp_path / "bike"
        assert run("synthesize", "--system", "bicycle", "--grid", "7,7,6,5",
                   "--out", str(artifacts)) in (0, 2)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("\n".join(["system.id = bicycle", "grid.counts = 7,7,6,5",
                                  "simulation.x0 = 2.0,0.0,1.5,0.5",
                                  "simulation.controller = scbf_qp",
                                  "simulation.reference = circle"] + self.BASE) + "\n")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), "--artifacts", str(artifacts),
                   "--out", str(out)) == 0
        meta = read_meta(out / "sim_metadata.txt")
        assert meta["simulation.reference"] == "circle"
        assert "result.filter.unmodified_fraction" in meta

    # An unknown controller, reference or algorithm is a TestLocatedValues
    # case: its caster rejects it where the config is read.
    @pytest.mark.parametrize("command, lines, message", [
        ("simulate", ["simulation.controller = open_loop"],
         "open_loop controller needs 'simulation.u_const'"),
        ("simulate", ["simulation.controller = scbf_qp", "simulation.reference = constant"],
         "constant reference needs 'simulation.reference_u'"),
    ], ids=["open_loop_without_input", "constant_without_input"])
    def test_rejected(self, tmp_path, capsys, brownian_artifacts, command, lines, message):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("\n".join(["system.id = brownian_1d", "simulation.x0 = 0.0"] + lines)
                       + "\n")
        extra = ["--artifacts", str(brownian_artifacts)] if command == "simulate" else []
        out = tmp_path / "o"
        assert run(command, "--config", str(cfg), *extra, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestMissingInputs:
    """A missing key, file or flag target exits 1 and names what is missing."""

    def test_missing_x0(self, tmp_path, capsys, brownian_artifacts):
        out = tmp_path / "o"
        assert run("simulate", "--system", "brownian_1d", "--artifacts",
                   str(brownian_artifacts), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: missing required key 'simulation.x0'\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "nowhere.cfg"
        assert run("synthesize", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: config file not found: {cfg}\n"

    def test_missing_query_file(self, tmp_path, capsys, brownian_artifacts):
        queries = tmp_path / "q.csv"
        answers = tmp_path / "a.csv"
        assert run("filter", "--system", "brownian_1d", "--artifacts", str(brownian_artifacts),
                   "--queries", str(queries), "--output", str(answers)) == 1
        assert capsys.readouterr().err == f"error: query file not found: {queries}\n"
        assert not answers.exists()

    @pytest.mark.parametrize("target", ["config", "warm_start", "queries"])
    def test_directory_for_a_file(self, tmp_path, capsys, brownian_artifacts, target):
        # Reading a directory raises IsADirectoryError, an OSError but not a
        # FileNotFoundError: it used to end in a traceback.
        folder = tmp_path / "folder"
        folder.mkdir()
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"system.id = brownian_1d\niteration.warm_start = {folder}\n")
        out = tmp_path / "out"
        argv = {"config": ["synthesize", "--config", str(folder), "--out", str(out)],
                "warm_start": ["synthesize", "--config", str(cfg), "--out", str(out)],
                "queries": ["filter", "--system", "brownian_1d", "--artifacts",
                            str(brownian_artifacts), "--queries", str(folder),
                            "--output", str(out)]}[target]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(folder) in err
        if target == "warm_start":
            assert err.startswith(f"error: {cfg}:2: config key 'iteration.warm_start': ")
        assert not out.exists()

    @pytest.mark.parametrize("body, detail", [
        (None, "cannot read {fld}: No such file or directory"),
        ("dims 1\n0 1 x 0\n", "{fld}:2: invalid literal for int() with base 10: 'x'"),
        ("dims 2\n0 1 3 0\n0 1 3 0\n" + "0\n" * 9,
         "a 2-dimensional field cannot start a 1-dimensional system"),
    ], ids=["missing", "malformed", "other_dimension"])
    def test_unreadable_warm_start(self, tmp_path, capsys, body, detail):
        # The key and its file:line come first, then what is wrong with the file.
        fld = tmp_path / "coarse.fld"
        if body is not None:
            fld.write_text(body)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"system.id = brownian_1d\n# a comment\niteration.warm_start = {fld}\n")
        out = tmp_path / "out"
        assert run("synthesize", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: {cfg}:3: config key 'iteration.warm_start': "
                                           f"{detail.format(fld=fld)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, message", [
        ("psi.fld", "missing barrier field file: {dir}/psi.fld"),
        ("policy_0.fld", "missing policy field file: {dir}/policy_0.fld"),
    ])
    def test_missing_artifact_file(self, tmp_path, capsys, brownian_artifacts, name, message):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        (bad / name).unlink()
        assert run("verify", "--system", "brownian_1d", "--artifacts", str(bad)) == 1
        assert capsys.readouterr().err == f"error: {message.format(dir=bad)}\n"

    def test_no_policy_files_recorded(self, tmp_path, capsys, brownian_artifacts):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        meta = bad / "metadata.txt"
        lines = meta.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("result.policy_files ="))
        lines[at] = "result.policy_files = "
        meta.write_text("\n".join(lines) + "\n")
        assert run("verify", "--system", "brownian_1d", "--artifacts", str(bad)) == 1
        assert capsys.readouterr().err == f"error: {meta}:{at + 1}: no policy files recorded\n"


class TestVectorKeyLengths:
    BASE = {"system.id": "di_omni", "grid.counts": "21,41", "simulation.x0": "0.0,0.0",
            "simulation.trials": "10", "simulation.t_end": "0.1"}

    @pytest.mark.parametrize("key, value, extra, expected", [
        ("simulation.x0", "0.3", {}, "has length 1, expected 2 (n_x)"),
        ("simulation.x0", "0.3,0,0", {}, "has length 3, expected 2 (n_x)"),
        ("simulation.u_const", "0.1,0.2", {"simulation.controller": "open_loop"},
         "has length 2, expected 1 (n_u)"),
        ("simulation.reference_u", "0.1,0.2",
         {"simulation.controller": "scbf_qp", "simulation.reference": "constant"},
         "has length 2, expected 1 (n_u)"),
        ("filter.weight", "1,2", {"simulation.controller": "scbf_qp"},
         "has length 2, expected 1 (n_u)"),
        ("grid.counts", "11", {}, "has length 1, expected 2 (one per dimension of di_omni)"),
    ])
    def test_config_file_names_key_and_line(self, tmp_path, capsys, di_artifacts,
                                            key, value, extra, expected):
        entries = {k: v for k, v in {**self.BASE, **extra}.items() if k != key}
        lines = [f"{k} = {v}" for k, v in entries.items()] + [f"{key} = {value}"]
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code = run("simulate", "--config", str(cfg), "--artifacts", str(di_artifacts),
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{cfg}:{len(lines)}: config key {key!r} {expected}" in err
        assert "Traceback" not in err

    def test_flag_names_key(self, tmp_path, capsys):
        code = run("synthesize", "--system", "di_omni", "--grid", "11",
                   "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config key 'grid.counts' has length 1, expected 2")


class TestVerify:
    def test_good_artifacts_pass(self, brownian_artifacts, capsys):
        code = run("verify", "--system", "brownian_1d",
                   "--artifacts", str(brownian_artifacts))
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_corrupted_psi_fails_positivity(self, tmp_path, brownian_artifacts, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("psi.fld", "policy_0.fld", "metadata.txt"):
            (bad / name).write_bytes((brownian_artifacts / name).read_bytes())
        psi = read_field(bad / "psi.fld")
        vals = psi.values.copy()
        vals[vals.size // 3] = -0.05
        write_field(ScalarField(psi.spec, vals), bad / "psi.fld")
        code = run("verify", "--system", "brownian_1d", "--artifacts", str(bad))
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL positivity" in out


def _copy_artifacts(src, dst):
    dst.mkdir()
    for name in ("psi.fld", "policy_0.fld", "metadata.txt"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


class TestMalformedField:
    """``verify`` on a broken ``psi.fld`` exits 1 with a file:line message."""

    @pytest.mark.parametrize("mangle, line, phrase", [
        (lambda lines: lines[:1] + ["-1.0 1.0"], 2, "malformed header line"),
        (lambda lines: lines[:1], 1, "header ends after 0 of 1 dimension lines"),
        (lambda lines: lines[:7] + ["0.5x"] + lines[8:], 8, "not a number: '0.5x'"),
        (lambda lines: lines[:-3], None, "file ends after 198 of the 201 values"),
        (lambda lines: lines + ["0.0"], None, "more than the 201 values"),
        (lambda lines: lines[:5] + ["nan"] + lines[6:], 6, "non-finite value 'nan'"),
        (lambda lines: ["dims two"] + lines[1:], 1, "is not an integer"),
        (lambda lines: lines[:1] + ["1.0 -1.0 201 0"] + lines[2:], 2, "degenerate extent"),
    ], ids=["short_axis_line", "truncated_header", "bad_float", "too_few_values",
            "too_many_values", "non_finite", "bad_dims", "degenerate_axis"])
    def test_verify_names_file_and_line(self, tmp_path, brownian_artifacts, capsys,
                                        mangle, line, phrase):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        psi = bad / "psi.fld"
        lines = psi.read_text().splitlines()
        mangled = mangle(lines)
        psi.write_text("\n".join(mangled) + "\n")
        code = run("verify", "--system", "brownian_1d", "--artifacts", str(bad))
        err = capsys.readouterr().err
        assert code == 1
        where = f"{psi}:{len(mangled) if line is None else line}: "
        assert where in err and phrase in err, err
        assert "Traceback" not in err


class TestArtifactReaders:
    """A broken ``metadata.txt`` or ``curve.csv`` ends in exit 1 with a
    ``file:line`` message, never a traceback."""

    @pytest.mark.parametrize("mangle, phrase", [
        (lambda lines, at: (lines[:at] + lines[at + 1:], len(lines) - 1),
         "file ends without key 'result.gamma'"),
        (lambda lines, at: (lines[:at] + ["result.gamma = abc"] + lines[at + 1:], at + 1),
         "expected a finite number, got 'abc'"),
        (lambda lines, at: (lines[:at] + ["result.gamma = nan"] + lines[at + 1:], at + 1),
         "expected a finite number, got 'nan'"),
    ], ids=["missing_gamma", "gamma_not_a_number", "gamma_not_finite"])
    def test_load_result(self, tmp_path, brownian_artifacts, capsys, mangle, phrase):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        meta = bad / "metadata.txt"
        lines = meta.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("result.gamma ="))
        mangled, line = mangle(lines, at)
        meta.write_text("\n".join(mangled) + "\n")
        code = run("verify", "--system", "brownian_1d", "--artifacts", str(bad))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{meta}:{line}: " in err and phrase in err, err
        assert "Traceback" not in err

    def test_policy_channel_count(self, tmp_path, brownian_artifacts, capsys):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        meta = bad / "metadata.txt"
        lines = meta.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("result.policy_files ="))
        lines[at] = "result.policy_files = policy_0.fld,psi.fld"
        meta.write_text("\n".join(lines) + "\n")
        code = run("verify", "--system", "brownian_1d", "--artifacts", str(bad))
        err = capsys.readouterr().err
        assert code == 1
        assert (f"{meta}:{at + 1}: 2 policy files give a policy of shape (201, 2), "
                "expected (201, 1)") in err, err

    def test_policy_on_other_grid(self, tmp_path, brownian_artifacts, capsys):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        psi = read_field(bad / "psi.fld")
        other = GridSpec(psi.spec.lower, psi.spec.upper, 101)
        write_field(ScalarField(other, np.zeros(other.size)), bad / "policy_0.fld")
        meta = bad / "metadata.txt"
        line = next(i for i, l in enumerate(meta.read_text().splitlines(), start=1)
                    if l.startswith("result.policy_files ="))
        code = run("verify", "--system", "brownian_1d", "--artifacts", str(bad))
        err = capsys.readouterr().err
        assert code == 1
        assert (f"{meta}:{line}: policy file 'policy_0.fld' is on a grid of shape (101,), "
                "expected the grid of psi.fld, shape (201,)") in err, err

    @pytest.mark.parametrize("command", ["verify", "simulate", "filter"])
    def test_artifacts_on_other_grid(self, tmp_path, brownian_artifacts, capsys, command):
        # Every reader of stored artifacts checks the grid in load_result;
        # verify used to end in an IndexError on the kill mask.
        extra = (["--queries", str(tmp_path / "q.csv"), "--output", str(tmp_path / "o.csv")]
                 if command == "filter" else [])
        code = run(command, "--system", "brownian_1d", "--grid", "41",
                   "--artifacts", str(brownian_artifacts), *extra)
        err = capsys.readouterr().err
        assert code == 1
        assert (f"{brownian_artifacts / 'psi.fld'}: barrier field is on a grid of shape "
                "(201,), expected the configured grid of brownian_1d, shape (41,)") in err, err
        assert "Traceback" not in err

    def test_repeated_gamma(self, tmp_path, brownian_artifacts, capsys):
        bad = _copy_artifacts(brownian_artifacts, tmp_path / "bad")
        meta = bad / "metadata.txt"
        lines = meta.read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("result.gamma ="))
        meta.write_text("\n".join(lines[:at + 1] + ["result.gamma = 1.0"] + lines[at + 1:]) + "\n")
        code = run("verify", "--system", "brownian_1d", "--artifacts", str(bad))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{meta}:{at + 2}: key 'result.gamma' repeats line {at + 1}" in err, err

    def test_repeated_history(self, tmp_path, brownian_artifacts, capsys):
        meta = tmp_path / "metadata.txt"
        lines = (brownian_artifacts / "metadata.txt").read_text().splitlines()
        own = next(i for i, l in enumerate(lines, start=1) if l.startswith("history.1 ="))
        meta.write_text("\n".join(lines[:3] + ["history.1 = 1 2"] + lines[3:]) + "\n")
        code = run("export-plot", "--artifacts", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{meta}:{own + 1}: key 'history.1' repeats line 4" in err, err

    def test_empty_curve(self, tmp_path, capsys):
        (tmp_path / "curve.csv").write_text("")
        code = run("export-plot", "--artifacts", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{tmp_path / 'curve.csv'}:1: empty file" in err, err

    # iteration numbers the file does not hold, so only the value is at fault
    @pytest.mark.parametrize("entry", ["history.x = 1 2", "history.900001 = 1",
                                       "history.900001 = 1 2 3",
                                       "history.900002 = 1e-3 abc"])
    def test_bad_history_line(self, tmp_path, brownian_artifacts, capsys, entry):
        meta = tmp_path / "metadata.txt"
        lines = (brownian_artifacts / "metadata.txt").read_text().splitlines()
        meta.write_text("\n".join(lines[:3] + [entry] + lines[3:]) + "\n")
        code = run("export-plot", "--artifacts", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{meta}:4: expected 'history.<iteration> = <residual> <gamma>'" in err, err


class TestFilterCommand:
    def test_query_csv(self, tmp_path, brownian_artifacts):
        queries = tmp_path / "q.csv"
        queries.write_text("t,x1,u1\n0.0,0.0,0.0\n0.5,0.5,0.0\n")
        out = tmp_path / "answers.csv"
        code = run("filter", "--system", "brownian_1d",
                   "--artifacts", str(brownian_artifacts),
                   "--queries", str(queries), "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u1,status"
        assert len(lines) == 3
        assert lines[1].endswith(("unmodified", "modified", "backup", "infeasible_fallback"))

    # A first line with a number in it is a row, also when it starts with
    # a letter: it used to be skipped as a header.
    @pytest.mark.parametrize("first, answers", [
        ("nan,0.0,0.0", 2), ("inf,0.0,0.0", 2), ("t,x1,u1", 1)])
    def test_header_holds_no_number(self, tmp_path, brownian_artifacts, first, answers):
        queries = tmp_path / "q.csv"
        queries.write_text(f"{first}\n0.5,0.5,0.0\n")
        out = tmp_path / "answers.csv"
        assert run("filter", "--system", "brownian_1d",
                   "--artifacts", str(brownian_artifacts),
                   "--queries", str(queries), "--output", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + answers

    def test_one_batch_call_per_file(self, tmp_path, di_artifacts, monkeypatch):
        calls = []
        batch = cli.filter_input_batch
        monkeypatch.setattr(cli, "filter_input_batch",
                            lambda *a: calls.append(len(a[1])) or batch(*a))
        rng = np.random.default_rng(5)
        X = rng.uniform(-0.95, 0.95, (40, 2)) * [1.0, 2.0]
        R = rng.uniform(-1.5, 1.5, 40)
        queries = tmp_path / "q.csv"
        queries.write_text("t,x1,x2,u1\n" + "".join(
            f"0.0,{x[0]!r},{x[1]!r},{r!r}\n" for x, r in zip(X.tolist(), R.tolist())))
        out = tmp_path / "answers.csv"
        assert run("filter", "--system", "di_omni", "--grid", "21,41",
                   "--artifacts", str(di_artifacts), "--queries", str(queries),
                   "--output", str(out)) == 0
        assert calls == [40]
        sys_model = make_benchmark("di_omni", grid_counts=(21, 41))
        spec = FilterSpec(sys_model, cli.load_result(di_artifacts, sys_model))
        expected = ["u1,status"]
        for x, r in zip(X, R):
            u, status = filter_input(spec, x, np.array([r]))
            expected.append(f"{float(u[0])!r},{status.value}")
        assert out.read_text().splitlines() == expected

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exit_1(self, tmp_path, brownian_artifacts, capsys, gamma):
        # Either used to answer every query unmodified and exit 0.
        queries = tmp_path / "q.csv"
        queries.write_text("t,x1,u1\n0.0,0.0,0.0\n")
        out = tmp_path / "answers.csv"
        code = run("filter", "--system", "brownian_1d", "--gamma", gamma,
                   "--artifacts", str(brownian_artifacts),
                   "--queries", str(queries), "--output", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: key 'filter.gamma': expected a finite number, got {gamma!r}\n")
        assert not out.exists()

    def test_bad_column_count(self, tmp_path, brownian_artifacts, capsys):
        queries = tmp_path / "q.csv"
        queries.write_text("0.0,0.0\n")
        code = run("filter", "--system", "brownian_1d",
                   "--artifacts", str(brownian_artifacts),
                   "--queries", str(queries), "--output", str(tmp_path / "a.csv"))
        assert code == 1

    @pytest.mark.parametrize("row, phrase", [
        ("0.0,abc,0.0", "could not convert string to float: 'abc'"),
        ("0.0,0.0,nan", "reference input must be finite"),
        ("0.0,3.0,0.0", "outside"),
    ], ids=["not_a_number", "non_finite_input", "outside_state"])
    def test_bad_row_names_line(self, tmp_path, brownian_artifacts, capsys, row, phrase):
        queries = tmp_path / "q.csv"
        queries.write_text(f"t,x1,u1\n0.0,0.0,0.0\n\n{row}\n")
        code = run("filter", "--system", "brownian_1d",
                   "--artifacts", str(brownian_artifacts),
                   "--queries", str(queries), "--output", str(tmp_path / "a.csv"))
        err = capsys.readouterr().err
        assert code == 1
        assert f"{queries}:4: " in err and phrase in err, err


class TestExportPlot:
    def test_emits_gnuplot_files(self, tmp_path, brownian_artifacts):
        sim_out = tmp_path / "sim"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("system.id = brownian_1d\nsimulation.x0 = 0.0\n"
                       "simulation.trials = 100\nsimulation.t_end = 0.2\n")
        assert run("simulate", "--config", str(cfg),
                   "--artifacts", str(brownian_artifacts), "--out", str(sim_out)) == 0
        # copy synthesis metadata so the convergence plot is exported too
        (sim_out / "metadata.txt").write_bytes(
            (brownian_artifacts / "metadata.txt").read_bytes())
        plot_out = tmp_path / "plots"
        assert run("export-plot", "--artifacts", str(sim_out), "--out", str(plot_out)) == 0
        assert (plot_out / "curve.dat").exists()
        assert (plot_out / "curve.gp").exists()
        assert (plot_out / "convergence.dat").exists()

    def test_nothing_to_export(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("export-plot", "--artifacts", str(empty)) == 1


# --- fuzzing the three readers ----------------------------------------------------

# Characters a mangled line may hold: anything but line breaks (which would
# make it several lines) and surrogates (which cannot be written).
_JUNK = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _parses(text, caster=float):
    try:
        caster(text)
        return True
    except ValueError:
        return False


def _run_mangled(path, lines, argv):
    """Write ``lines`` (str or bytes) to ``path``, run the CLI, return
    (exit code, stderr)."""
    path.write_bytes(b"\n".join(l if isinstance(l, bytes) else l.encode() for l in lines) + b"\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_names_line(code, err, path, line):
    assert code == 1, err
    assert f"{path}:{line}: " in err, err
    assert "Traceback" not in err


_TYPED = sorted(k for k, (t, _, _) in _KEYS.items() if t is not str)
_VECTORS = sorted(k for k, (t, _, _) in _KEYS.items() if t in (cli._ints, cli._floats))
# keys the fuzzed config does not already hold
_FREE_KEYS = sorted(set(_KEYS) - {"system.id", "iteration.tol", "iteration.max_iter"}) + [
    "system.overrides.sigma", "result.gamma"]


@st.composite
def _bad_config_line(draw):
    """Lines whose last one is the first the config reader must reject."""
    kind = draw(st.sampled_from(["no_equals", "unknown_key", "bad_value", "bad_override",
                                 "repeated_key", "bad_element"]))
    junk = draw(_JUNK)
    if kind == "no_equals":
        assume("=" not in junk.split("#", 1)[0] and junk.split("#", 1)[0].strip())
        return [junk]
    if kind == "unknown_key":
        key = junk.replace("=", "").replace("#", "").strip()
        assume(key and key not in _KEYS
               and not key.startswith(("result.", "history.", "system.overrides.")))
        return [f"{key} = 1"]
    if kind == "repeated_key":
        key = draw(st.sampled_from(_FREE_KEYS))
        # a value the key reads: its default, else 1 (candidate_points reads
        # no 1)
        default = _KEYS.get(key, (None, None))[1]
        value = "1" if default is None else str(default)
        return [f"{key} = {value}", f"{key} = {value}"]
    value = junk.replace("#", "")
    if kind == "bad_override":
        assume(not _parses(value.strip()))
        return [f"system.overrides.sigma = {value}"]
    if kind == "bad_element":
        key = draw(st.sampled_from(_VECTORS))
        element = value.replace(",", "").strip()
        assume(element and not _parses(element, int if key == "grid.counts" else float))
        return [f"{key} = 1,{element},2"]
    key = draw(st.sampled_from(_TYPED))
    assume(not _parses(value.strip(), _KEYS[key][0]))
    return [f"{key} = {value}"]


@st.composite
def _bad_query_row(draw):
    kind = draw(st.sampled_from(["junk_field", "columns", "non_finite", "outside", "bytes"]))
    if kind == "junk_field":
        junk = draw(_JUNK)
        assume(not _parses(junk))
        fields = ["0.0", "0.1", "0.0"]
        fields[draw(st.integers(0, 2))] = junk
        return ",".join(fields)
    if kind == "columns":
        return ",".join(["0.0"] * draw(st.sampled_from([1, 2, 4, 5])))
    if kind == "non_finite":
        return "0.0,0.1," + draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]))
    if kind == "outside":
        x = draw(st.floats(1.0, 1e6, exclude_min=True)) * draw(st.sampled_from([-1, 1]))
        return f"0.0,{x!r},0.0"
    # no b"\n": a line break would split the row into two lines
    junk = st.binary(min_size=1, max_size=4).filter(lambda b: b"\n" not in b and _not_utf8(b))
    return b"0.0," + draw(junk) + b",0.0"


def _not_utf8(data):
    try:
        data.decode("utf-8")
        return False
    except UnicodeDecodeError:
        return True


class TestReaderFuzz:
    """A mangled line in a config, a query CSV or a ``.fld`` file ends in
    exit 1 with a ``file:line`` message, never a traceback."""

    @_FUZZ
    @given(bad=_bad_config_line(), at=st.integers(0, 3))
    def test_config(self, tmp_path, bad, at):
        lines = ["system.id = brownian_1d", "iteration.tol = 1e-4",
                 "# a comment", "iteration.max_iter = 5"]
        lines[at:at] = bad
        path = tmp_path / "job.cfg"
        code, err = _run_mangled(path, lines, ["synthesize", "--config", str(path),
                                               "--out", str(tmp_path / "out")])
        _assert_names_line(code, err, path, at + len(bad))

    @_FUZZ
    @given(row=_bad_query_row(), at=st.integers(0, 3))
    def test_query_csv(self, tmp_path, brownian_artifacts, row, at):
        lines = ["t,x1,u1", "0.0,0.0,0.0", "0.0,0.5,0.0", "", "0.5,-0.5,0.0"]
        lines.insert(1 + at, row)
        path = tmp_path / "q.csv"
        code, err = _run_mangled(path, lines, [
            "filter", "--system", "brownian_1d", "--artifacts", str(brownian_artifacts),
            "--queries", str(path), "--output", str(tmp_path / "a.csv")])
        _assert_names_line(code, err, path, at + 2)

    @_FUZZ
    @given(kind=st.sampled_from(["value", "axis", "dims", "drop", "extra"]),
           junk=_JUNK, at=st.integers(2, 200))
    def test_field(self, tmp_path_factory, brownian_artifacts, kind, junk, at):
        bad = tmp_path_factory.mktemp("fld")
        for name in ("psi.fld", "policy_0.fld", "metadata.txt"):
            (bad / name).write_bytes((brownian_artifacts / name).read_bytes())
        psi = bad / "psi.fld"
        lines = psi.read_text().splitlines()   # dims, one axis line, 201 values
        if kind == "value":
            assume(junk and (not _parses(junk) or not math.isfinite(float(junk))))
            lines[at] = junk
            line = at + 1
        elif kind == "axis":
            assume(len(junk.split()) != 4)
            lines[1], line = junk, 2
        elif kind == "dims":
            assume(junk.split()[:1] != ["dims"])
            lines[0], line = junk, 1
        elif kind == "drop":
            del lines[at]
            line = len(lines)
        else:
            lines.insert(at, "0.5")
            line = len(lines)
        code, err = _run_mangled(psi, lines, ["verify", "--system", "brownian_1d",
                                              "--artifacts", str(bad)])
        _assert_names_line(code, err, psi, line)
