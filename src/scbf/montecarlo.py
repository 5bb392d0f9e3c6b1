"""Euler-Maruyama simulation of the killed closed loop and survival statistics.

Each trial integrates ``x <- x + f dt + sigma sqrt(dt) xi`` with standard
normal draws per noise channel, killing (flagging and freezing) the
trajectory at the first step whose state exits the safe set.  Exit testing
happens at discrete steps only; sub-step crossings are ignored.  That
biases survival upward by an amount of order sqrt(dt), which is not below
Monte Carlo noise at the default ``dt = 1e-3``: on ``brownian_1d``
(x0 = 0, t = 1, 10,000 trials) it measures +0.0176 against a 95% Wilson
half-width of 0.0095 (see the README's "Scope of the guarantee").

Reproducibility contract: trial ``i`` draws its normals from its own
counter-based Philox stream keyed by the two 64-bit words ``(seed, i)``, in
step order, a block of steps at a time and only while the trial is alive.
Consecutive draws from one stream equal one draw of the whole horizon, so a
trial's path does not depend on the block length, on which other trials
share its batch, on the chunking, or on the thread count.  Survival is
aggregated as integer counts per time sample.

One loop steps every trial: each chunk of trials is stepped by one call
that allocates, once, its noise buffers (``_BLOCK_STEPS`` steps of every
live trial, drawn trial-major and copied step-major) and two step buffers
that take ``F dt`` and ``(S W) sqrt(dt)``.  The update
``x + F dt + (S W) sqrt(dt)`` is summed in that order, in place, into the
states the call owns; no array a model or controller callback returned is
written.  A killed trial's row is dropped and the others keep their
order, so a chunk's first trial is row 0 while it lives, and the chunk
records that trial's path there.  ``simulate`` is a one-trial chunk, and
``estimate_safety_curve`` returns the path of chunk 0, trial 0's, as
``SafetyCurve.trajectory``, bit for bit what ``simulate`` gives for trial
0; ``scbf simulate`` writes it to ``trajectory.csv`` without stepping
trial 0 a second time.

The survival curve carries Wilson confidence intervals and, when a barrier
is supplied, the probabilistic lower bound  psi(x0)/||psi|| * exp(-gamma t).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientData
from .grid import ScalarField, _blend_clamped, _corners, _index, interpolate, sup_norm
from .safety_filter import STATUS_BY_CODE, FilterSpec, filter_input_batch
from .semigroup import PolicyTable
from .systems import SystemModel

__all__ = [
    "FixedPolicyController",
    "ScbfQpController",
    "OpenLoopController",
    "SimConfig",
    "Trajectory",
    "SafetyCurve",
    "constant_reference",
    "bicycle_circle_reference",
    "simulate",
    "estimate_safety_curve",
    "fit_decay_rate",
    "wilson_interval",
    "write_trajectory_csv",
    "write_safety_curve_csv",
]

_Z = {0.95: 1.959963984540054, 0.99: 2.5758293035489004}

# Trials per chunk: large enough to amortize numpy call overhead per step,
# small enough to spread over threads.  The noise a chunk holds is one block
# of _BLOCK_STEPS steps per live trial.  Neither size can affect results
# (each trial owns an independent stream and aggregation is integer counts).
_CHUNK_TRIALS = 4096
_BLOCK_STEPS = 256
# Trials per tile when a noise block is copied step-major: the tile's rows
# of the trial-major block stay in cache while they are read.
_TILE_TRIALS = 64


def constant_reference(u):
    """Reference policy holding a constant input."""
    u = np.asarray(u, dtype=float).ravel()

    def ref(t, X):
        return np.tile(u, (np.atleast_2d(X).shape[0], 1))

    return ref


def bicycle_circle_reference(radius: float = 1.5, speed: float = 1.0,
                             phase: float = 0.0, lead: float = 0.5,
                             k_heading: float = 2.0, k_speed: float = 1.0):
    """Track a point moving counter-clockwise around a circle at fixed speed.

    The target advances at ``speed`` along the circle regardless of where
    the vehicle is (``lead`` seconds ahead of the nominal schedule), and
    the controller chases it: steer toward the target, regulate forward
    speed.  Deliberately not a safe policy: when the noise delays the
    vehicle, the chase vector cuts across the obstacle region.
    """
    omega = speed / radius

    def ref(t, X):
        X = np.atleast_2d(X)
        x, y, th, v = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
        ang = phase + omega * (t + lead)
        th_des = np.arctan2(radius * np.sin(ang) - y, radius * np.cos(ang) - x)
        dth = np.mod(th_des - th + np.pi, 2.0 * np.pi) - np.pi
        delta = np.clip(k_heading * dth, -1.0, 1.0)
        a = np.clip(k_speed * (speed - v), -1.0, 1.0)
        return np.stack([delta, a], axis=1)

    return ref


@dataclass(frozen=True)
class FixedPolicyController:
    policy: PolicyTable

    def inputs(self, sys, t, X):
        return _blend_clamped(self.policy.inputs, _corners(self.policy.spec, X),
                              sys.input_lower, sys.input_upper)


@dataclass(frozen=True)
class ScbfQpController:
    """The reference policy passed through the safety filter.

    ``status_counts[c]`` counts the rows (trial-steps, in a Monte Carlo run)
    the filter has answered with ``STATUS_BY_CODE[c]`` so far; chunks on
    other threads add to it under a lock, so the totals do not depend on
    the thread count.
    """

    spec: FilterSpec
    reference: callable
    status_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(len(STATUS_BY_CODE), dtype=np.int64),
        init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def inputs(self, sys, t, X):
        u_ref = self.reference(t, X)
        u, codes = filter_input_batch(self.spec, X, u_ref)
        counts = np.bincount(codes, minlength=len(STATUS_BY_CODE))
        with self._lock:
            self.status_counts[:] += counts
        return u


@dataclass(frozen=True)
class OpenLoopController:
    u: np.ndarray

    def inputs(self, sys, t, X):
        u = np.asarray(self.u, dtype=float).ravel()
        return np.tile(np.clip(u, sys.input_lower, sys.input_upper),
                       (np.atleast_2d(X).shape[0], 1))


@dataclass(frozen=True)
class SimConfig:
    """One simulation job: step size, horizon, trial count, seed, controller.

    ``seed`` is an integer in ``[0, 2**64)``, the first word of every
    trial's Philox key."""

    t_end: float
    trials: int
    seed: int
    controller: object
    dt: float = 1e-3

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(f"dt and t_end must be finite and positive, got dt {self.dt!r}, "
                             f"t_end {self.t_end!r}")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if _index(self.trials, "trials") < 1:
            raise ValueError("need at least one trial")
        if not 0 <= _index(self.seed, "seed") < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end {self.t_end!r} is not a whole number of steps "
                             f"of dt {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    alive: np.ndarray

    @property
    def killed(self) -> bool:
        return not bool(self.alive[-1])


@dataclass
class SafetyCurve:
    times: np.ndarray
    survival_fraction: np.ndarray
    wilson_low: np.ndarray
    wilson_high: np.ndarray
    trials: int
    alive_counts: np.ndarray
    theoretical_bound: np.ndarray | None = None
    trajectory: Trajectory | None = None


class _TrialKey(np.random.bit_generator.ISeedSequence):
    """The Philox key ``[seed, trial]`` word for word.  Given ``key=``, the
    Philox constructor still builds a ``SeedSequence`` from OS entropy and
    casts the key through a float, which rounds a word of 2**63 or more;
    this hands it the exact key and draws nothing."""

    def __init__(self, seed: int, trial: int):
        self.key = np.array([seed, trial], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial key is two 64-bit words")
        return self.key.copy()


def _step_major(block: np.ndarray, out: np.ndarray) -> None:
    """Copy a trial-major noise block ``(trials, steps, n_w)`` into ``out``,
    shaped ``(steps, trials, n_w)``.  A trial-step's ``n_w`` normals move as
    one element, a tile of ``_TILE_TRIALS`` trials at a time."""
    normals = np.dtype((np.void, block.itemsize * block.shape[2]))
    src, dst = block.view(normals)[..., 0], out.view(normals)[..., 0]
    for lo in range(0, len(src), _TILE_TRIALS):
        np.copyto(dst[:, lo:lo + _TILE_TRIALS], src[lo:lo + _TILE_TRIALS].T)


def _live_steps(sys, cfg, x0, trials):
    """Euler-Maruyama steps of a batch of trials that share ``x0``.

    Only live trials are stepped: states are kept compact and a killed
    trial's row is dropped, so the rows keep their trial order.  Noise is
    drawn from each trial's own stream in blocks of ``_BLOCK_STEPS`` steps
    into a trial-major buffer and copied into a step-major one, both
    allocated once per call; a death compacts an index into the buffer, not
    the buffer, and a step gathers its live rows (``np.take``) into a third
    buffer the call owns, with ``mode="clip"``: the slots come from
    ``np.flatnonzero`` and are always in range, and the default mode
    buffers the output.  ``X + F dt + (S W) sqrt(dt)`` is summed in that
    order into the states, with ``F dt`` and ``(S W) sqrt(dt)`` in two step
    buffers the call owns, so no array a callback returned is written.  Yields, for
    step ``k``, the inputs applied to and the new states of the trials alive
    before it, and which of them are still alive; stops when none is.  The
    next step updates the yielded states in place.
    """
    streams = [np.random.Generator(np.random.Philox(_TrialKey(cfg.seed, i)))
               for i in trials]
    live = np.arange(len(streams))
    X = np.tile(np.asarray(x0, dtype=float), (live.size, 1))
    dt, inputs = cfg.dt, cfg.controller.inputs
    root_dt = math.sqrt(dt)
    n = cfg.n_steps
    drawn, step_major = (np.empty(live.size * min(_BLOCK_STEPS, n) * sys.n_w) for _ in range(2))
    drift_step, noise_step = (np.empty(X.shape) for _ in range(2))
    live_noise = np.empty((live.size, sys.n_w))
    for k in range(n):
        j = k % _BLOCK_STEPS
        if j == 0:
            shape = (live.size, min(_BLOCK_STEPS, n - k), sys.n_w)
            block = drawn[:math.prod(shape)].reshape(shape)
            for row, i in enumerate(live):
                streams[i].standard_normal(out=block[row])
            noise = step_major[:block.size].reshape(shape[1], shape[0], shape[2])
            _step_major(block, noise)
            slots = None
        W = (noise[j] if slots is None
             else np.take(noise[j], slots, axis=0, out=live_noise[:slots.size], mode="clip"))
        U = inputs(sys, k * dt, X)
        F = sys.drift(X, U)
        S = sys.diffusion(X, U)
        Fdt, SW = drift_step[:len(X)], noise_step[:len(X)]
        np.multiply(F, dt, out=Fdt)
        np.einsum("bij,bj->bi", S, W, out=SW)
        SW *= root_dt
        X += Fdt
        X += SW
        still = sys.contains(X)
        yield U, X, still
        if not still.all():
            keep = np.flatnonzero(still)
            if keep.size == 0:
                return
            live = live[keep]
            slots = keep if slots is None else slots[keep]
            X = np.take(X, keep, axis=0)


def _start(sys: SystemModel, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.n_x:
        raise ValueError(f"x0 has {x0.size} entries, {sys.name} has {sys.n_x} states")
    if not bool(sys.contains(x0)[0]):
        raise ValueError("initial state is outside the safe set")
    return x0


def _curve_chunk(sys, cfg, x0, lo_trial, hi_trial):
    """Alive counts per time sample of trials ``[lo_trial, hi_trial)``, and
    the path of trial ``lo_trial``: that trial is row 0 for as long as it
    lives, since compaction keeps the row order."""
    n = cfg.n_steps
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = hi_trial - lo_trial
    path = Trajectory(np.arange(n + 1) * cfg.dt, np.empty((n + 1, sys.n_x)),
                      np.zeros((n + 1, sys.n_u)), np.ones(n + 1, dtype=bool))
    path.states[0] = x0
    recording = True
    for k, (U, X, still) in enumerate(_live_steps(sys, cfg, x0, range(lo_trial, hi_trial))):
        counts[k + 1] = np.count_nonzero(still)
        if recording:
            path.inputs[k] = U[0]
            path.states[k + 1] = X[0]
            if not still[0]:
                path.states[k + 1:] = X[0]
                path.alive[k + 1:] = False
                recording = False
    return counts, path


def simulate(sys: SystemModel, cfg: SimConfig, x0: np.ndarray,
             trial: int = 0) -> Trajectory:
    """One killed closed-loop path; deterministic in (seed, trial).

    ``trial`` is an integer in ``[0, 2**64)``, the second word of the
    trial's Philox key.  The path is stepped as a one-trial chunk of the
    estimate, so it equals that trial's row in any batch bit for bit."""
    trial = _index(trial, "trial")
    if not 0 <= trial < 2**64:
        raise ValueError(f"trial must lie in [0, 2**64), got {trial!r}")
    return _curve_chunk(sys, cfg, _start(sys, x0), trial, trial + 1)[1]


def estimate_safety_curve(sys: SystemModel, cfg: SimConfig, x0: np.ndarray,
                          bound=None, threads: int = 1,
                          confidence: float = 0.95) -> SafetyCurve:
    """Empirical survival probability with Wilson intervals.

    ``bound`` is any object with ``psi`` and ``gamma`` attributes (an
    EigenResult or a FilterSpec); when given, the theoretical lower bound
    ``psi(x0)/||psi|| * exp(-gamma t)`` is attached to the curve.  The
    curve's ``trajectory`` is trial 0's path, taken from the estimate's own
    steps: bit for bit what ``simulate(sys, cfg, x0, trial=0)`` returns.
    """
    if _index(threads, "threads") < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    x0 = _start(sys, x0)
    chunk = min(cfg.trials, _CHUNK_TRIALS)
    ranges = [(lo, min(lo + chunk, cfg.trials))
              for lo in range(0, cfg.trials, chunk)]

    def run(r):
        return _curve_chunk(sys, cfg, x0, *r)

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, ranges))
    else:
        parts = [run(r) for r in ranges]
    counts = np.sum([c for c, _ in parts], axis=0, dtype=np.int64)
    path = parts[0][1]
    frac = counts / cfg.trials
    low, high = wilson_interval(counts, cfg.trials, confidence)
    theo = None
    if bound is not None:
        psi: ScalarField = bound.psi
        level = interpolate(psi, x0) / sup_norm(psi)
        theo = level * np.exp(-bound.gamma * path.times)
    return SafetyCurve(path.times.copy(), frac, low, high, cfg.trials, counts, theo, path)


def wilson_interval(successes, n: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion of ``n >= 1`` trials."""
    if n < 1:
        raise ValueError(f"a Wilson interval needs at least one trial, got n = {n}")
    if confidence not in _Z:
        raise ValueError(f"no z-value tabulated for confidence {confidence}")
    z = _Z[confidence]
    k = np.asarray(successes, dtype=float)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def fit_decay_rate(curve: SafetyCurve, window: float = 0.5) -> float:
    """Least-squares slope of log survival over the tail window, negated.

    ``window`` is the fraction of the time span, counted from the end, the
    fit uses; samples with zero survival are excluded.  Raises
    InsufficientData with fewer than 10 usable points.
    """
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    t = curve.times
    s = curve.survival_fraction
    t_cut = t[-1] - window * (t[-1] - t[0])
    mask = (t >= t_cut) & (s > 0.0)
    if int(np.sum(mask)) < 10:
        raise InsufficientData(
            f"only {int(np.sum(mask))} usable samples in the tail window"
        )
    slope = np.polyfit(t[mask], np.log(s[mask]), 1)[0]
    return float(-slope)


# --- CSV emission ---------------------------------------------------------------


def _write_rows(path, header, columns) -> None:
    """A CSV of equal-length ``columns`` under ``header``: the ``alive``
    column (a count or a flag) as integers, every other one as the ``repr``
    of its floats."""
    cells = [[str(int(v)) for v in c] if name == "alive" else [repr(float(v)) for v in c]
             for name, c in zip(header, columns)]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    n_x = traj.states.shape[1]
    n_u = traj.inputs.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n_x)]
              + [f"u{j + 1}" for j in range(n_u)] + ["alive"])
    _write_rows(path, header, [traj.times, *traj.states.T, *traj.inputs.T, traj.alive])


def write_safety_curve_csv(curve: SafetyCurve, path) -> None:
    header = ["t", "alive", "survival", "wilson_low", "wilson_high"]
    columns = [curve.times, curve.alive_counts, curve.survival_fraction,
               curve.wilson_low, curve.wilson_high]
    if curve.theoretical_bound is not None:
        header.append("bound")
        columns.append(curve.theoretical_bound)
    _write_rows(path, header, columns)
