"""Controlled Ito diffusion models and the built-in benchmark systems.

A system is ``dX = f(X, u) dt + sigma(X, u) dW`` together with an input box
U and a safe set C carried on a tensor grid.  Drift and diffusion callables
are vectorized: they accept states shaped ``(..., n_x)`` and inputs shaped
``(..., n_u)`` and broadcast.

Structural facts the numerics exploit (input-affine drift, input-independent
or quadratic-in-input noise Gram, zero noise) are not trusted from the model
author: they are verified at registration by sampling probes, as is the full
row rank diagnostic for the diffusion matrix (reported, never enforced,
because rank-deficient noise is an explicitly supported regime).  Each
check makes one batched model call over every (probe state, probe input)
pair.

The numerics read that structure through ``regime`` (``affine``,
``quadratic`` or ``nonaffine``), from which power-policy iteration picks its
candidate inputs and the safety filter its projection; ``gram`` and
``gram_entries``, one ``sigma sigma^T`` formula laid out node-major or
entry-major; ``fit_quadratic``, the one exact fit in a scalar input;
``input_coefficients``, the central generator as a polynomial in the
input, which the safety filter projects on and the operator's critical
input maximizes; and, in the operator build, the flags
``sigma_u_independent`` and ``sigma_zero``, under either of which one noise
Gram serves every candidate input, whatever the regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import NonPositiveAirspeed, UnknownParameter
from .grid import INTERIOR, GridSpec, ImplicitSet, ScalarField, _index, classify_nodes

__all__ = [
    "StructureFlags",
    "SystemModel",
    "BENCHMARKS",
    "make_benchmark",
    "wig_forces",
    "WIG_DEFAULTS",
]

_PROBE_TOL = 1e-10
_PROBE_STATES = 24   # probe states, uniform over the grid box
_PROBE_SEED = 0


@dataclass(frozen=True)
class StructureFlags:
    """Sampled structural diagnostics of a system.

    ``full_row_rank``/``noise_rank`` record whether sigma has full row rank
    across probe points (a diagnostic only; rank-deficient systems are
    handled by the same kill-on-exit discretization).
    """

    input_affine: bool
    sigma_u_independent: bool
    sigma_zero: bool
    sigma_gram_quadratic: bool
    full_row_rank: bool
    noise_rank: int


@dataclass
class SystemModel:
    """Controlled SDE with a finite box of inputs and a gridded safe set."""

    name: str
    n_x: int
    n_u: int
    n_w: int
    drift: callable
    diffusion: callable
    input_lower: np.ndarray
    input_upper: np.ndarray
    grid: GridSpec
    safe_set: ImplicitSet
    flags: StructureFlags = None
    params: dict = field(default_factory=dict)
    _node_classes: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.input_lower = np.asarray(self.input_lower, dtype=float).ravel()
        self.input_upper = np.asarray(self.input_upper, dtype=float).ravel()
        if self.input_lower.size != self.n_u or self.input_upper.size != self.n_u:
            raise ValueError("input box size does not match n_u")
        if not (np.isfinite(self.input_lower).all() and np.isfinite(self.input_upper).all()):
            raise ValueError("input box corners must be finite")
        if np.any(self.input_upper < self.input_lower):
            raise ValueError("input box upper corner below lower corner")
        if self.flags is None:
            self.flags = probe_structure(self)

    # -- geometry helpers ---------------------------------------------------

    def node_classes(self) -> np.ndarray:
        if self._node_classes is None:
            self._node_classes = classify_nodes(self.grid, self.safe_set)
        return self._node_classes

    def interior_mask(self) -> np.ndarray:
        return self.node_classes() == INTERIOR

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.safe_set.contains(self.grid, x)

    # -- input structure --------------------------------------------------------

    @property
    def regime(self) -> str:
        """``affine``: input-affine drift, noise independent of the input;
        ``quadratic``: input-affine drift, noise Gram quadratic in a scalar
        input; ``nonaffine``: anything else."""
        f = self.flags
        if f.input_affine and (f.sigma_u_independent or f.sigma_zero):
            return "affine"
        if f.input_affine and f.sigma_gram_quadratic and self.n_u == 1:
            return "quadratic"
        return "nonaffine"

    def gram(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """sigma sigma^T at (x, u), shape (..., n_x, n_x) (:meth:`_gram`)."""
        g, lead = self._gram(x, u)
        return np.ascontiguousarray(g.transpose(2, 0, 1)).reshape(lead + g.shape[:2])

    def gram_entries(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """sigma sigma^T at (x, u) with the entry axes first, shape (n_x,
        n_x, ...), each entry contiguous (:meth:`_gram`)."""
        g, lead = self._gram(x, u)
        return g.reshape(g.shape[:2] + lead)

    def _gram(self, x: np.ndarray, u: np.ndarray) -> tuple:
        """sigma sigma^T at (x, u) as (n_x, n_x, states), and the batch
        shape (:func:`_gram_of`).  Callers pass few states at a time (the
        operator build one node block)."""
        return _gram_of(np.asarray(self.diffusion(x, u), dtype=float))

    def constant_gram(self) -> np.ndarray | None:
        """sigma sigma^T as (n_x, n_x) when the diffusion callable declares
        one sigma for every state and input (its ``matrix`` attribute, as
        the built-in constant noise has), else None; the same bytes as
        :meth:`gram_entries` gives at every node.  Nothing is probed: a
        callable that declares no matrix gets None."""
        matrix = getattr(self.diffusion, "matrix", None)
        if matrix is None:
            return None
        return _gram_of(np.asarray(matrix, dtype=float))[0][..., 0]

    def fit_quadratic(self, sample):
        """``(c0, c1, c2)`` with ``c0 + c1 u + c2 u^2`` through the three
        values ``sample(U)`` returns for ``U`` (3, 1), the scalar input's
        lower bound, midpoint and upper bound; entrywise, and exact when the
        sampled quantity is quadratic in ``u`` (the noise Gram in the
        ``quadratic`` regime)."""
        lo, hi = self.input_lower[0], self.input_upper[0]
        mid = 0.5 * (lo + hi)
        v_lo, v_mid, v_hi = sample(np.array([[lo], [mid], [hi]]))
        d = hi - lo
        c2 = (v_lo + v_hi - 2.0 * v_mid) * 2.0 / d**2
        c1 = (v_hi - v_lo) / d - c2 * (lo + hi)
        c0 = v_mid - c1 * mid - c2 * mid**2
        return c0, c1, c2

    def input_coefficients(self, x: np.ndarray, p: np.ndarray, H: np.ndarray) -> tuple:
        """``(b0, b1, b2)`` with ``p . f(x, u) + 1/2 tr(H a(x, u)) = b0 + b1 .
        u + b2 u^2`` at states ``x`` (B, n_x), for gradients ``p`` (B, n_x)
        and Hessians ``H`` (B, n_x, n_x): ``b1`` is (B, n_u), ``b2`` (B,),
        None in the ``affine`` regime.  The drift is read from one call at
        the box centre and at centre +- half-width per channel (exact for
        input-affine drift); the trace term is taken at the centre in the
        ``affine`` regime and fitted by :meth:`fit_quadratic` otherwise."""
        (uc, probes, two_step), n_u, B = self._input_probes, self.n_u, x.shape[0]
        U = probes.repeat(B, axis=0)
        F = self.drift(np.concatenate([x] * len(probes)), U).reshape(len(probes), B, self.n_x)
        G = np.empty((B, self.n_x, n_u))
        for j in range(n_u):
            G[:, :, j] = (F[1 + 2 * j] - F[2 + 2 * j]) / two_step[j]
        b0 = np.einsum("bi,bi->b", p, F[0] - np.einsum("bij,j->bi", G, uc))
        b1 = np.einsum("bi,bij->bj", p, G)
        if self.regime == "affine":
            # the noise at the box centre U[:B] serves every input
            return b0 + self._trace(x, U[:B], H), b1, None
        # The trace term is quadratic in u: fit it exactly from three
        # inputs, all evaluated in one call.
        t0, t1, t2 = self.fit_quadratic(lambda V: self._trace(
            np.concatenate([x] * 3), V.repeat(B, axis=0), np.concatenate([H] * 3)).reshape(3, B))
        return b0 + t0, b1 + t1[:, None], t2

    @cached_property
    def _input_probes(self) -> tuple:
        """The box centre, the drift probes of :meth:`input_coefficients`
        (the centre, then centre +- half-width per channel; a degenerate
        channel moves by 1) and each channel's probe distance, formed once:
        a model is not changed after its first use."""
        uc = self.input_center()
        width = self.input_upper - self.input_lower
        step = np.where(width > 0.0, 0.5 * width, 1.0)
        probes = np.tile(uc, (1 + 2 * self.n_u, 1))
        for j in range(self.n_u):
            probes[1 + 2 * j, j] += step[j]
            probes[2 + 2 * j, j] -= step[j]
        return uc, probes, 2.0 * step

    def _trace(self, x: np.ndarray, u: np.ndarray, H: np.ndarray) -> np.ndarray:
        """(1/2) tr(H sigma sigma^T) per row of states ``x`` and inputs ``u``."""
        return 0.5 * np.einsum("bij,bij->b", H, self.gram(x, u))

    # -- input helpers --------------------------------------------------------

    def input_center(self) -> np.ndarray:
        return 0.5 * (self.input_lower + self.input_upper)

    def input_grid(self, points_per_dim: int) -> np.ndarray:
        """Cartesian candidate grid over the input box, shape (K, n_u); one point
        on a degenerate axis, so 2 points per axis give the unique corners."""
        axes = []
        for lo, hi in zip(self.input_lower, self.input_upper):
            axes.append(np.linspace(lo, hi, 1 if hi == lo else points_per_dim))
        return np.array(list(itertools.product(*axes)), dtype=float)


def _gram_of(s: np.ndarray) -> tuple:
    """sigma sigma^T of ``s`` (..., n, m) as (n, n, states), and the batch
    shape: entry (i, j) adds ``sigma_ik sigma_jk`` over the noise channels k
    in order, each product taken on a contiguous column of the states."""
    lead, (n, m) = s.shape[:-2], s.shape[-2:]
    c = np.ascontiguousarray(s.reshape(-1, n, m).transpose(2, 1, 0))   # (m, n, states)
    g = c[0, :, None] * c[0, None, :]
    for k in range(1, m):
        g += c[k, :, None] * c[k, None, :]
    return g, lead


def _fit_exceeds(basis: np.ndarray, V: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per probe state, whether the least-squares fit of ``V`` (states,
    inputs, k) on ``basis`` (inputs, p) leaves a residual above
    ``_PROBE_TOL * scale``; one solve serves every state's columns."""
    states, m, k = V.shape
    cols = V.transpose(1, 0, 2).reshape(m, states * k)
    coef, *_ = np.linalg.lstsq(basis, cols, rcond=None)
    resid = (cols - basis @ coef).reshape(m, states, k)
    return np.abs(resid).max(axis=(0, 2)) > _PROBE_TOL * scale


def probe_structure(sys: SystemModel) -> StructureFlags:
    """Verify structural flags on fixed random probes; each check makes one
    model call over every (probe state, probe input) pair."""
    rng = np.random.default_rng(_PROBE_SEED)
    lo, hi = np.asarray(sys.grid.lower), np.asarray(sys.grid.upper)
    X = lo + (hi - lo) * rng.random((_PROBE_STATES, sys.n_x))
    rng.random((_PROBE_STATES, sys.n_u))   # unused, drawn so the inputs below stay fixed
    width = sys.input_upper - sys.input_lower
    n_u = sys.n_u

    def pairs(fn, states, U):
        """``fn`` on every (state, input) pair, shaped (states, inputs, -1)."""
        out = fn(np.repeat(states, len(U), 0), np.tile(U, (len(states), 1)))
        return np.asarray(out, dtype=float).reshape(len(states), len(U), -1)

    # Affine fit of f(x, .) on random input probes: residual below tolerance
    # for every probe state, against a scale that runs over the states in
    # order, means the drift is affine in u.
    m = max(2 * n_u + 2, 6)
    U = sys.input_lower + width * rng.random((m, n_u))
    F = pairs(sys.drift, X, U)
    scale = np.maximum.accumulate(np.fmax(np.abs(F).max(axis=(1, 2)), 1.0))
    input_affine = not _fit_exceeds(np.column_stack([np.ones(m), U]), F, scale).any()

    # Noise structure probes.
    S = pairs(sys.diffusion, X, sys.input_lower + width * rng.random((m, n_u)))
    peak = np.abs(S).max(axis=(1, 2))
    sigma_zero = not np.any(peak > 1e-14)
    sigma_u_independent = not np.any(
        np.abs(S - S[:, :1]).max(axis=(1, 2)) > 1e-12 * np.fmax(peak, 1.0))

    # Quadratic fit of the noise Gram matrix entries in u.
    sigma_gram_quadratic = True
    if not sigma_u_independent:
        mq = max(3 * n_u + n_u * n_u + 3, 9)
        Uq = sys.input_lower + width * rng.random((mq, n_u))
        cols = [np.ones((mq, 1)), Uq]
        for i in range(n_u):
            for j in range(i, n_u):
                cols.append((Uq[:, i] * Uq[:, j])[:, None])
        G = pairs(sys.gram, X[:8], Uq)
        sigma_gram_quadratic = not _fit_exceeds(
            np.concatenate(cols, axis=1), G, np.fmax(np.abs(G).max(axis=(1, 2)), 1.0)).any()

    noise_rank = 0
    if not sigma_zero:
        # Smallest rank across probes, from singular values of sigma.
        center = np.tile(sys.input_center(), (len(X), 1))
        sv = np.linalg.svd(np.asarray(sys.diffusion(X, center), dtype=float),
                           compute_uv=False)
        noise_rank = int(np.min(np.sum(sv > 1e-9 * np.fmax(sv[:, :1], 1.0), axis=1)))
    return StructureFlags(
        input_affine=input_affine,
        sigma_u_independent=sigma_u_independent,
        sigma_zero=sigma_zero,
        sigma_gram_quadratic=sigma_u_independent or sigma_gram_quadratic,
        full_row_rank=noise_rank == sys.n_x,
        noise_rank=noise_rank,
    )


def _batch_shape(x: np.ndarray, u: np.ndarray) -> tuple:
    """The batch shape states ``x (..., n_x)`` and inputs ``u (..., n_u)``
    broadcast to."""
    return np.broadcast(x[..., 0], u[..., 0]).shape


# --- double integrator ------------------------------------------------------


def _di_drift(x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty(_batch_shape(x, u) + (2,))
    out[..., 0] = x[..., 1]
    out[..., 1] = u[..., 0]
    return out


def _const_diffusion(matrix):
    """sigma = ``matrix`` at every state and input; the callable declares
    it as its ``matrix`` attribute (:meth:`SystemModel.constant_gram`)."""
    matrix = np.array(matrix, dtype=float)
    matrix.setflags(write=False)

    def sigma(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.empty(_batch_shape(x, u) + matrix.shape)
        out[...] = matrix
        return out

    sigma.matrix = matrix
    return sigma


def _di_input_noise_diffusion(x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = _batch_shape(x, u)
    out = np.zeros(shape + (2, 1))
    out[..., 1, 0] = np.sqrt(1.0 + np.broadcast_to(u[..., 0], shape) ** 2)
    return out


def _make_double_integrator(case, params, counts):
    u_max = float(params["u_max"])
    grid = GridSpec([-1.0, -2.0], [1.0, 2.0], counts)
    sigmas = {
        "di_omni": _const_diffusion(np.eye(2)),
        "di_velocity": _const_diffusion(np.array([[0.0], [1.0]])),
        "di_input_noise": _di_input_noise_diffusion,
        "di_deterministic": _const_diffusion(np.zeros((2, 1))),
    }
    n_w = 2 if case == "di_omni" else 1
    return SystemModel(
        name=case,
        n_x=2,
        n_u=1,
        n_w=n_w,
        drift=_di_drift,
        diffusion=sigmas[case],
        input_lower=[-u_max],
        input_upper=[u_max],
        grid=grid,
        safe_set=ImplicitSet("box"),
        params=params,
    )


# --- wing-in-ground-effect aircraft ------------------------------------------

WIG_DEFAULTS = {
    "m": 500.0,        # kg
    "g": 9.81,         # m/s^2
    "rho": 1.225,      # kg/m^3
    "S": 12.0,         # m^2
    "b": 10.0,         # m wingspan
    "SigmaL2": 6.0e4,  # N^2/s lift-force noise intensity
    "SigmaD2": 156.0,  # N^2/s drag-force noise intensity
    "c_F": 0.02,       # s/m thrust efficiency slope
    "V_F": 20.0,       # m/s thrust efficiency knee
    "C_L0": 0.2,
    "C_La": 5.0,       # /rad
    "C_D0": 0.03,
    "c_GE": 0.2,
    "k_L": 5.0,
    "k_D": 5.0,
    "k_i": 0.05,
}


def wig_forces(x, u, params=None):
    """Thrust, lift and drag of the ground-effect aircraft model.

    State is (altitude H, airspeed V, flight-path angle Gamma); input is
    (angle of attack alpha, thrust command Fc).  Thrust efficiency drops
    linearly with airspeed above the knee and saturates to [0, 1]; the
    lift coefficient is amplified near the ground while induced drag is
    reduced there.
    """
    p = dict(WIG_DEFAULTS)
    if params:
        p.update(params)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    H = x[..., 0]
    V = x[..., 1]
    if np.any(V <= 0.0):
        raise NonPositiveAirspeed("airspeed must be positive")
    alpha = u[..., 0]
    Fc = u[..., 1]
    F = Fc * np.clip(1.0 - p["c_F"] * (V - p["V_F"]), 0.0, 1.0)
    CLinf = p["C_L0"] + p["C_La"] * alpha
    hb = H / p["b"]
    CL = CLinf * (1.0 + p["c_GE"] * np.exp(-p["k_L"] * hb))
    CD = p["C_D0"] + p["k_i"] * CLinf**2 * (1.0 - np.exp(-p["k_D"] * hb))
    q = 0.5 * p["rho"] * p["S"] * V**2
    return F, q * CL, q * CD


def _make_wig(params, counts):
    m, g = params["m"], params["g"]
    SigmaL = math.sqrt(params["SigmaL2"])
    SigmaD = math.sqrt(params["SigmaD2"])

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        F, L, D = wig_forces(x, u, params)
        V = x[..., 1]
        Gam = x[..., 2]
        # The angle terms on the inputs alone: states broadcast the result.
        alpha = u[..., 0]
        out = np.empty(F.shape + (3,))
        out[..., 0] = V * np.sin(Gam)
        out[..., 1] = (F * np.cos(alpha) - D - m * g * np.sin(Gam)) / m
        out[..., 2] = (F * np.sin(alpha) + L - m * g * np.cos(Gam)) / (m * V)
        return out

    def diffusion(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = _batch_shape(x, u)
        V = np.broadcast_to(x[..., 1], shape)
        out = np.zeros(shape + (3, 2))
        out[..., 1, 0] = SigmaD / m
        out[..., 2, 1] = SigmaL / (m * V)
        return out

    grid = GridSpec([0.0, 20.0, -0.15], [10.0, 70.0, 0.15], counts)
    return SystemModel(
        name="wig_aircraft",
        n_x=3,
        n_u=2,
        n_w=2,
        drift=drift,
        diffusion=diffusion,
        input_lower=[0.0, 0.0],
        input_upper=[0.2, 1000.0],
        grid=grid,
        safe_set=ImplicitSet("box"),
        params=params,
    )


# --- kinematic bicycle --------------------------------------------------------


def _make_bicycle(params, counts):
    R = float(params["obstacle_radius"])
    E = float(params["pos_extent"])
    vmax = float(params["v_max"])

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = _batch_shape(x, u)
        th, v = x[..., 2], x[..., 3]
        out = np.empty(shape + (4,))
        # The heading terms on the states alone: inputs stacked ahead of
        # them (one per candidate) broadcast the result, not the cosine.
        out[..., 0] = v * np.cos(th)
        out[..., 1] = v * np.sin(th)
        out[..., 2] = v * np.broadcast_to(u[..., 0], shape)
        out[..., 3] = np.broadcast_to(u[..., 1], shape)
        return out

    sigma = np.zeros((4, 2))
    sigma[2, 0] = float(params["sigma_theta"])
    sigma[3, 1] = float(params["sigma_v"])

    grid = GridSpec(
        [-E, -E, -math.pi, -vmax],
        [E, E, math.pi, vmax],
        counts,
        periodic=[False, False, True, False],
    )
    # The signed distance from the x and y axes, broadcast over heading and
    # speed: no array of all node coordinates.
    x, y = grid.coordinates(0), grid.coordinates(1)
    plane = (R - np.hypot(x[:, None], y[None, :]))[:, :, None, None]
    sdf = ScalarField(grid, np.broadcast_to(plane, grid.shape))
    return SystemModel(
        name="bicycle",
        n_x=4,
        n_u=2,
        n_w=2,
        drift=drift,
        diffusion=_const_diffusion(sigma),
        input_lower=[-1.0, -1.0],
        input_upper=[1.0, 1.0],
        grid=grid,
        safe_set=ImplicitSet("sdf", sdf),
        params=params,
    )


# --- 1-D Brownian motion (analytic oracle) -----------------------------------


def _make_brownian(params, counts):
    s = float(params["sigma"])

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = _batch_shape(x, u)
        return np.zeros(shape + (1,))

    grid = GridSpec([params["a"]], [params["b"]], counts)
    return SystemModel(
        name="brownian_1d",
        n_x=1,
        n_u=1,
        n_w=1,
        drift=drift,
        diffusion=_const_diffusion(np.array([[s]])),
        input_lower=[0.0],
        input_upper=[0.0],
        grid=grid,
        safe_set=ImplicitSet("box"),
        params=params,
    )


@dataclass(frozen=True)
class Benchmark:
    """A built-in model: ``make(params, counts)`` builds it from every
    parameter in ``defaults`` (the names an override may set) and from its
    nodes per dimension, ``counts`` by default (one per dimension)."""

    make: callable
    defaults: dict
    counts: tuple


BENCHMARKS = {
    **{case: Benchmark(partial(_make_double_integrator, case), {"u_max": 1.0}, (81, 161))
       for case in ("di_omni", "di_velocity", "di_input_noise", "di_deterministic")},
    "wig_aircraft": Benchmark(_make_wig, WIG_DEFAULTS, (51, 51, 51)),
    "bicycle": Benchmark(_make_bicycle, {"obstacle_radius": 1.0, "pos_extent": 3.0,
                                         "v_max": 2.0, "sigma_theta": 0.5, "sigma_v": 0.5},
                         (31, 31, 24, 11)),
    "brownian_1d": Benchmark(_make_brownian, {"sigma": 1.0, "a": -1.0, "b": 1.0}, (201,)),
}


def make_benchmark(bench_id: str, overrides: dict | None = None,
                   grid_counts=None) -> SystemModel:
    """Construct a fully parameterized benchmark system.

    ``overrides`` may replace named model parameters; ``grid_counts``
    replaces the default grid resolution (the paper never reports its
    resolutions, so these are configuration, not fidelity claims).
    """
    if bench_id not in BENCHMARKS:
        raise UnknownParameter(f"unknown benchmark id {bench_id!r}")
    bench = BENCHMARKS[bench_id]
    overrides = overrides or {}
    unknown = set(overrides) - bench.defaults.keys()
    if unknown:
        raise UnknownParameter(
            f"{bench_id}: unknown parameter(s) {sorted(unknown)}"
        )
    counts = bench.counts
    if grid_counts is not None:
        counts = tuple(_index(c, "grid_counts") for c in np.atleast_1d(grid_counts))
        if len(counts) != len(bench.counts):
            raise ValueError(f"{bench_id}: grid_counts has {len(counts)} "
                             f"value{'' if len(counts) == 1 else 's'}, expected "
                             f"{len(bench.counts)} (one per dimension)")
    return bench.make({**bench.defaults, **overrides}, counts)
