"""Minimally invasive input filtering against the barrier decay condition.

Given a synthesized barrier ``psi`` with decay rate ``gamma`` (at least the
synthesis rate), the filter projects reference inputs onto the set where

    A^u psi(x) + gamma psi(x) >= 0,

deviating as little as possible from the raw reference (not its clamp) in
a weighted two-norm, subject to the input box; a reference whose clamp
already meets the condition is returned clamped (``unmodified``).  The
generator is evaluated through interpolated central derivatives of the
discrete ``psi``; a feasibility slack of 1e-9 absorbs interpolation noise
(the continuous-theory guarantee is documented in the README, not
certified here).

One batched implementation answers every query (``filter_input`` is its
one-row case).  The projection follows ``SystemModel.regime``, read once
per ``FilterSpec``:

* ``affine`` (input-affine drift, input-independent noise): the constraint
  is ``a0 + a_lin . u >= 0``; the projection is exact, from all 3**n_u
  active sets of the box plus the halfspace, solved for every row at once;
* ``quadratic`` (scalar input, noise Gram quadratic in it): the constraint
  is ``a0 + a_lin u + a_quad u^2 >= 0``, with the trace term fitted by
  ``SystemModel.fit_quadratic``; the feasible set is a union of at most two
  intervals from the quadratic's roots;
* ``nonaffine`` (the aircraft model): a Cartesian candidate grid over the
  input box followed by deterministic coordinate refinement; accepted
  inputs are feasible but only locally optimal.

Both input-affine regimes compute their coefficients on one path, in one
summation order, ``a0 = p . f0 + (1/2) tr(H a) + gamma psi``, which is also
what ``generator_coefficients`` returns: the model's
``SystemModel.input_coefficients``, which the operator's critical input
also maximizes, plus ``gamma psi``; every Gram matrix ``a`` comes from
``SystemModel.gram``.  ``generator_value`` evaluates the generator directly
from the drift and the Gram matrix instead, as an independent check.

If no feasible input exists, the interpolated backup policy is returned
(status ``backup``); if even that violates the discrete constraint, the
generator-maximizing input is returned (status ``infeasible_fallback``).
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

from .errors import OutOfDomain, StructureError
from .grid import _blend, _blend_clamped, _corners, _derivative_table, _unpack_hessian
from .spectral import EigenResult
from .systems import SystemModel

__all__ = [
    "FilterStatus",
    "FilterSpec",
    "generator_coefficients",
    "generator_value",
    "filter_input",
    "filter_input_batch",
]

SLACK = 1e-9

_REFINE_ITERS = 10
_GRID_POINTS = 15


class FilterStatus(enum.Enum):
    UNMODIFIED = "unmodified"
    MODIFIED = "modified"
    BACKUP = "backup"
    INFEASIBLE_FALLBACK = "infeasible_fallback"


STATUS_BY_CODE = tuple(FilterStatus)
CODE_BY_STATUS = {s: i for i, s in enumerate(STATUS_BY_CODE)}
_MODIFIED = CODE_BY_STATUS[FilterStatus.MODIFIED]
_BACKUP = CODE_BY_STATUS[FilterStatus.BACKUP]
_FALLBACK = CODE_BY_STATUS[FilterStatus.INFEASIBLE_FALLBACK]


class FilterSpec:
    """Barrier, decay rate, deviation weights and backup policy for filtering.

    The decay rate must be finite and must not undercut the synthesis rate
    stored with the eigenresult (a smaller rate would void the barrier's
    validity); the weights must be finite and positive.
    """

    def __init__(self, sys: SystemModel, result: EigenResult,
                 gamma: float | None = None, weight=None):
        if gamma is None:
            gamma = result.gamma
        if not np.isfinite(gamma):
            raise ValueError(f"decay rate must be finite, got {gamma!r}")
        if gamma < result.gamma - 1e-12:
            raise ValueError(
                f"decay rate {gamma} is below the synthesized rate {result.gamma}"
            )
        if result.psi.spec != sys.grid:
            raise ValueError("barrier grid does not match the system grid")
        self.sys = sys
        self.psi = result.psi
        self.policy = result.policy
        self.gamma = float(gamma)
        weight = np.ones(sys.n_u) if weight is None else np.asarray(weight, dtype=float).ravel()
        if weight.size != sys.n_u or not np.all(np.isfinite(weight) & (weight > 0.0)):
            raise ValueError("weights must be finite and positive, one per input channel")
        self.weight = weight
        # psi, its gradient and its Hessian upper triangle per node, so one
        # blend gives all three at a located state.
        self._table = _derivative_table(self.psi)
        self._regime = _REGIMES[sys.regime](self)

    def _backup_at(self, corners) -> np.ndarray:
        """Interpolated backup-policy input, clamped into the box."""
        return _blend_clamped(self.policy.inputs, corners,
                              self.sys.input_lower, self.sys.input_upper)

    def cost(self, u: np.ndarray, u_ref: np.ndarray) -> np.ndarray:
        d = np.asarray(u) - np.asarray(u_ref)
        return np.sum(self.weight * d * d, axis=-1)


def _barrier_at(spec: FilterSpec, X: np.ndarray):
    """Locate states ``(B, n_x)`` once and read psi ``(B,)``, its gradient
    ``(B, n_x)`` and Hessian ``(B, n_x, n_x)`` from one blend.  Also returns
    the located corners, for the backup policy."""
    n = spec.sys.n_x
    corners = _corners(spec.sys.grid, X)
    vals = _blend(spec._table, corners)
    psi_x = vals[:, 0].copy()
    p = vals[:, 1:1 + n].copy()
    H = _unpack_hessian(vals[:, 1 + n:], n)
    return corners, psi_x, p, H


def _take(rows: dict, idx) -> dict:
    return {key: value[idx] for key, value in rows.items()}


def _generator(spec: FilterSpec, rows: dict, U: np.ndarray) -> np.ndarray:
    """A^u psi + gamma psi at each row's state for inputs ``U`` ``(B, K, n_u)``;
    returns ``(B, K)``."""
    sys = spec.sys
    B, K = U.shape[:2]
    X = np.repeat(rows["X"], K, axis=0)
    U = U.reshape(B * K, sys.n_u)
    F = sys.drift(X, U).reshape(B, K, sys.n_x)
    gram = sys.gram(X, U).reshape(B, K, sys.n_x, sys.n_x)
    return ((F @ rows["p"][:, :, None])[:, :, 0]
            + 0.5 * np.einsum("bij,bkij->bk", rows["H"], gram)
            + spec.gamma * rows["psi"][:, None])


# --- the three regimes ------------------------------------------------------------
#
# Each regime holds the constants of one FilterSpec (not the spec itself, so
# no reference cycle keeps a dropped spec's tables alive).  It turns located
# rows into its per-row data (``rows``), evaluates the constraint at one
# input per row (``value``) and projects references whose clamp violates it
# (``project``: the minimiser and True per row, or the generator maximiser
# and False when no input in the box is feasible).


class _InputAffine:
    """Drift affine in the input.  Its rows are the coefficients of ``g(u) =
    a0 + a_lin . u`` and, in the quadratic regime, ``+ a_quad u^2`` (what
    ``generator_coefficients`` returns): the central generator's, from
    :meth:`~scbf.systems.SystemModel.input_coefficients`, plus ``gamma psi``."""

    def __init__(self, spec: FilterSpec):
        """Nothing to keep: every coefficient comes from the model."""

    def rows(self, spec, X, psi_x, p, H):
        b0, b1, b2 = spec.sys.input_coefficients(X, p, H)
        rows = {"a0": b0 + spec.gamma * psi_x, "a_lin": b1}
        if b2 is not None:
            rows["a_quad"] = b2
        return rows


class _Affine(_InputAffine):
    """Input-independent noise: ``g(u) = a0 + a_lin . u``, projected exactly
    by solving every active set of the box plus the halfspace at once."""

    def __init__(self, spec: FilterSpec):
        sys = spec.sys
        lo, hi = sys.input_lower, sys.input_upper
        # Pattern k fixes channel j at its lower bound (-1), its upper bound
        # (+1), or leaves it free (0); patterns run in itertools order.
        pattern = np.array(list(itertools.product((-1, 0, 1), repeat=sys.n_u)))
        self._free = pattern == 0
        self._free_cols = self._free.T.astype(float)
        self._fixed = np.where(pattern == -1, lo, np.where(pattern == 1, hi, 0.0))
        self._fixed_cols = self._fixed.T.copy()
        self._box = (lo, hi, lo - 1e-12, hi + 1e-12)

    def value(self, spec, rows, U):
        return rows["a0"] + np.einsum("bj,bj->b", rows["a_lin"], U)

    def project(self, spec, rows, R):
        """min sum w (u - r)^2  s.t.  a.u >= b, lo <= u <= hi, for rows whose
        clamped reference violates the halfspace (so it is active at the
        optimum).  Arrays are ``(rows, patterns[, channels])``."""
        w = spec.weight
        lo, hi, lo_tol, hi_tol = self._box
        a, b = rows["a_lin"], -rows["a0"]
        denom = (a * (a / w)) @ self._free_cols
        rhs = b[:, None] - a @ self._fixed_cols
        # Free channels move along a / w; where they cannot move the
        # constraint (denom = 0, so mu = 0) they stay at the reference and
        # feasibility decides.
        mu = (rhs - (a * R) @ self._free_cols) / np.where(denom > 0, denom, np.inf)
        R3 = R[:, None, :]
        U = np.where(self._free, R3 + mu[:, :, None] * a[:, None, :] / w, self._fixed)
        inside = ((U >= lo_tol) & (U <= hi_tol)).all(axis=2)
        np.minimum(np.maximum(U, lo, out=U), hi, out=U)
        cost = np.einsum("j,bpj->bp", w, (U - R3) ** 2)
        cost[~inside | (np.einsum("bpj,bj->bp", U, a) < (b - 1e-9)[:, None])] = np.inf
        best_cost = cost[:, 0]
        best = np.zeros(len(R), dtype=np.intp)
        for k in range(1, cost.shape[1]):
            better = cost[:, k] < best_cost - 1e-15
            best_cost = np.where(better, cost[:, k], best_cost)
            best[better] = k
        out = U[np.arange(len(R)), best]
        solved = best_cost < np.inf
        if not solved.all():
            out[~solved] = np.where(a[~solved] > 0, hi, lo)
        return out, solved


class _Quadratic(_InputAffine):
    """Scalar input, noise Gram quadratic in it: ``g(u) = c0 + c1 u + c2 u^2``,
    feasible on at most two intervals from the roots."""

    def value(self, spec, rows, U):
        u = U[:, 0]
        return rows["a0"] + rows["a_lin"][:, 0] * u + u * rows["a_quad"] * u

    def project(self, spec, rows, R):
        """Nearest feasible point per row; equidistant ties break toward the
        lower value."""
        lo, hi = spec.sys.input_lower[0], spec.sys.input_upper[0]
        c0, c1, c2, r = rows["a0"], rows["a_lin"][:, 0], rows["a_quad"], R[:, 0]
        flat = np.abs(c2) < 1e-14
        const = flat & (np.abs(c1) < 1e-14)
        rising = flat & ~const & (c1 > 0)
        falling = flat & ~const & ~rising
        with np.errstate(divide="ignore", invalid="ignore"):
            root = -c0 / c1
            s = np.sqrt(c1 * c1 - 4.0 * c2 * c0)   # NaN without real roots
            q1, q2 = (-c1 - s) / (2.0 * c2), (-c1 + s) / (2.0 * c2)
        r1, r2 = np.minimum(q1, q2), np.maximum(q1, q2)
        real = ~flat & (s >= 0.0)
        outside = real & (c2 > 0)     # feasible outside the roots
        between = real & ~outside
        # One or two intervals [A1, B1], [A2, B2], A1 <= A2 (sorted order).
        A1 = np.select([rising, between], [np.maximum(lo, root), np.maximum(lo, r1)], lo)
        B1 = np.select([falling, outside, between],
                       [np.minimum(hi, root), np.minimum(hi, r1), np.minimum(hi, r2)], hi)
        ok1 = np.where(const, c0 >= -SLACK, np.where(~flat & ~real, c2 > 0, True))
        ok1 &= A1 <= B1 + 1e-15
        A2 = np.maximum(lo, r2)
        ok2 = outside & (A2 <= hi + 1e-15)
        u1 = np.minimum(np.maximum(r, A1), B1)
        u2 = np.minimum(np.maximum(r, A2), hi)
        d1 = np.where(ok1, np.abs(u1 - r), np.inf)
        take2 = ok2 & (np.abs(u2 - r) < d1 - 1e-15)
        out = np.where(take2, u2, u1)[:, None]
        solved = ok1 | ok2
        if not solved.all():
            # maximiser over the bounds and the clipped vertex (first wins)
            bad = ~solved
            b0, b1, b2 = c0[bad], c1[bad], c2[bad]
            with np.errstate(divide="ignore", invalid="ignore"):
                vertex = np.clip(-b1 / (2.0 * b2), lo, hi)
            C = np.stack([np.full(b0.size, lo), np.full(b0.size, hi), vertex], axis=1)
            vals = b0[:, None] + b1[:, None] * C + b2[:, None] * C * C
            vals[np.abs(b2) <= 1e-300, 2] = -np.inf
            out[bad, 0] = C[np.arange(b0.size), np.argmax(vals, axis=1)]
        return out, solved


class _Candidates:
    """Generator not affine in the input: a Cartesian candidate grid over the
    box, then coordinate refinement, for all rows at once."""

    def __init__(self, spec: FilterSpec):
        sys = spec.sys
        self._grid = sys.input_grid(_GRID_POINTS)
        width = sys.input_upper - sys.input_lower
        span = np.where(width > 0, width / (_GRID_POINTS - 1), 0.0)
        # (channel, its 5 offsets) per refinement move, the span halving
        # after each sweep over the channels
        self._moves = []
        for _ in range(_REFINE_ITERS):
            self._moves += [(d, np.linspace(-span[d], span[d], 5))
                            for d in range(sys.n_u) if span[d] != 0.0]
            span = span * 0.5

    def rows(self, spec, X, psi_x, p, H):
        return {"X": X, "psi": psi_x, "p": p, "H": H}

    def value(self, spec, rows, U):
        return _generator(spec, rows, U[:, None, :])[:, 0]

    def project(self, spec, rows, R):
        sys = spec.sys
        B = len(R)
        R3 = R[:, None, :]
        g = _generator(spec, rows, np.broadcast_to(self._grid, (B,) + self._grid.shape))
        cost = np.where(g >= -SLACK, spec.cost(self._grid, R3), np.inf)
        k = np.argmin(cost, axis=1)
        best = self._grid[k]
        best_cost = cost[np.arange(B), k]
        solved = best_cost < np.inf
        best[~solved] = self._grid[np.argmax(g[~solved], axis=1)]
        live = solved.nonzero()[0]
        if live.size == 0:
            return best, solved
        sub, u, u_cost, r = _take(rows, live), best[live], best_cost[live], R3[live]
        at = np.arange(live.size)
        for d, offsets in self._moves:
            C = np.repeat(u[:, None, :], offsets.size, axis=1)
            C[:, :, d] = np.clip(u[:, d, None] + offsets,
                                 sys.input_lower[d], sys.input_upper[d])
            cc = np.where(_generator(spec, sub, C) >= -SLACK, spec.cost(C, r), np.inf)
            k = np.argmin(cc, axis=1)
            ck = cc[at, k]
            better = ck < u_cost - 1e-15
            u[better] = C[at[better], k[better]]
            u_cost = np.where(better, ck, u_cost)
        best[live] = u
        return best, solved


_REGIMES = {"affine": _Affine, "quadratic": _Quadratic, "nonaffine": _Candidates}


# --- the filter ----------------------------------------------------------------


def _filter_rows(spec: FilterSpec, X: np.ndarray, U_ref: np.ndarray):
    """The filter on states ``X`` ``(B, n_x)`` and references ``U_ref``
    ``(B, n_u)``; returns ``(U, codes)``."""
    sys = spec.sys
    regime = spec._regime
    corners, psi_x, p, H = _barrier_at(spec, X)
    rows = regime.rows(spec, X, psi_x, p, H)
    U = np.minimum(np.maximum(U_ref, sys.input_lower), sys.input_upper)
    codes = np.zeros(X.shape[0], dtype=np.int8)
    need = (regime.value(spec, rows, U) < -SLACK).nonzero()[0]
    if need.size == 0:
        return U, codes
    sub = _take(rows, need)
    U[need], solved = regime.project(spec, sub, U_ref[need])
    codes[need] = np.where(solved, _MODIFIED, _FALLBACK)
    if not solved.all():
        # Constraint infeasible within U: the backup policy if it meets the
        # constraint, else the generator maximiser ``project`` returned.
        bad = (~solved).nonzero()[0]
        at = need[bad]
        flat, weight = corners
        u_b = spec._backup_at((flat[:, at], weight[:, at]))
        ok = regime.value(spec, _take(sub, bad), u_b) >= -SLACK
        U[at[ok]] = u_b[ok]
        codes[at[ok]] = _BACKUP
    return U, codes


def generator_coefficients(spec: FilterSpec, x: np.ndarray):
    """Decompose A^u psi(x) + gamma psi(x) into (a0, a_lin, a_quad).

    ``a_quad`` is None in the ``affine`` regime (noise independent of the
    input).  Raises StructureError in the ``nonaffine`` regime (no exact
    finite decomposition exists; the filter falls back to candidate search
    for such systems).
    """
    sys = spec.sys
    if sys.regime == "nonaffine":
        raise StructureError(f"{sys.name}: the generator is not affine in the input, "
                             "nor quadratic in a scalar one (regime 'nonaffine')")
    x = np.asarray(x, dtype=float)
    if not bool(sys.contains(x)[0]):
        raise OutOfDomain("state is outside the safe set")
    X = x.reshape(1, -1)
    rows = spec._regime.rows(spec, X, *_barrier_at(spec, X)[1:])
    a_quad = rows.get("a_quad")
    return float(rows["a0"][0]), rows["a_lin"][0], None if a_quad is None else a_quad[:, None]


def generator_value(spec: FilterSpec, x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """A^u psi(x) + gamma psi(x) for one state and a batch of inputs."""
    X = np.asarray(x, dtype=float).reshape(1, -1)
    _, psi_x, p, H = _barrier_at(spec, X)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return _generator(spec, {"X": X, "psi": psi_x, "p": p, "H": H}, U[None])[0]


def filter_input(spec: FilterSpec, x: np.ndarray, u_ref: np.ndarray):
    """Minimally modify a reference input to satisfy the decay condition.

    Returns ``(u, status)``; see the module docstring for the fallback
    ladder when the constraint is infeasible within the input box.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not bool(spec.sys.contains(x)[0]):
        raise OutOfDomain("state is outside the safe set; treat as killed")
    u_ref = np.asarray(u_ref, dtype=float).ravel()
    if u_ref.size != spec.sys.n_u:
        raise ValueError(f"reference input has {u_ref.size} entries, expected n_u = {spec.sys.n_u}")
    if not np.all(np.isfinite(u_ref)):
        raise ValueError("reference input must be finite")
    U, codes = _filter_rows(spec, x[None, :], u_ref[None, :])
    return U[0], STATUS_BY_CODE[codes[0]]


def filter_input_batch(spec: FilterSpec, X: np.ndarray, U_ref: np.ndarray):
    """The filter on a batch of states ``(B, n_x)`` and references
    ``(B, n_u)``, every structure regime included.

    Returns ``(U, codes)`` with ``codes[i]`` indexing ``STATUS_BY_CODE``.
    States are assumed to lie in the safe set; references are checked to
    be finite, one row of ``n_u`` per state.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U_ref = np.atleast_2d(np.asarray(U_ref, dtype=float))
    if U_ref.shape != (len(X), spec.sys.n_u):
        raise ValueError(f"references of shape {U_ref.shape}, expected {(len(X), spec.sys.n_u)}")
    if not np.isfinite(U_ref).all():
        raise ValueError("reference input must be finite")
    return _filter_rows(spec, X, U_ref)
