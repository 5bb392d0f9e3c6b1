"""Minimally invasive input filtering against the barrier decay condition.

Given a synthesized barrier ``psi`` with decay rate ``gamma`` (at least the
synthesis rate), the filter answers pointwise queries: project a reference
input onto the set where

    A^u psi(x) + gamma psi(x) >= 0,

deviating as little as possible in a weighted two-norm, subject to the
input box.  The generator is evaluated through interpolated central
derivatives of the discrete ``psi``; a feasibility slack of 1e-9 absorbs
interpolation noise (the continuous-theory guarantee is documented in the
README, not certified here).

Structure dispatch:

* input-affine drift with input-independent noise: the constraint is affine
  in ``u`` and the projection is solved exactly by enumerating active sets
  of the box plus the single halfspace;
* scalar input with quadratic-in-input noise Gram: the feasible set is a
  union of at most two intervals from the quadratic's roots;
* anything else (the aircraft model): a Cartesian candidate grid over the
  input box followed by deterministic coordinate refinement; accepted
  inputs are feasible but only locally optimal.

If no feasible input exists, the interpolated backup policy is returned
(status ``backup``); if even that violates the discrete constraint, the
generator-maximizing input is returned (status ``infeasible_fallback``).
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

from .errors import OutOfDomain, StructureError
from .grid import _blend, _corners, _derivative_table, _unpack_hessian
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


class FilterSpec:
    """Barrier, decay rate, deviation weights and backup policy for filtering.

    The decay rate must not undercut the synthesis rate stored with the
    eigenresult (a smaller rate would void the barrier's validity).
    """

    def __init__(self, sys: SystemModel, result: EigenResult,
                 gamma: float | None = None, weight=None):
        if gamma is None:
            gamma = result.gamma
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
        self.gamma_synthesis = float(result.gamma)
        weight = np.ones(sys.n_u) if weight is None else np.asarray(weight, dtype=float).ravel()
        if weight.size != sys.n_u or np.any(weight <= 0.0):
            raise ValueError("weights must be positive, one per input channel")
        self.weight = weight
        # psi, its gradient and its Hessian upper triangle per node, so one
        # blend gives all three at a located state.
        self._table = _derivative_table(self.psi)

    def backup_input(self, x: np.ndarray) -> np.ndarray:
        """Interpolated backup-policy input, clamped into the box."""
        x = np.asarray(x, dtype=float)
        u = self._backup_at(_corners(self.sys.grid, x))
        return u[0] if x.ndim == 1 else u

    def _backup_at(self, corners) -> np.ndarray:
        u = _blend(self.policy.inputs, corners)
        return np.clip(u, self.sys.input_lower, self.sys.input_upper)

    def cost(self, u: np.ndarray, u_ref: np.ndarray) -> np.ndarray:
        d = np.asarray(u) - np.asarray(u_ref)
        return np.sum(self.weight * d * d, axis=-1)


def _affine_drift_parts(sys: SystemModel, X: np.ndarray):
    """Exact affine decomposition f(x, u) = f0(x) + G(x) u (batched)."""
    X = np.atleast_2d(X)
    B = X.shape[0]
    uc = sys.input_center()
    width = sys.input_upper - sys.input_lower
    step = np.where(width > 0.0, 0.5 * width, 1.0)
    Uc = np.broadcast_to(uc, (B, sys.n_u))
    G = np.empty((B, sys.n_x, sys.n_u))
    for j in range(sys.n_u):
        up = Uc.copy(); up[:, j] += step[j]
        dn = Uc.copy(); dn[:, j] -= step[j]
        G[:, :, j] = (sys.drift(X, up) - sys.drift(X, dn)) / (2.0 * step[j])
    f0 = sys.drift(X, Uc) - np.einsum("bij,j->bi", G, uc)
    return f0, G


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


def generator_coefficients(spec: FilterSpec, x: np.ndarray):
    """Decompose A^u psi(x) + gamma psi(x) into (a0, a_lin, a_quad).

    ``a_quad`` is None when the noise does not depend on the input.  Raises
    StructureError when the drift is not affine in the input (no exact
    finite decomposition exists; the filter falls back to candidate search
    for such systems).
    """
    sys = spec.sys
    if not sys.flags.input_affine:
        raise StructureError(f"{sys.name}: drift is not affine in the input")
    x = np.asarray(x, dtype=float)
    if not bool(sys.contains(x)[0]):
        raise OutOfDomain("state is outside the safe set")
    _, psi_x, p, H = _barrier_at(spec, x.reshape(1, -1))
    return _coefficients(spec, x, psi_x[0], p[0], H[0])


def _coefficients(spec: FilterSpec, x, psi_x, p, H):
    """generator_coefficients from psi, its gradient and Hessian at x."""
    sys = spec.sys
    f0, G = _affine_drift_parts(sys, x[None, :])
    a0 = float(p @ f0[0] + spec.gamma * psi_x)
    a_lin = p @ G[0]
    if sys.flags.sigma_u_independent or sys.flags.sigma_zero:
        gram = sys.gram(x, sys.input_center())
        a0 += 0.5 * float(np.sum(H * gram))
        return a0, a_lin, None
    if sys.flags.sigma_gram_quadratic and sys.n_u == 1:
        lo, hi = sys.input_lower[0], sys.input_upper[0]
        mid = 0.5 * (lo + hi)
        tr = [0.5 * float(np.sum(H * sys.gram(x, np.array([u]))))
              for u in (lo, mid, hi)]
        d = hi - lo
        c2 = (tr[0] + tr[2] - 2.0 * tr[1]) * 2.0 / d**2
        c1 = (tr[2] - tr[0]) / d - c2 * (lo + hi)
        c0 = tr[1] - c1 * mid - c2 * mid**2
        return a0 + c0, a_lin + np.array([c1]), np.array([[c2]])
    raise StructureError(
        f"{sys.name}: noise Gram is not quadratic in the input (or n_u > 1)"
    )


def generator_value(spec: FilterSpec, x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """A^u psi(x) + gamma psi(x) for one state and a batch of inputs."""
    x = np.asarray(x, dtype=float)
    _, psi_x, p, H = _barrier_at(spec, x.reshape(1, -1))
    return _generator(spec, x, psi_x[0], p[0], H[0], U)


def _generator(spec: FilterSpec, x, psi_x, p, H, U) -> np.ndarray:
    """generator_value from psi, its gradient and Hessian at x."""
    sys = spec.sys
    U = np.atleast_2d(np.asarray(U, dtype=float))
    X = np.broadcast_to(x, (U.shape[0], sys.n_x))
    F = sys.drift(X, U)
    gram = sys.gram(X, U)
    return F @ p + 0.5 * np.einsum("ij,bij->b", H, gram) + spec.gamma * psi_x


# --- exact small projections ---------------------------------------------------


def _halfspace_box_project(r, w, lo, hi, a, b):
    """min sum w_i (u_i - r_i)^2  s.t.  a.u >= b,  lo <= u <= hi.

    Assumes clamp(r) violates the constraint, so the halfspace is active at
    the optimum.  Enumerates box active sets; returns None when infeasible.
    """
    n = r.size
    # Quick infeasibility check: best achievable a.u over the box.
    best_au = float(np.sum(np.where(a > 0, a * hi, a * lo)))
    if best_au < b - SLACK:
        return None
    best = None
    best_cost = np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pat = np.array(pattern)
        u = np.where(pat == -1, lo, np.where(pat == 1, hi, 0.0))
        free = pat == 0
        if np.any(free):
            a_f = a[free]
            denom = float(np.sum(a_f * a_f / w[free]))
            u = u.copy()
            if denom == 0.0:
                # Free components cannot move the constraint; stay at the
                # reference there and let the feasibility check decide.
                u[free] = r[free]
            else:
                rhs = b - float(a[~free] @ u[~free])
                mu = (rhs - float(a_f @ r[free])) / denom
                u[free] = r[free] + mu * a_f / w[free]
        if np.any(u < lo - 1e-12) or np.any(u > hi + 1e-12):
            continue
        u = np.clip(u, lo, hi)
        if float(a @ u) < b - 1e-9:
            continue
        cost = float(np.sum(w * (u - r) ** 2))
        if cost < best_cost - 1e-15:
            best_cost = cost
            best = u
    return best


def _quad_feasible_project(r, lo, hi, c0, c1, c2):
    """Project r onto {u in [lo, hi] : c2 u^2 + c1 u + c0 >= 0} (scalar).

    Returns None when the set is empty.  Equidistant ties break toward the
    lower value.
    """
    def q(u):
        return c2 * u * u + c1 * u + c0

    intervals = []
    if abs(c2) < 1e-14:
        if abs(c1) < 1e-14:
            intervals = [(lo, hi)] if c0 >= -SLACK else []
        elif c1 > 0:
            intervals = [(max(lo, -c0 / c1), hi)]
        else:
            intervals = [(lo, min(hi, -c0 / c1))]
    else:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            intervals = [(lo, hi)] if c2 > 0 else []
        else:
            s = np.sqrt(disc)
            r1 = (-c1 - s) / (2.0 * c2)
            r2 = (-c1 + s) / (2.0 * c2)
            r1, r2 = min(r1, r2), max(r1, r2)
            if c2 > 0:
                intervals = [(lo, min(hi, r1)), (max(lo, r2), hi)]
            else:
                intervals = [(max(lo, r1), min(hi, r2))]
    intervals = [(a, b) for (a, b) in intervals if a <= b + 1e-15]
    if not intervals:
        return None
    best = None
    best_d = np.inf
    for (a, b) in sorted(intervals):
        u = min(max(r, a), b)
        d = abs(u - r)
        if d < best_d - 1e-15:
            best_d = d
            best = u
    return best


# --- the filter ----------------------------------------------------------------


def _grid_search(spec: FilterSpec, value, u_ref):
    """Candidate grid + coordinate refinement for non-affine systems;
    ``value(U)`` is the generator at the query state."""
    sys = spec.sys
    grid = sys.input_grid(_GRID_POINTS)
    g = value(grid)
    feasible = g >= -SLACK
    if not np.any(feasible):
        return None, grid[int(np.argmax(g))]
    cand = grid[feasible]
    costs = spec.cost(cand, u_ref)
    best = cand[int(np.argmin(costs))].copy()
    best_cost = float(np.min(costs))
    width = sys.input_upper - sys.input_lower
    span = np.where(width > 0, width / (_GRID_POINTS - 1), 0.0)
    for _ in range(_REFINE_ITERS):
        for d_dim in range(sys.n_u):
            if span[d_dim] == 0.0:
                continue
            offs = np.linspace(-span[d_dim], span[d_dim], 5)
            cands = np.tile(best, (offs.size, 1))
            cands[:, d_dim] = np.clip(
                best[d_dim] + offs, sys.input_lower[d_dim], sys.input_upper[d_dim]
            )
            gv = value(cands)
            ok = gv >= -SLACK
            if np.any(ok):
                cc = spec.cost(cands[ok], u_ref)
                k = int(np.argmin(cc))
                if cc[k] < best_cost - 1e-15:
                    best_cost = float(cc[k])
                    best = cands[ok][k].copy()
        span = span * 0.5
    return best, None


def filter_input(spec: FilterSpec, x: np.ndarray, u_ref: np.ndarray):
    """Minimally modify a reference input to satisfy the decay condition.

    Returns ``(u, status)``; see the module docstring for the fallback
    ladder when the constraint is infeasible within the input box.
    """
    sys = spec.sys
    x = np.asarray(x, dtype=float).ravel()
    if not bool(sys.contains(x)[0]):
        raise OutOfDomain("state is outside the safe set; treat as killed")
    u_ref = np.asarray(u_ref, dtype=float).ravel()
    if not np.all(np.isfinite(u_ref)):
        raise ValueError("reference input must be finite")
    lo, hi = sys.input_lower, sys.input_upper
    u0 = np.clip(u_ref, lo, hi)
    corners, psi_x, p, H = _barrier_at(spec, x[None, :])
    at_x = (psi_x[0], p[0], H[0])

    affine = sys.flags.input_affine and (
        sys.flags.sigma_u_independent or sys.flags.sigma_zero
        or (sys.flags.sigma_gram_quadratic and sys.n_u == 1)
    )
    if affine:
        a0, a_lin, a_quad = _coefficients(spec, x, *at_x)

        def g(u):
            val = a0 + float(a_lin @ u)
            if a_quad is not None:
                val += float(u @ a_quad @ u)
            return val

        if g(u0) >= -SLACK:
            return u0, FilterStatus.UNMODIFIED
        if a_quad is None:
            u = _halfspace_box_project(u0, spec.weight, lo, hi, a_lin, -a0)
        else:
            u_s = _quad_feasible_project(
                float(u0[0]), lo[0], hi[0],
                a0, float(a_lin[0]), float(a_quad[0, 0]),
            )
            u = None if u_s is None else np.array([u_s])
        if u is not None:
            return u, FilterStatus.MODIFIED
        maximizer = None
    else:
        def value(U):
            return _generator(spec, x, *at_x, U)

        if value(u0[None, :])[0] >= -SLACK:
            return u0, FilterStatus.UNMODIFIED
        u, maximizer = _grid_search(spec, value, u0)
        if u is not None:
            return u, FilterStatus.MODIFIED

    # Constraint infeasible within U: fall back to the backup policy.
    u_b = spec._backup_at(corners)[0]
    if affine:
        gb = a0 + float(a_lin @ u_b)
        if a_quad is not None:
            gb += float(u_b @ a_quad @ u_b)
    else:
        gb = value(u_b[None, :])[0]
    if gb >= -SLACK:
        return u_b, FilterStatus.BACKUP
    if affine:
        if a_quad is None:
            u_m = np.where(a_lin > 0, hi, lo).astype(float)
        else:
            cands = [lo[0], hi[0]]
            if abs(a_quad[0, 0]) > 1e-300:
                cands.append(
                    float(np.clip(-a_lin[0] / (2.0 * a_quad[0, 0]), lo[0], hi[0]))
                )
            vals = [a0 + a_lin[0] * u + a_quad[0, 0] * u * u for u in cands]
            u_m = np.array([cands[int(np.argmax(vals))]])
    else:
        u_m = maximizer if maximizer is not None else u_b
    return np.asarray(u_m, dtype=float), FilterStatus.INFEASIBLE_FALLBACK


def filter_input_batch(spec: FilterSpec, X: np.ndarray, U_ref: np.ndarray):
    """Vectorized filter for input-affine systems with input-independent noise.

    Returns ``(U, codes)`` with ``codes[i]`` indexing ``STATUS_BY_CODE``.
    Falls back to the scalar path per row for other structures.
    """
    sys = spec.sys
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U_ref = np.atleast_2d(np.asarray(U_ref, dtype=float))
    B = X.shape[0]
    if not (sys.flags.input_affine
            and (sys.flags.sigma_u_independent or sys.flags.sigma_zero)):
        out = np.empty((B, sys.n_u))
        codes = np.empty(B, dtype=np.int8)
        for i in range(B):
            u, st = filter_input(spec, X[i], U_ref[i])
            out[i] = u
            codes[i] = CODE_BY_STATUS[st]
        return out, codes

    lo, hi = sys.input_lower, sys.input_upper
    w = spec.weight
    corners, psi_x, p, H = _barrier_at(spec, X)
    f0, G = _affine_drift_parts(sys, X)
    gram = sys.gram(X, np.broadcast_to(sys.input_center(), (B, sys.n_u)))
    a0 = (np.einsum("bi,bi->b", p, f0)
          + 0.5 * np.einsum("bij,bij->b", H, gram)
          + spec.gamma * psi_x)
    a_lin = np.einsum("bi,bij->bj", p, G)

    U = np.clip(U_ref, lo, hi)
    codes = np.full(B, CODE_BY_STATUS[FilterStatus.UNMODIFIED], dtype=np.int8)
    g0 = a0 + np.einsum("bj,bj->b", a_lin, U)
    need = g0 < -SLACK
    if not np.any(need):
        return U, codes

    idx = np.nonzero(need)[0]
    r = U[idx]
    a = a_lin[idx]
    b = -a0[idx]
    M = idx.size
    best = np.full((M, sys.n_u), np.nan)
    best_cost = np.full(M, np.inf)
    for pattern in itertools.product((-1, 0, 1), repeat=sys.n_u):
        pat = np.array(pattern)
        u = np.where(pat == -1, lo, np.where(pat == 1, hi, 0.0))
        u = np.tile(u, (M, 1))
        free = pat == 0
        if np.any(free):
            a_f = a[:, free]
            denom = np.einsum("bj,bj->b", a_f, a_f / w[free])
            if np.any(~free):
                rhs = b - a[:, ~free] @ u[0, ~free]
            else:
                rhs = b
            safe = denom > 0
            mu = np.where(safe, (rhs - np.einsum("bj,bj->b", a_f, r[:, free]))
                          / np.where(safe, denom, 1.0), 0.0)
            u_f = r[:, free] + mu[:, None] * a_f / w[free]
            u[:, free] = np.where(safe[:, None], u_f, r[:, free])
        inside = np.all((u >= lo - 1e-12) & (u <= hi + 1e-12), axis=1)
        u = np.clip(u, lo, hi)
        feas = inside & (np.einsum("bj,bj->b", a, u) >= b - 1e-9)
        cost = np.einsum("j,bj->b", w, (u - r) ** 2)
        upd = feas & (cost < best_cost - 1e-15)
        best[upd] = u[upd]
        best_cost[upd] = cost[upd]
    solved = np.isfinite(best_cost)
    U[idx[solved]] = best[solved]
    codes[idx[solved]] = CODE_BY_STATUS[FilterStatus.MODIFIED]

    # Infeasible rows: backup policy, then generator maximizer.
    bad = idx[~solved]
    if bad.size:
        flat, weight = corners
        u_b = spec._backup_at((flat[:, bad], weight[:, bad]))
        gb = a0[bad] + np.einsum("bj,bj->b", a_lin[bad], u_b)
        ok = gb >= -SLACK
        U[bad] = u_b
        codes[bad] = CODE_BY_STATUS[FilterStatus.BACKUP]
        worst = bad[~ok]
        if worst.size:
            U[worst] = np.where(a_lin[worst] > 0, hi, lo)
            codes[worst] = CODE_BY_STATUS[FilterStatus.INFEASIBLE_FALLBACK]
    return U, codes
