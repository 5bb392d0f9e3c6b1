"""The killed-diffusion semigroup: generator evaluation and PDE propagation.

The operator applied to a field ``b`` over a horizon ``t`` is realized by
integrating the parabolic initial-boundary value problem

    db/dtau = grad(b) . f  +  1/2 Tr( hess(b) sigma sigma^T )   in Int C,
    b(0, .) = field,      b(tau, .) = 0  on boundary/exterior nodes,

with an explicit monotone scheme: first-order upwind differences for the
drift (direction switched by the sign of each drift component), central
differences for the diffusion, the sign-split 7-point stencil for mixed
second derivatives, and forward Euler in time under a CFL cap

    dt <= cfl_safety / max over nodes of
          ( sum_i |f_i|/h_i + sum_i a_ii/h_i^2 + sum_{i!=j} |a_ij|/(2 h_i h_j) ),

where ``a = sigma sigma^T``.  Values off the interior read as zero, which
implements the kill-on-exit convention uniformly; with upwinding, outflow
boundaries never consume those values, so rank-deficient noise needs no
special casing.  Monotonicity buys the discrete analogues of
the operator facts the rest of the toolkit leans on: positivity
preservation, non-expansiveness in the sup norm, and exact linearity for a
fixed policy.

Each step is the Markov chain of Kushner & Dupuis (2001),
``P(x) <- W_0 P(x) + sum_o W_o P(x + o)``, ``W_o = dt q_o``,
``W_0 = 1 - dt sum_o q_o``: ``q_o`` is the stencil's rate to the neighbor at
offset ``o`` (``+-e_d`` and the four diagonals of each cross pair with a
nonzero ``a_ij``), and the kill mask zeroes all weights off the interior.
Monotonicity means no negative weight.  For mixed derivatives that needs
noise diagonally dominant in the scaled sense ``a_ii/h_i >= sum_j |a_ij|/h_j``
(all built-in benchmarks have diagonal ``a``); ``W_0 >= 0`` is the CFL cap.
Both are checked whenever a stencil is built: a violation raises
:class:`StabilityViolation` naming the node and the offset.

The optimal-control variant integrates ``db/dtau = max_u A^u b`` by scoring
a finite candidate-input set against the discrete upwind generator at every
node and step: box corners when the drift is input-affine with
input-independent noise, a Cartesian candidate grid when there is no such
structure, and for a scalar input with quadratic-in-input noise Gram the
corners plus one critical input.  That critical input is the clamped
stationary point in ``u`` of the central-difference generator, scored with
the upwind one like every other candidate; it is not the argmax of the
upwind generator over the input interval, which an interior input can beat.
Rates that no candidate changes form one shared base stencil; each
candidate keeps rates only on the offsets it changes, and its score
``sum_j C[j,k] (P(x + o_j) - P(x))`` is compiled, as the stencil is built,
into a plan of multiply-adds in offset order.  A rate row that is zero at
every node is dropped; a row with one value at every node (a box corner
moving a state at a constant rate) becomes a Python float; any other row
becomes one padded array, which every row with the same bytes shares (the
bicycle's four steering corners turn at ``+-v``, so their eight array terms
read two arrays).  The critical input keeps its own array per offset,
since it is rewritten at each step.  A step scores the candidates one at a
time into two score rows and keeps their pairwise maximum in candidate
order; the argmax policy does the same with a running index that moves only
to a strictly greater score, so ties resolve to the lowest candidate index.

A build keeps only what a step, the monotonicity check and the argmax
read.  The noise Gram is evaluated a block of nodes at a time and kept as
the entries the rates read; the drift is evaluated one candidate at a time
with its CFL load folded in at once; and no unpadded copy of a rate lives
beside its padded one for long.  On the 4-D ``bicycle``
(31x31x24x11) the traced build peak is 53 MiB and the operator 47 MiB.

An operator (:class:`_Operator`) is built once per power iteration run,
which applies it at every iteration and reads its policy after the last
application.  The one-shot calls here (:func:`propagate`,
:func:`propagate_optimal`, :func:`argmax_policy`) share one process-wide
slot that holds the last such call's operator while it is idle, keyed by
the model (identity), the :class:`PropagationConfig` (value) and the policy
(identity; ``None`` for the optimal operator).  A call whose key matches
takes the operator out of the slot instead of building one, and every call
puts its operator back on success, replacing what the slot held.  Three
rules keep the peak memory that of one operator:

- every build, a synthesis's too, empties the slot first, so an idle
  operator never lives beside a build;
- syntheses build without the slot and put nothing in it, so their
  operators do not outlive them;
- a call takes the operator out and never shares it, so two threads never
  step one stencil, and only a call that returns puts it back, so a call
  that raises leaves nothing behind.

Reuse gives the bits of a new build (:class:`_Operator`).  The key holds
the model by identity, so a model must not be mutated after its first use,
which :meth:`~scbf.systems.SystemModel.node_classes` already assumes.

The plan gives the bits of the ``einsum`` over all rows, ``np.max`` and
``np.argmax`` it replaced: that einsum adds the products in the same offset
order; a dropped row only added a zero product; a float equal to the row
at every node gives the same product at every node; a shared array holds
the row's bytes; the maximum chain compares in the order ``np.max``
reduces; and the running index keeps the first maximum, as ``np.argmax``
does.  Two differences remain, and neither reaches a result.  At ghost
positions inside the span a float row gives ``c * d`` where the
zero-filled row gave zero, but the step's kill mask zeroes those positions
and the argmax reads only nodes.
And einsum starts each sum from +0.0, so a score whose every term is -0.0
is +0.0 there and -0.0 here; the step adds it, times ``dt``, to the new
value, and the two zeros give different sums only for a value of -0.0.

Per-node arrays live on a flat span in which every neighbor offset is a
contiguous slice (see :class:`_Stencil`).  Only periodic dimensions carry
ghost layers, refreshed before each step.  A non-periodic dimension needs
none because :func:`~scbf.grid.classify_nodes` kills its outer node layer:
no interior node has a neighbor beyond it, and a shift from a killed node
that leaves the grid lands on another killed node or in a zero margin, so
it reads zero as a ghost would.  Every per-node array a step reads or
writes starts on a 64-byte cache line, and the centres of the two ping-pong
buffers sit half a page apart, because a store that splits a cache line, or
a load 4K-aliased with a store just issued, makes a streaming multiply about
twice as slow; left to the heap, the cost of a step varied by up to 1.5
times between processes.
"""

from __future__ import annotations

import hashlib
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotInterior, StabilityViolation
from .grid import INTERIOR, GridSpec, ScalarField
from .systems import SystemModel

__all__ = [
    "PolicyTable",
    "PropagationConfig",
    "apply_generator",
    "propagate",
    "propagate_optimal",
    "argmax_policy",
]


class PolicyTable:
    """Tabulated feedback inputs on grid nodes, clamped into the input box."""

    __slots__ = ("spec", "inputs", "input_lower", "input_upper")

    def __init__(self, spec: GridSpec, inputs: np.ndarray,
                 input_lower, input_upper):
        self.spec = spec
        self.input_lower = np.asarray(input_lower, dtype=float).ravel()
        self.input_upper = np.asarray(input_upper, dtype=float).ravel()
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        if inputs.shape != (spec.size, self.input_lower.size):
            raise ValueError(
                f"policy shape {inputs.shape} != (nodes={spec.size}, n_u={self.input_lower.size})"
            )
        inputs = np.clip(inputs, self.input_lower, self.input_upper)
        inputs.setflags(write=False)
        self.inputs = inputs

    @classmethod
    def constant(cls, sys: SystemModel, u) -> "PolicyTable":
        u = np.broadcast_to(np.asarray(u, dtype=float), (sys.n_u,))
        return cls(sys.grid, np.tile(u, (sys.grid.size, 1)),
                   sys.input_lower, sys.input_upper)

    @classmethod
    def zero(cls, sys: SystemModel) -> "PolicyTable":
        return cls.constant(sys, np.zeros(sys.n_u))

    def channel_fields(self) -> list[ScalarField]:
        """One scalar field per input channel (for file emission)."""
        return [ScalarField(self.spec, self.inputs[:, j])
                for j in range(self.inputs.shape[1])]


@dataclass(frozen=True)
class PropagationConfig:
    """Horizon and scheme controls for one operator application.

    ``horizon`` is finite and nonnegative.  ``dt`` optionally pins the step
    (finite, and it must respect the stability bound); otherwise the step is
    the CFL bound rounded down so an integer number of steps covers the
    horizon exactly.  ``candidate_points`` sizes the
    Cartesian argmax grid per input dimension for systems without special
    input structure; it must be at least 2, so both ends of every input
    interval are candidates.
    """

    horizon: float = 0.5
    cfl_safety: float = 0.8
    scheme: str = "upwind_explicit"
    dt: float | None = None
    candidate_points: int = 9

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be finite and nonnegative, got {self.horizon!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme != "upwind_explicit":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if self.candidate_points < 2:
            raise ValueError(f"candidate_points must be at least 2, got {self.candidate_points}")


# --- the stencil -----------------------------------------------------------------

# The smallest stable step accepted: below it, a horizon takes more steps
# than any run could finish.
_MIN_DT = 1e-9

# Weights are probabilities summing to at most one; a weight above -_WEIGHT_TOL
# is roundoff around zero (e.g. exactly dominant noise, or dt at the bound).
_WEIGHT_TOL = 1e-10

# Bytes in a cache line and in a page (the period of 4K aliasing).
_LINE, _PAGE = 64, 4096

# Nodes per block when a stencil build evaluates the noise Gram: the
# callbacks' scratch stays near 0.5 MB on a 4-D grid.
_NODE_BLOCK = 1024


def _aligned(shape, dtype=np.float64, lead: int = 0, phase: int | None = None) -> np.ndarray:
    """A zeroed array whose every row along the last axis starts on a cache
    line: the rows are padded to whole lines and the result is a view of the
    padded block.  With ``phase``, flat element ``lead`` of a 1-d array
    starts ``phase`` bytes past a page boundary instead.  The block is placed
    inside a slightly larger allocation, so nothing is copied."""
    dtype, shape = np.dtype(dtype), tuple(int(c) for c in np.atleast_1d(shape))
    per_line = _LINE // dtype.itemsize
    row = -(-shape[-1] // per_line) * per_line
    nbytes = int(np.prod(shape[:-1])) * row * dtype.itemsize
    period = _LINE if phase is None else _PAGE
    raw = np.zeros(nbytes + period, dtype=np.uint8)
    skip = ((phase or 0) - raw.ctypes.data - lead * dtype.itemsize) % period
    block = raw[skip:skip + nbytes].view(dtype).reshape(shape[:-1] + (row,))
    return block[..., :shape[-1]]


def _offset(n: int, *moves) -> tuple:
    """Neighbor offset from ``(dimension, step)`` moves."""
    steps = dict(moves)
    return tuple(steps.get(d, 0) for d in range(n))


def _diffusion_load(a, h: np.ndarray, pairs) -> np.ndarray:
    """Per-node diffusion part of the CFL load; ``a(i, j)`` returns the
    per-node Gram entry.  The diagonal terms are added in order from zero,
    the sum a strided ``gram @ (1 / h**2)`` forms (a contiguous ``@`` goes
    through BLAS and can differ in the last bit)."""
    w = 1.0 / h**2
    load = np.zeros(np.shape(a(0, 0)))
    for i in range(len(h)):
        load += a(i, i) * w[i]
    for i, j in pairs:
        load += np.abs(a(i, j)) / (h[i] * h[j])
    return load


def _gram_entries(sys: SystemModel, nodes: np.ndarray, U: np.ndarray) -> dict:
    """``(i, j) -> `` the noise Gram entry at every node, for ``i <= j``,
    evaluated ``_NODE_BLOCK`` nodes at a time, so no (nodes, n, n) array is
    formed."""
    N, n = len(nodes), sys.n_x
    entries = {(i, j): np.empty(N) for i in range(n) for j in range(i, n)}
    for b in range(0, N, _NODE_BLOCK):
        g = sys.gram(nodes[b:b + _NODE_BLOCK], U[b:b + _NODE_BLOCK])
        for (i, j), entry in entries.items():
            entry[b:b + _NODE_BLOCK] = g[:, i, j]
    return entries


def _drift_rates(f, h: np.ndarray, dims) -> dict:
    """Backward-Kolmogorov upwind rates (the expectation reads values where
    the state flows to); ``f(d)`` returns the per-node drift component ``d``."""
    return {_offset(len(h), (d, s)): np.maximum(s * f(d), 0.0) / h[d]
            for d in dims for s in (1, -1)}


def _diffusion_rates(a, h: np.ndarray, pairs) -> dict:
    """Central rates for ``a_ii`` and sign-split 7-point rates for ``a_ij``;
    ``a(i, j)`` returns the per-node Gram entry.  A rate comes out negative
    where the noise is not diagonally dominant; the stencil check reports it."""
    n, rates = len(h), {}
    tmp = np.empty(np.shape(a(0, 0)))
    for o in ([_offset(n, (d, s)) for d in range(n) for s in (1, -1)]
              + [_offset(n, (i, si), (j, sj)) for i, j in pairs for si in (1, -1) for sj in (1, -1)]):
        key = _unsigned(o)
        rates[o] = rates[key] if key in rates else _diffusion_rate(
            o, a, h, pairs, np.empty(tmp.shape), tmp)
    return rates


def _unsigned(o: tuple) -> tuple:
    """``o`` or ``-o``, whichever moves forward first: both carry the same
    diffusion rate."""
    return o if next(s for s in o if s) > 0 else tuple(-s for s in o)


def _diffusion_rate(o: tuple, a, h: np.ndarray, pairs, out: np.ndarray,
                    tmp: np.ndarray) -> np.ndarray:
    """The diffusion rate towards offset ``o``, written into ``out`` with
    ``tmp`` as scratch; ``a(i, j)`` returns the per-node Gram entry."""
    moved = [d for d in range(len(o)) if o[d]]
    if len(moved) == 1:
        d = moved[0]
        np.multiply(0.5, a(d, d), out=out)
        out /= h[d] ** 2
        for i, j in pairs:
            if d in (i, j):
                np.abs(a(i, j), out=tmp)
                tmp /= 2.0 * h[i] * h[j]
                out -= tmp
    else:
        i, j = moved
        np.multiply(o[i] * o[j], a(i, j), out=out)
        np.maximum(out, 0.0, out=out)
        out /= 2.0 * h[i] * h[j]
    return out


class _Stencil:
    """``P <- W_0 P + sum_o W_o P[o] + dt mask max_k sum_j C[j,k] (P[o_j] - P)``.

    ``base`` holds the rates no candidate input changes; ``fold_step`` makes
    them weights with ``dt`` and the kill mask folded in.  ``C[j, k]`` is
    candidate ``k``'s rate towards ``offsets[j]``, unmasked so the argmax
    policy is defined on boundary nodes too; ``dynamic`` rewrites the last
    candidate's rates at every evaluation.

    Storage: only what a step, the monotonicity check and the argmax read.
    ``add_candidate`` compiles each candidate's score ``sum_j C[j,k] (P[o_j]
    - P)`` into ``(j, coefficient)`` terms in offset order (module
    docstring): a row zero at every node is dropped, a row with one value at
    every node becomes that float, and any other row is one padded array,
    shared by every term whose row has the same bytes (``_rows``).  The
    dynamic candidate keeps one array per offset (``_dynamic_rows``), since
    it is rewritten at every step.  Only the differences ``P[o_j] - P`` that
    some term reads are formed.  A step writes the first candidate's score
    into ``_scores[0]`` and folds each later one, written to ``_scores[1]``,
    in with ``np.maximum`` while it is still in cache; ``argmax`` does the
    same with a running index, so two score rows serve any candidate count.

    Layout: the grid is padded with one ghost layer on each side of every
    periodic dimension and none elsewhere; per-node arrays live on its flat
    span from the first to the last node (``pos`` maps nodes into it), so
    every shift is a contiguous slice, and ghost positions inside the span
    carry zero weight.  Each ping-pong buffer adds a zero margin of
    ``sum(strides)`` positions at both ends, where shifts from the first and
    the last nodes land.  Reading a killed node or the margin where the
    fully padded grid would read a ghost is exact only because every node
    of the outer layer of a non-periodic dimension is killed (weight zero,
    value zero), as :func:`~scbf.grid.classify_nodes` guarantees.

    Placement (:func:`_aligned`): the centre view of each ping-pong buffer,
    every weight, every candidate row and every scratch array a step reads
    or writes starts on a 64-byte cache line, and the two centre views sit
    2048 bytes apart modulo 4096.  A vector store that splits a cache line
    costs about twice one that does not, so a misaligned output doubles the
    cost of a streaming multiply; and a load whose address matches, modulo
    4096, that of a store just issued waits for it (4K aliasing), which the
    half-page gap keeps away from the step's reads of one buffer and writes
    of the other.  The heap gives no such guarantee: the same step ran up to
    1.5 times slower in one process than in another.

    Build order: ``_Stencil(...)`` pads the base rates, popping each from
    the caller's dict; ``add_candidate`` once per fixed candidate, in order;
    ``add_dynamic`` for a dynamic last candidate; then ``compile`` allocates
    the differences the plan reads and the score rows.
    """

    def __init__(self, spec: GridSpec, interior: np.ndarray, base: dict, offsets):
        n, shape = spec.dims, spec.shape
        ghost = np.array(spec.periodic, dtype=int)
        self.shape, padded = shape, tuple(int(c) for c in np.add(shape, 2 * ghost))
        strides = [int(np.prod(padded[d + 1:])) for d in range(n)]
        first, margin, size = int(np.dot(ghost, strides)), sum(strides), int(np.prod(padded))
        self.span = sum((c - 1) * s for c, s in zip(shape, strides)) + 1
        self.pos = np.ravel_multi_index(
            tuple(np.indices(shape).reshape(n, -1) + ghost[:, None]), padded) - first
        self._interior_nodes, self.interior = interior, self.pad(interior)
        self.base = {}
        for o in list(base):
            r = base.pop(o)
            if np.any(r[interior] != 0.0):
                self.base[o] = self.pad(r)
        self.offsets = list(offsets)
        self._plan, self._rows, self._dynamic_rows = [], {}, None
        self.dynamic = self.W = None
        self._centre = (0,) * n
        self._bufs = [_aligned(size + 2 * margin, lead=margin + first, phase=phase)
                      for phase in (0, _PAGE // 2)]
        self._cur = 0
        self._views = [{o: buf[margin + first + int(np.dot(o, strides)):][:self.span]
                        for o in {self._centre, *self.base, *self.offsets}}
                       for buf in self._bufs]
        # Ghost slab copies over the full padded extent of the other axes,
        # in dimension order, so corner ghosts wrap correctly too.
        self._ghosts = []
        for buf in self._bufs:
            P, copies = buf[margin:margin + size].reshape(padded), []
            for d in range(n):
                if spec.periodic[d]:
                    Q = np.moveaxis(P, d, 0)
                    copies += [(Q[:1], Q[-2:-1]), (Q[-1:], Q[1:2])]
            self._ghosts.append(copies)
        self._tmp = _aligned(self.span)

    def pad(self, node_values: np.ndarray) -> np.ndarray:
        out = _aligned(self.span, node_values.dtype)
        out[self.pos] = node_values
        return out

    def add_candidate(self, rows):
        """Append a fixed candidate whose rate towards ``offsets[j]`` is
        ``rows[j]`` at the nodes (an iterable, consumed one row at a time)."""
        terms = []
        for j, at in enumerate(rows):
            if not at.any():
                continue
            if np.all(at == at[0]):
                terms.append((j, float(at[0])))
                continue
            at = np.ascontiguousarray(at)
            key = hashlib.blake2b(at, digest_size=16).digest()
            if key not in self._rows:
                self._rows[key] = self.pad(at)
            terms.append((j, self._rows[key]))
        self._plan.append(terms)

    def add_dynamic(self) -> np.ndarray:
        """Append the dynamic last candidate: one row per offset, returned
        for its owner to rewrite."""
        self._dynamic_rows = _aligned((len(self.offsets), self.span))
        self._plan.append(list(enumerate(self._dynamic_rows)))
        return self._dynamic_rows

    def compile(self):
        """Allocate the differences the plan reads and the two score rows."""
        used = sorted({j for terms in self._plan for j, _ in terms})
        self._diffs = dict(zip(used, _aligned((len(used), self.span)))) if used else {}
        self._scores = _aligned((2, self.span)) if self.offsets else None

    def load(self, flat_values: np.ndarray):
        self._views[self._cur][self._centre][self.pos] = np.where(
            self._interior_nodes, flat_values, 0.0)

    def values(self) -> np.ndarray:
        return self._views[self._cur][self._centre][self.pos]

    def _refresh_ghosts(self):
        for ghost, node in self._ghosts[self._cur]:
            np.copyto(ghost, node)

    def fold_step(self, dt: float):
        """Fold ``dt`` and the kill mask into the weights and check that the
        stencil is monotone under every fixed candidate."""
        self.dt_mask, self.W0 = _aligned(self.span), _aligned(self.span)
        np.copyto(self.dt_mask, dt, where=self.interior)
        # W0 = 1 - dt * (sum of base rates) and W_o = dt_mask * rate, built in
        # place on the aligned arrays.
        for r in self.base.values():
            self.W0 += r
        self.W0 *= dt
        np.subtract(1.0, self.W0, out=self.W0)
        np.copyto(self.W0, 0.0, where=~self.interior)
        for r in self.base.values():
            r *= self.dt_mask
        self.W, self.base = self.base, None
        self._check(None)
        for k in range(len(self._plan) - (self.dynamic is not None) if self.offsets else 0):
            self._check(k)

    def _check(self, k):
        """Raise on a negative weight at an interior node: of the base for
        ``k = None``, else of candidate ``k``'s centre and own offsets.  The
        centre is reported before the offsets, which come in offset order;
        a dropped row leaves its offset's weight as the base checked."""
        if k is None:
            for o, w in [(self._centre, self.W0), *self.W.items()]:
                self._raise_if_negative(k, o, w)
            return
        centre, first = self.W0.copy(), None
        for j, c in self._plan[k]:
            o = self.offsets[j]
            w = self.dt_mask * c
            centre -= w
            if o in self.W:
                w += self.W[o]
            if first is None and np.min(w) < -_WEIGHT_TOL:
                first = (o, w)
        self._raise_if_negative(k, self._centre, centre)
        if first is not None:
            self._raise_if_negative(k, *first)

    def _raise_if_negative(self, k, o: tuple, w: np.ndarray):
        at = int(np.argmin(w))
        if w[at] < -_WEIGHT_TOL:
            node = int(np.searchsorted(self.pos, at))
            index = tuple(int(i) for i in np.unravel_index(node, self.shape))
            raise StabilityViolation(
                f"non-monotone stencil{'' if k is None else f' under candidate {k}'}: "
                f"weight {w[at]:.3e} at node {node} {index} "
                f"on offset {o}; " + ("the step exceeds the stability bound" if not any(o)
                else "the noise Gram matrix is not diagonally dominant "
                     "(a_ii/h_i >= sum_j |a_ij|/h_j)"))

    def _differences(self, src: dict):
        """The differences ``P[o_j] - P`` the plan reads, and the dynamic
        candidate's rates, against the field ``src``."""
        centre = src[self._centre]
        for j, diff in self._diffs.items():
            np.subtract(src[self.offsets[j]], centre, out=diff)
        if self.dynamic is not None:
            self.dynamic.update(src)
            # Its centre weight is covered by the CFL load and drift rates
            # are nonnegative, so only a negative rate needs the full check.
            if self.W is not None and np.min(self._dynamic_rows) < 0.0:
                self._check(len(self._plan) - 1)

    def _score(self, k: int, out: np.ndarray) -> np.ndarray:
        """Candidate ``k``'s score into ``out``, from the differences."""
        terms = self._plan[k]
        if not terms:
            out.fill(0.0)
            return out
        (j, c), *rest = terms
        np.multiply(self._diffs[j], c, out=out)
        for j, c in rest:
            np.multiply(self._diffs[j], c, out=self._tmp)
            out += self._tmp
        return out

    def _max_score(self, src: dict) -> np.ndarray:
        """The best candidate's score against ``src``, in ``_scores[0]``: a
        pairwise maximum chain in candidate order, the order in which
        ``np.max(axis=0)`` reduces, folding in each score, written to
        ``_scores[1]``, while it is still in cache."""
        self._differences(src)
        best = self._score(0, self._scores[0])
        for k in range(1, len(self._plan)):
            np.maximum(best, self._score(k, self._scores[1]), out=best)
        return best

    def step(self):
        self._refresh_ghosts()
        src = self._views[self._cur]
        self._cur ^= 1
        out = self._views[self._cur][self._centre]
        np.multiply(self.W0, src[self._centre], out=out)
        for o, w in self.W.items():
            np.multiply(w, src[o], out=self._tmp)
            out += self._tmp
        if self.offsets:
            best = self._max_score(src)
            best *= self.dt_mask
            out += best

    def argmax(self) -> np.ndarray:
        """Index of the best candidate per node against the current field: a
        running index that moves only to a strictly greater score, so ties
        resolve to the lowest index, as with ``np.argmax``."""
        if not self.offsets:
            return np.zeros(self.pos.size, dtype=np.int64)
        self._refresh_ghosts()
        self._differences(self._views[self._cur])
        best, score = self._score(0, self._scores[0]), self._scores[1]
        arg, better = np.zeros(self.span, dtype=np.int64), np.empty(self.span, dtype=bool)
        for k in range(1, len(self._plan)):
            np.greater(self._score(k, score), best, out=better)
            np.copyto(arg, k, where=better)
            np.maximum(best, score, out=best)
        return arg[self.pos]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _split_stencil(sys: SystemModel, inputs: list, shared=False, dynamic=False):
    """CFL load and stencil, with the critical-input candidate when
    ``dynamic``, for the candidate input arrays ``inputs``, each (nodes,
    n_u); ``shared`` when the noise does not depend on the input.  Rates no
    candidate changes go to the base.

    Memory: the noise Gram is evaluated a block of nodes at a time and kept
    as the entries the rates read; the drift one candidate at a time, its
    CFL load folded in at once, keeping the first candidate's drift and, of
    each later one, only the columns whose bytes differ from it.  Each
    candidate's columns are dropped once its rows are compiled, so the peak
    stays near the stencil's own size."""
    spec, interior = sys.grid, sys.interior_mask()
    n, N, h, nodes = spec.dims, spec.size, spec.spacing, spec.nodes()
    grams = [_gram_entries(sys, nodes, U) for U in (inputs[:1] if shared else inputs)]
    quad = _QuadraticInput(sys, nodes) if dynamic else None
    quad_terms = [] if quad is None else [quad.c0, quad.c1, quad.c2]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if any(np.any(g[(i, j)] != 0.0) for g in grams)
             or any(np.any(c[:, i, j] != 0.0) for c in quad_terms)]
    for g in grams:
        for i, j in [key for key in g if key[0] != key[1] and key not in pairs]:
            del g[(i, j)]
    diff_loads = [_diffusion_load(lambda i, j, g=g: g[(i, j)], h, pairs) for g in grams]

    node_load = drift_peak = 0.0
    own, drift_var = [], set()
    for k, U in enumerate(inputs):
        F = sys.drift(nodes, U).reshape((N, n))
        if k == 0:
            F0, cols = F, {}
        else:
            cols = {d: F[:, d].copy() for d in range(n) if not _same_bytes(F[:, d], F0[:, d])}
            drift_var |= {d for d in cols if not np.array_equal(F[:, d], F0[:, d])}
        own.append(cols)
        drift_load = np.abs(F) @ (1.0 / h)
        del F
        node_load = np.maximum(node_load, drift_load + diff_loads[k % len(grams)])
        if quad is not None:
            drift_peak = np.maximum(drift_peak, drift_load)
        del drift_load
    del nodes
    if quad is not None:
        # Affine drift peaks at a box corner, so only the critical
        # candidate's noise needs its own (interval max) bound.
        bound = quad.gram_bound()
        node_load = np.maximum(node_load, drift_peak + _diffusion_load(
            lambda i, j: bound[:, i, j], h, pairs))
        del bound, drift_peak
    load = float(np.max(node_load[interior])) if np.any(interior) else 0.0
    del diff_loads, node_load
    diff = []
    while grams:  # each gram's entries are freed once its rates are formed
        g = grams.pop(0)
        diff.append(_diffusion_rates(lambda i, j: g[(i, j)], h, pairs))
        del g

    drift_var = sorted(drift_var)
    diff_var = {o for o in diff[0]
                if any(not np.array_equal(r[o], diff[0][o]) for r in diff[1:])}
    if quad is not None:
        diff_var |= quad.touched(n)
    offsets = sorted({_offset(n, (d, s)) for d in drift_var for s in (1, -1)} | diff_var)
    base = _drift_rates(lambda d: F0[:, d], h, [d for d in range(n) if d not in drift_var])
    for o, r in diff[0].items():
        if o not in diff_var:
            base[o] = base[o] + r if o in base else r
    own[0] = {d: F0[:, d].copy() for d in drift_var}
    del F0
    own = [{d: cols.get(d, own[0][d]) for d in drift_var} for cols in own]
    diff = [{o: r[o] for o in diff_var} for r in diff]
    stencil = _Stencil(spec, interior, base, offsets)
    lo, hi = (own[0], own[-1]) if quad is not None else (None, None)
    for k in range(len(own)):
        drift, own[k] = _drift_rates(own[k].get, h, drift_var), None
        stencil.add_candidate(drift.get(o, 0.0) + (diff[k % len(diff)][o] if o in diff_var else 0.0)
                              for o in offsets)
        del drift
    if quad is not None:
        quad.bind(stencil, stencil.add_dynamic(), h, lo, hi, drift_var, diff_var, pairs)
        stencil.dynamic = quad
    stencil.compile()
    return load, stencil


class _Operator:
    """The optimal-control operator over ``cfg.horizon``, or under a fixed
    ``policy`` the fixed-policy one (0 ``candidates``), built once.  Reuse is
    exact: ``load`` rewrites every node, ghosts are refreshed before each step
    and each argmax, a step writes its whole output span, and the critical
    input is recomputed from the field at every step.

    A build first empties the idle slot (module docstring), so the last
    one-shot call's operator is freed before this one allocates.  Between
    one-shot calls with one key (the model by identity, the config by value,
    the policy by identity) the operator waits in that slot; a model must
    not be mutated after its first use."""

    def __init__(self, sys: SystemModel, cfg: PropagationConfig,
                 policy: PolicyTable | None = None):
        _take_idle()
        self.sys, self.inputs = sys, None
        if policy is not None:
            _check_specs(policy, sys, "policy")
            self.candidates = 0
            self.load, self.stencil = _split_stencil(sys, [policy.inputs])
        else:
            dynamic = False
            if np.all(sys.input_upper == sys.input_lower):
                self.inputs = sys.input_center()[None, :]
            elif sys.regime == "nonaffine":
                self.inputs = sys.input_grid(cfg.candidate_points)
            else:
                self.inputs = sys.input_corners()
                dynamic = sys.regime == "quadratic"
            self.candidates = len(self.inputs) + dynamic
            self.load, self.stencil = _split_stencil(
                sys, [np.broadcast_to(u, (sys.grid.size, sys.n_u)) for u in self.inputs],
                sys.flags.sigma_u_independent or sys.flags.sigma_zero, dynamic)
        self.steps, self.dt = 0, 0.0
        if cfg.horizon > 0.0:
            bound = math.inf if self.load <= 0.0 else cfg.cfl_safety / self.load
            if bound < _MIN_DT:
                raise StabilityViolation(
                    f"stable step {bound:.3e} is below the floor {_MIN_DT:.1e}")
            if cfg.dt is not None and cfg.dt > bound * (1.0 + 1e-12):
                raise StabilityViolation(
                    f"requested dt {cfg.dt:.3e} exceeds the stability bound {bound:.3e}")
            self.steps = max(1, math.ceil(cfg.horizon / (cfg.dt or bound) - 1e-12))
            self.dt = cfg.horizon / self.steps
            self.stencil.fold_step(self.dt)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``T values`` (``values`` itself at a zero horizon), left in the
        stencil for :meth:`policy`."""
        self.stencil.load(values)
        for _ in range(self.steps):
            self.stencil.step()
        return self.stencil.values() if self.steps else values

    def policy(self) -> PolicyTable:
        """The winning candidate input per node against the field in the stencil."""
        arg = self.stencil.argmax()
        out = self.inputs[np.minimum(arg, len(self.inputs) - 1)]
        if self.stencil.dynamic is not None:
            dyn = arg == len(self.inputs)
            out[dyn, 0] = self.stencil.dynamic.ustar[self.stencil.pos][dyn]
        return PolicyTable(self.sys.grid, out, self.sys.input_lower, self.sys.input_upper)


# The last one-shot call's operator while it is idle, with its key:
# (model, config, policy, operator), or None.
_idle = None
_idle_lock = threading.Lock()


def _take_idle():
    """Empty the slot and return what it held."""
    global _idle
    with _idle_lock:
        held, _idle = _idle, None
    return held


@contextmanager
def _one_shot(sys: SystemModel, cfg: PropagationConfig, policy: PolicyTable | None = None):
    """The operator for this key: the idle one when the slot holds it, else a
    new build.  It goes back to the slot when the block ends without raising."""
    global _idle
    held = _take_idle()
    if held is not None and held[0] is sys and held[1] == cfg and held[2] is policy:
        op = held[3]
    else:
        held = None  # freed before the build allocates
        op = _Operator(sys, cfg, policy)
    yield op
    with _idle_lock:
        _idle = (sys, cfg, policy, op)


def _check_specs(field, sys: SystemModel, what: str = "field"):
    """Raise unless ``field`` (a field or a policy) lives on the system grid."""
    if field.spec != sys.grid:
        raise ValueError(f"{what} grid does not match the system grid")


# --- generator at a single node ----------------------------------------------


def apply_generator(field: ScalarField, sys: SystemModel, u: np.ndarray,
                    node: int) -> float:
    """Discrete generator value at one interior node for a fixed input.

    Uses the same upwind/central stencil as :func:`propagate`, with
    boundary/exterior neighbor values read as zero (the killed process
    assigns zero outside the interior).
    """
    _check_specs(field, sys)
    spec = field.spec
    cls = sys.node_classes()
    node = int(node)
    if cls[node] != INTERIOR:
        raise NotInterior(f"node {node} is not interior")
    shape = spec.shape
    idx = np.array(np.unravel_index(node, shape))
    vals = field.values
    h = spec.spacing

    def read(mi):
        mi = list(mi)
        for d in range(spec.dims):
            if spec.periodic[d]:
                mi[d] %= shape[d]
            elif mi[d] < 0 or mi[d] >= shape[d]:
                return 0.0
        flat = int(np.ravel_multi_index(mi, shape))
        return vals[flat] if cls[flat] == INTERIOR else 0.0

    x = np.array([spec.coordinates(d)[idx[d]] for d in range(spec.dims)])
    u = np.asarray(u, dtype=float).ravel()
    f = np.asarray(sys.drift(x, u), dtype=float).ravel()
    a = np.asarray(sys.gram(x, u), dtype=float)

    v0 = vals[node]
    total = 0.0
    for i in range(spec.dims):
        ip = idx.copy(); ip[i] += 1
        im = idx.copy(); im[i] -= 1
        vp, vm = read(ip), read(im)
        total += max(f[i], 0.0) * (vp - v0) / h[i]
        total += min(f[i], 0.0) * (v0 - vm) / h[i]
        total += 0.5 * a[i, i] * (vp - 2.0 * v0 + vm) / h[i] ** 2
    for i in range(spec.dims):
        for j in range(i + 1, spec.dims):
            if a[i, j] == 0.0:
                continue
            def read2(oi, oj):
                mi = idx.copy(); mi[i] += oi; mi[j] += oj
                return read(mi)
            faces = read2(1, 0) + read2(-1, 0) + read2(0, 1) + read2(0, -1)
            denom = 2.0 * h[i] * h[j]
            spos = (2.0 * v0 + read2(1, 1) + read2(-1, -1) - faces) / denom
            sneg = -(2.0 * v0 + read2(1, -1) + read2(-1, 1) - faces) / denom
            total += max(a[i, j], 0.0) * spos + min(a[i, j], 0.0) * sneg
    return float(total)


# --- fixed-policy propagation --------------------------------------------------


def propagate(field: ScalarField, sys: SystemModel, policy: PolicyTable,
              cfg: PropagationConfig) -> ScalarField:
    """Apply the killed semigroup over ``cfg.horizon`` under a fixed policy.

    The result is zero outside the interior; a zero horizon returns the
    input unchanged (the identity operator).
    """
    _check_specs(field, sys)
    with _one_shot(sys, cfg, policy) as op:
        return ScalarField(sys.grid, op.apply(field.values))


# --- optimal-control propagation ----------------------------------------------


class _QuadraticInput:
    """The clamped stationary point in ``u`` of the central-difference
    generator for a scalar input with affine drift ``f0 + g1 u`` and noise
    Gram ``c0 + c1 u + c2 u^2`` (exact when the Gram is quadratic): one more
    candidate, recomputed at every node and step and scored with the upwind
    generator like the others.  The Gram is fitted here; the drift is read
    from the two corners in :meth:`bind`."""

    def __init__(self, sys: SystemModel, nodes: np.ndarray):
        self.c0, self.c1, self.c2 = sys.fit_quadratic(
            lambda U: [sys.gram(nodes, np.full((sys.grid.size, 1), u)) for u in U[:, 0]])
        self.lo, self.hi, n = sys.input_lower[0], sys.input_upper[0], sys.n_x
        # Diagonal entries first, as the stationary-point sums are ordered.
        self.varying = sorted(
            [(i, j) for i in range(n) for j in range(i, n)
             if np.any(self.c1[:, i, j] != 0.0) or np.any(self.c2[:, i, j] != 0.0)],
            key=lambda p: p[0] != p[1])

    def gram_bound(self) -> np.ndarray:
        """Entrywise max of ``|a(u)|`` over the input interval (for the CFL bound)."""
        lo, hi = self.lo, self.hi
        out = []
        for c0, c1, c2 in ((self.c0, self.c1, self.c2), (-self.c0, -self.c1, -self.c2)):
            m = np.maximum(*[c0 + c1 * u + c2 * u**2 for u in (lo, hi)])
            crit = np.where(c2 != 0.0, -c1 / (2.0 * np.where(c2 == 0, 1.0, c2)), lo)
            inside = (crit > lo) & (crit < hi) & (c2 != 0.0)
            out.append(np.where(inside, np.maximum(m, c0 + c1 * crit + c2 * crit**2), m))
        return np.maximum(*out)

    def touched(self, n: int) -> set:
        """Offsets whose diffusion rate depends on the input."""
        return {o for i, j in self.varying for o in
                [_offset(n, (d, s)) for d in (i, j) for s in (1, -1)]
                + [_offset(n, (i, si), (j, sj)) for si in (1, -1) for sj in (1, -1) if i != j]}

    def bind(self, stencil: "_Stencil", rows: np.ndarray, h, F_lo: dict, F_hi: dict,
             drift_dims, diff_offsets, pairs):
        """Compile the per-step work onto the stencil's span, once per apply:
        the offsets, the padded coefficients, the constant products
        ``c * c1`` and ``c * c2``, and one buffer for every per-step array.
        ``rows`` are the candidate's rows on the stencil, ``F_lo`` and
        ``F_hi`` the drift components ``drift_dims`` at the lower and upper
        input.  Rates that none of the rows reads are not built."""
        n, span, pad = len(h), stencil.span, stencil.pad
        at = lambda *moves: _offset(n, *moves)
        self.h, self.pairs, self._v0 = h, pairs, (0,) * n
        g1 = {i: (F_hi[i] - F_lo[i]) / (self.hi - self.lo) for i in drift_dims}
        f0 = {i: F_lo[i] - g1[i] * self.lo for i in drift_dims}
        # Terms of the stationary-point sums, in their order of addition.
        self._grads = [(i, at((i, -1)), at((i, 1)), pad(g1[i])) for i in drift_dims]
        self._curvs = []
        for i, j in self.varying:
            c = 0.5 if i == j else 1.0
            keys = ([at((i, 1)), at((i, -1))] if i == j else
                    [at((i, 1)), at((i, -1)), at((j, 1)), at((j, -1))]
                    + [at((i, si), (j, sj)) for si, sj in ((1, 1), (-1, -1), (1, -1), (-1, 1))])
            self._curvs.append((i, j, keys, pad(c * self.c1[:, i, j]), pad(c * self.c2[:, i, j])))
        self._v2, self._lin, self._quad, self._u = (_aligned(span) for _ in range(4))
        self._t = _aligned((3, span))
        self._safe = _aligned(span, bool)
        self.ustar = self._u
        # Gram entries; input-dependent ones get a buffer.  Every rate the
        # rows read depends on the input (the offsets come from ``touched``).
        self._coef = {(i, j): tuple(pad(c[:, i, j]) for c in (self.c0, self.c1, self.c2))
                      for i, j in self.varying}
        entries = {(i, j): _aligned(span) if (i, j) in self._coef else pad(self.c0[:, i, j])
                   for i in range(n) for j in range(i, n)}
        self._gram = lambda i, j: entries[(i, j)]
        # One diffusion rate per offset up to sign.
        self._rates = {o: _aligned(span) for o in sorted({_unsigned(o) for o in diff_offsets})}
        self._drift = {i: (pad(f0[i]), g1, _aligned(span)) for i, _, _, g1 in self._grads}
        # Per candidate offset: its row, the drift component it moves along
        # (with the step's sign and the spacing) or None, and its diffusion
        # rate or 0.0.
        self._rows = []
        for j, o in enumerate(stencil.offsets):
            moved = [d for d in range(n) if o[d]]
            d = moved[0]
            drift = (self._drift[d][2], o[d], h[d]) if len(moved) == 1 and d in self._drift else None
            rate = self._rates[_unsigned(o)] if o in diff_offsets else 0.0
            self._rows.append((rows[j], drift, rate))
        del self.c0, self.c1, self.c2

    def update(self, src: dict):
        """Write the critical input's rates into the stencil's last
        candidate; ``src`` maps offsets to the shifted field."""
        h, v0, v2, lin, quad, u = self.h, src[self._v0], self._v2, self._lin, self._quad, self._u
        t, t2, faces = self._t
        # d/du [ grad.f0 + grad.(g1 u) + 1/2 sum H_ij (c0+c1 u+c2 u^2)_ij ]
        #   = grad.g1 + 1/2 sum H_ij c1_ij + u sum H_ij c2_ij
        lin.fill(0.0)
        quad.fill(0.0)
        for i, minus, plus, g1 in self._grads:
            np.subtract(v0, src[minus], out=t)
            t /= h[i]
            np.subtract(src[plus], v0, out=t2)
            t2 /= h[i]
            t += t2
            t /= 2.0
            t *= g1
            lin += t
        np.multiply(2.0, v0, out=v2)
        for i, j, keys, cc1, cc2 in self._curvs:
            if i == j:
                np.subtract(src[keys[0]], v2, out=t)
                t += src[keys[1]]
                t /= h[i] ** 2
            else:
                ip, im, jp, jm, pp, mm, pm, mp = (src[k] for k in keys)
                denom = 2.0 * h[i] * h[j]
                np.add(ip, im, out=faces)
                faces += jp
                faces += jm
                np.add(v2, pp, out=t2)
                t2 += mm
                t2 -= faces
                t2 /= denom
                np.add(v2, pm, out=t)
                t += mp
                t -= faces
                np.negative(t, out=t)
                t /= denom
                t += t2
                t *= 0.5  # the 4-point central stencil
            np.multiply(cc1, t, out=t2)
            lin += t2
            np.multiply(cc2, t, out=t2)
            quad += t2
        np.multiply(2.0, quad, out=quad)
        np.greater(np.abs(quad, out=t), 1e-300, out=self._safe)
        np.negative(lin, out=lin)
        u.fill(self.lo)
        np.divide(lin, quad, out=u, where=self._safe)
        np.clip(u, self.lo, self.hi, out=u)

        for (i, j), (c0, c1, c2) in self._coef.items():
            a = self._gram(i, j)
            np.multiply(u, c2, out=a)
            np.add(c1, a, out=a)
            a *= u
            np.add(c0, a, out=a)
        for o, rate in self._rates.items():
            _diffusion_rate(o, self._gram, h, self.pairs, rate, t)
        for f0, g1, f in self._drift.values():
            np.multiply(g1, u, out=f)
            np.add(f0, f, out=f)
        for row, drift, rate in self._rows:
            if drift is None:
                np.add(0.0, rate, out=row)
                continue
            f, sign, hd = drift
            np.maximum(f if sign > 0 else np.negative(f, out=row), 0.0, out=row)
            row /= hd
            row += rate


def propagate_optimal(field: ScalarField, sys: SystemModel,
                      cfg: PropagationConfig):
    """Apply the semigroup while choosing the pointwise safest input.

    At every node and internal time step the candidate input that maximizes
    the discrete upwind generator is used.  The candidates are the input
    box corners, a Cartesian input grid, or, for a scalar input with a
    quadratic noise Gram, the corners plus the clamped stationary point of
    the central-difference generator; that last one is scored with the
    upwind generator and is not its argmax over the input interval.
    Returns the final field and the policy of winning candidates evaluated
    against the final field.
    """
    _check_specs(field, sys)
    with _one_shot(sys, cfg) as op:
        return ScalarField(sys.grid, op.apply(field.values)), op.policy()


def argmax_policy(field: ScalarField, sys: SystemModel,
                  cfg: PropagationConfig) -> PolicyTable:
    """Pointwise argmax of the discrete generator against a fixed field."""
    _check_specs(field, sys)
    with _one_shot(sys, replace(cfg, horizon=0.0)) as op:
        op.apply(field.values)
        return op.policy()
