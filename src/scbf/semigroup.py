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
Monotonicity means no negative weight, and each weight has one owner.  The
CFL cap owns the centre: a candidate's total rate, base plus own rows,
``sum_i |f_i|/h_i + sum_i a_ii/h_i^2 - sum_{i<j} |a_ij|/(h_i h_j)``, is
never above the load, so ``W_0 >= 1 - cfl_safety`` up to roundoff for every
candidate, which the tests check.  The stencil check owns the rest: a rate
goes negative only with noise not diagonally dominant in the scaled sense
``a_ii/h_i >= sum_j |a_ij|/h_j`` (all built-in benchmarks have diagonal
``a``); such a rate plus its base weight is checked when ``dt`` is folded
in and, for the critical input, after a step, and a violation raises
:class:`StabilityViolation` naming the node and the offset.

The generator ``A^u b = sum_o q_o (b[o] - b)`` (:func:`generator_field`)
is read from the same stencil: a step without ``dt``, taken on an operator
built at zero horizon, whose rates are not folded
(:meth:`_Stencil.generator`).  So it has no cancellation from
``(S b - b) / dt``, and there is no second, per-node copy of the stencil
here; the tests keep one as the reference the stencil is checked against.

The optimal-control variant integrates ``db/dtau = max_u A^u b`` by scoring
a finite candidate-input set against the discrete upwind generator at every
node and step.  The set is the model's input grid
(:meth:`~scbf.systems.SystemModel.input_grid`): ``candidate_points`` per
axis in the ``nonaffine`` regime, else two, the box corners; a degenerate
axis gives one point.  The ``quadratic`` regime (a scalar input with
quadratic-in-input noise Gram) adds one critical input, the clamped
stationary point in ``u`` of the central-difference generator, scored with
the upwind one like every other candidate; it is not the argmax of the
upwind generator over the input interval, which an interior input can beat.
Its numerator and denominator are linear in the field, sums of
coefficients times the differences ``P(x + o_j) - P(x)`` a step forms for
its scores, so it is formed on each block of a step from those
differences (:class:`_QuadraticInput`).  One function (:func:`_upwind`)
forms every upwind drift rate: of the base, of a fixed candidate and, at
every step, of the critical input.
Rates that no candidate changes form one shared base stencil; each
candidate keeps rates only on the offsets it changes, and its score
``sum_j C[j,k] (P(x + o_j) - P(x))`` is compiled, as the stencil is built,
into a plan of multiply-adds in offset order.  A rate row that is zero at
every node is dropped; a row with one value at every node (a box corner
moving a state at a constant rate) becomes a Python float; any other row
becomes one padded array, which every row with the same bytes shares (the
bicycle's four steering corners turn at ``+-v``, so their eight array terms
read two arrays).  The critical input keeps its own array per offset,
since it is rewritten at each step.  One scoring loop serves the step and
the argmax policy: it scores the candidates one at a time into two score
rows and keeps their pairwise maximum in candidate order, and for the
argmax also a running index that moves only to a strictly greater score,
so ties resolve to the lowest candidate index.

A step skips that loop when the candidates are the product of per-channel
input values and each channel moves the state to offsets of its own
(:meth:`_Stencil._groups`).  Such a channel is a group ``g``: at each node
its values go to distinct offsets ``O_g``, one value per offset, all at
one rate ``R_g``, and a step forms the best score as ``sum_g R_g (max_{o
in O_g} P[o] - P)`` over at most two groups, in place of a difference, a
score and a maximum per candidate.  The box corners of the double
integrators (``di_omni``, ``di_velocity``, ``di_deterministic``: ``[[(0,
c)], [(1, c)]]``) are one group at a float rate, and run one maximum over
the shifted sources in candidate order, one subtraction and one scaling.
The ``bicycle``'s four corners are two groups, since ``theta' = v u1`` and
``v' = u2``: the speed channel sends ``u2 = -+1`` to opposite speed
neighbours at the float ``1/h_v``, and the heading channel sends ``u1 =
-+1`` to opposite heading neighbours at ``R = |v|/h_theta``, the sum of the
two disjoint rows ``max(+-v, 0)/h_theta`` that the two steering values
swap.  That sum is formed on each block of a step, an exact ``np.add``, so
no third row is kept.

That gives the values of the score chain.  ``fl`` is monotone: ``fl(x -
P)`` is nondecreasing in ``x``, ``fl(c y)`` in ``y`` for ``c > 0`` and
``fl(a + b)`` in each argument, so the maximum commutes with each in value
at any rate ``c > 0``, and the maximum of ``fl(a_i + b_j)`` over a product
set is ``fl(max a + max b)``; with two groups a corner score has at most
two nonzero terms, so the order of summation does not matter.  The sign of
a zero can differ: at ``c = 0.4``, from ``P = 5e-324`` to neighbours
``1e-323`` and ``0``, the scores are +0.0 and -0.0, the chain keeps the
later, and the grouped part is +0.0.  A step sums ``W_0 P``, the base
terms ``W_o P[o]`` and the part times ``dt``, and a sum rounded to nearest
is -0.0 only where every addend is, so that sign reaches the output only
where ``W_0 P`` is -0.0.  On a field with no negative entry and no -0.0
(:meth:`_Stencil.load` stores -0.0 as +0.0) that needs ``W_0 < 0``.  The
``W_0`` condition is ``W_0 >= 0``; the CFL cap breaks it only by roundoff
at ``cfl_safety = 1`` (-2.2e-16 under a fixed ``bicycle`` policy with
``dt`` on the bound), so :meth:`_Stencil.fold_step` clamps ``W_0`` at
+0.0.  So from such a field a step writes the loop's bytes and no -0.0;
from a signed field only its values, as ``W_0 * -5e-324`` is -0.0 where
``W_0 < 0.5``.  The fields stepped are nonnegative:
:func:`~scbf.spectral.power_iteration` rejects a negative start, and a
monotone step keeps a field nonnegative, up to a rounding at ``cfl_safety
= 1`` or in the subnormal range.  The argmax, :meth:`_Stencil.generator`,
a fixed policy, the critical input, ``wig_aircraft``'s input grid (both
its channels move every offset) and any plan with unequal rates keep the
scoring loop.

A build keeps only what a step, the monotonicity check and the argmax
read, and makes one pass over the nodes (:func:`_split_stencil`).  Each
block of the pass (:func:`_node_blocks`) forms its node coordinates once
and evaluates there the noise Gram (formed once instead when the diffusion
declares one constant matrix) and, in one call, the drift of every
candidate, the inputs stacked ahead of the nodes as the ``(..., n_x)``
broadcasting contract of the models allows; a block holds at most
``_NODE_BLOCK`` nodes and ``_CALLBACK_ROWS`` candidate rows, so no array of
all node coordinates is formed and a callback's scratch stays a few MB.
The CFL load is reduced to the block's maximum while the block is in
cache.  Every model value and load is formed per node, so the pass has the
bits of evaluating each candidate over the whole grid however the grid is
cut into blocks; the tests check blocks down to one node.  Of the Gram the pass keeps the entries the rates read, a cross
entry from the first block where it is not +0.0; of the drift, one column
per byte-equality class of each component, the classes refined block by
block (:class:`_DriftColumns`).  A rate row is formed once per drift class,
sign and diffusion rate and shared by every candidate with that key; any
other row with the bytes of a kept one is found by a sampled fingerprint
and an exact comparison (:meth:`_Stencil.keep`), so no row is hashed whole.
A class's column is dropped once its last candidate's rows are compiled,
and no unpadded copy of a rate lives beside its padded one for long.  The
quadratic fit of the critical input runs on its own node blocks, an eighth
of ``_NODE_BLOCK`` (it holds about eight Grams per node).  On the 4-D
``bicycle`` (31x31x24x11) the traced build peak is 38.4 MiB and the
operator 34 MiB (33 and 28 MiB under a fixed policy).

A step, and the argmax, run over the span one block at a time.  Every
term of a step is elementwise per position, so a block's output reads
only that block's positions of each array (of the shifted sources too),
and the blocked step gives the bits of the unblocked one.  Blocking is
for the cache: on the ``bicycle`` grid above (span 274,824) a step makes
about 29 passes over some 22 arrays of 2.2 MB each (45 over 27 with the
scoring loop), about 50 MB per step, so over the whole span each pass
streams from L3 and the step is bound by bandwidth.  With blocks of ``2**15`` positions, 256 KiB per array, what
one block of the step touches stays near a 2 MiB L2 (Datta et al., SC
2008, on blocking bandwidth-bound stencils).  Shorter blocks gained little
and cost one more numpy call per array and block.  A span of at most
``2**15`` positions (every 2-D benchmark grid and ``wig_aircraft`` 26^3)
is one block, the whole span: split, those steps ran slower.  Only the
ghosts are refreshed over the whole span before the blocks; the critical
input and its rates are formed on each block, just after its differences.
The difference rows, the score rows, the argmax flags, the multiply
scratch and the critical input's scratch are one block long, shared by all
blocks; every other array keeps the whole span, the critical input and its
rows too.

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

The plan gives the bits of an ``einsum`` over all zero-filled rows
followed by ``np.max`` and ``np.argmax``: that einsum adds the products in
the same offset order; a dropped row only adds a zero product; a float
equal to the row at every node gives the same product at every node; a
shared array holds the row's bytes; the maximum chain compares in the order
``np.max`` reduces; and the running index keeps the first maximum, as
``np.argmax`` does.  Two differences remain, and neither reaches a result.
At ghost positions inside the span a float row gives ``c * d`` where the
zero-filled row gives zero, but the step's kill mask zeroes those positions
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
times between processes.  Blocks start at whole pages of the span, so
every block's views keep both placements.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import StabilityViolation
from .grid import GridSpec, ScalarField, _index
from .systems import SystemModel

__all__ = [
    "PolicyTable",
    "PropagationConfig",
    "generator_field",
    "propagate",
    "propagate_optimal",
    "argmax_policy",
]


class PolicyTable:
    """Tabulated feedback inputs on grid nodes, clamped into the input box
    (an infinite input to the box's face); a NaN input raises ValueError."""

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
        if np.isnan(inputs).any():
            raise ValueError("policy inputs must not be NaN")
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
        if _index(self.candidate_points, "candidate_points") < 2:
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

# Nodes per block when a stencil build evaluates the drift, the noise Gram
# or its quadratic fit: the callbacks' scratch stays near 2 MB on a 4-D grid.
_NODE_BLOCK = 4096

# Rows per drift call of a stencil build, one row per candidate and node:
# with many candidates the node block shrinks below _NODE_BLOCK, so one call
# serves every candidate of a block and its scratch stays a few MB.
_CALLBACK_ROWS = 2**15

# Span positions per block of a step (module docstring): 256 KiB per array,
# so the arrays one block of a step touches stay near a 2 MiB L2 cache.
_SPAN_BLOCK = 2**15


def _block_ranges(span: int) -> list:
    """``(start, stop)`` of the blocks a step runs over: ``ceil(span /
    _SPAN_BLOCK)`` blocks of equal length, each rounded up to whole pages,
    so every block starts at the same offset modulo a page as its array;
    the last one may be shorter.  A span of at most ``_SPAN_BLOCK`` is one
    block."""
    per_page, count = _PAGE // 8, -(-span // _SPAN_BLOCK)
    length = -(-span // (count * per_page)) * per_page
    return [(a, min(a + length, span)) for a in range(0, span, length)]


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


def _node_blocks(spec: GridSpec, block: int):
    """``(x, at)`` for each block of at most ``block`` nodes, in node order:
    ``x`` their coordinates and ``at`` their slice.  A block is whole rows of
    the last ``n - m`` axes, ``m`` as small as a block allows, so its
    coordinates are broadcast copies of the axes."""
    n, N, counts = spec.dims, spec.size, spec.shape
    axes = [spec.coordinates(d) for d in range(n)]
    m = next(m for m in range(1, n + 1) if math.prod(counts[m:]) <= block)
    per = math.prod(counts[m:])
    rows, step = N // per, block // per
    for r in range(0, rows, step):
        lead = np.unravel_index(np.arange(r, min(r + step, rows)), counts[:m])
        x = np.empty(lead[0].shape + counts[m:] + (n,))
        for d in range(n):
            x[..., d] = (axes[d][lead[d]] if d < m else axes[d]).reshape(
                (-1,) + (1,) * (n - 1 - max(d, m - 1)))
        yield x.reshape(-1, n), slice(r * per, (r + len(lead[0])) * per)


def _node_entries(spec: GridSpec, evaluate, keys, block: int = _NODE_BLOCK) -> list:
    """Per array that ``evaluate(x, at)`` returns, a dict of its entries
    ``[:, *key]`` at every node (key ``()``: the whole array), evaluated on
    the node blocks of :func:`_node_blocks`."""
    N, entries = spec.size, None
    for x, at in _node_blocks(spec, block):
        values = evaluate(x, at)
        if entries is None:
            entries = [{key: np.empty((N,) + v.shape[1 + len(key):]) for key in keys}
                       for v in values]
        for entry, v in zip(entries, values):
            for key, e in entry.items():
                e[at] = v[(slice(None), *key)]
    return entries


def _upwind(f: np.ndarray, s: int, h_d: float, out: np.ndarray | None = None) -> np.ndarray:
    """The upwind rate ``max(s f, 0) / h_d`` towards the neighbor one step
    ``s`` (+-1) along drift component ``f``, into ``out`` when given: the
    backward equation reads values where the state flows to."""
    if s < 0:
        f = out = np.negative(f, out=out)
    out = np.maximum(f, 0.0, out=out)
    out /= h_d
    return out


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


def _fold(row: np.ndarray):
    """A per-node row as a stencil keeps it: ``None`` where it is zero at
    every node, the float where it has one value at every node, else the
    row itself."""
    if not row.any():
        return None
    if np.all(row == row[0]):
        return float(row[0])
    return row


class _Block:
    """The views one block of the span gives a step or an argmax, for one
    parity of the ping-pong buffers: ``src`` and ``out`` are the centre
    views of the buffer read and of the one written, ``weights`` pairs each
    base weight with its shifted source, ``diffs`` each difference row with
    its shifted source, and ``plan`` holds each candidate's terms as
    ``(difference row, coefficient)``; ``scores``, ``better`` (the argmax's
    flags) and ``tmp`` are scratch rows shared by all blocks, and
    ``dynamic`` is what the dynamic candidate compiled for the block.  When
    a step takes one shifted maximum per input channel
    (:meth:`_Stencil._groups`), ``groups`` holds each group's shifted
    sources and its rate (a float, or the rows whose sum it is); else
    ``groups`` is empty."""

    __slots__ = ("at", "src", "out", "W0", "weights", "dt_mask", "diffs", "plan",
                 "scores", "better", "tmp", "dynamic", "groups")


class _Stencil:
    """``P <- W_0 P + sum_o W_o P[o] + dt mask max_k sum_j C[j,k] (P[o_j] - P)``.

    ``base`` holds the rates no candidate input changes; ``fold_step`` makes
    them weights with ``dt`` and the kill mask folded in.  ``C[j, k]`` is
    candidate ``k``'s rate towards ``offsets[j]``, unmasked so the argmax
    policy is defined on boundary nodes too; ``dynamic`` rewrites the last
    candidate's rates on every block of every evaluation, from the block's
    differences.

    Storage: only what a step, the monotonicity check and the argmax read.
    ``add_candidate`` compiles each candidate's score ``sum_j C[j,k] (P[o_j]
    - P)`` into ``(j, coefficient)`` terms in offset order (module
    docstring), each row kept by ``keep``: a row zero at every node is
    dropped, a row with one value at every node becomes that float, and any
    other row is one padded array, shared by every term whose row has the
    same bytes (``_rows``, keyed by a fingerprint of sampled bytes and a
    serial number).  The dynamic candidate keeps one array per offset
    (``_dynamic_rows``), since it is rewritten at every step.  Only the differences ``P[o_j] - P`` that
    some term reads are formed.  A step writes the first candidate's score
    into ``_scores[0]`` and folds each later one, written to ``_scores[1]``,
    in with ``np.maximum`` while it is still in cache; ``argmax`` does the
    same with a running index, so two score rows serve any candidate count.
    When the candidates are the product of per-channel values and each
    channel moves the state to its own offsets at one rate ``R_g``
    (``_groups``, from ``channels``), a step writes ``sum_g R_g (max_{o in
    O_g} P[o] - P)`` over at most two groups into ``_scores[0]`` instead,
    with the same values, and the step the same bits from a field with no
    negative entry (module docstring).

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

    Blocks: a step and an argmax run over the span one block at a time
    (:func:`_block_ranges`), up to ``2**15`` positions, 256 KiB per array,
    so that what one block of a step touches stays near a 2 MiB L2 (module
    docstring); a span no longer is one block.  The differences, the two
    score rows and ``_tmp`` are one block long and shared by all blocks.
    ``compile`` slices every block's views once, for both buffer parities
    (``_blocks``), and has the dynamic candidate compile its own per block.
    Only the ghosts are refreshed over the whole span before the block
    loop; the dynamic candidate rewrites its rows on each block once its
    differences are formed, and the check of a rate that went negative runs
    over the whole span after the loop.

    Placement (:func:`_aligned`): the centre view of each ping-pong buffer,
    every weight, every candidate row and every scratch array a step reads
    or writes starts on a 64-byte cache line, and the two centre views sit
    2048 bytes apart modulo 4096.  Blocks start at whole pages of the span,
    so every block view keeps both properties.  A vector store that splits
    a cache line costs about twice one that does not, so a misaligned output
    doubles the cost of a streaming multiply; and a load whose address
    matches, modulo 4096, that of a store just issued waits for it (4K
    aliasing), which the half-page gap keeps away from the step's reads of
    one buffer and writes of the other.  The heap gives no such guarantee:
    the same step ran up to 1.5 times slower in one process than in another.

    Monotonicity: centre weights are the CFL cap's, unchecked here;
    ``_check`` owns the off-centre ones (module docstring).

    Build order: ``_Stencil(...)`` pads the base rates, popping each from
    the caller's dict; ``add_candidate`` once per fixed candidate, in order,
    with its rows as ``keep`` returns them;
    ``add_dynamic`` for a dynamic last candidate; ``fold_step`` when the
    horizon is positive; then ``compile`` allocates the scratch rows and
    slices the blocks.
    """

    def __init__(self, spec: GridSpec, interior: np.ndarray, base: dict, offsets):
        n, shape = spec.dims, spec.shape
        ghost = np.array(spec.periodic, dtype=int)
        self.shape, padded = shape, tuple(int(c) for c in np.add(shape, 2 * ghost))
        strides = [int(np.prod(padded[d + 1:])) for d in range(n)]
        first, margin, size = int(np.dot(ghost, strides)), sum(strides), int(np.prod(padded))
        self.span = sum((c - 1) * s for c, s in zip(shape, strides)) + 1
        self._strides = strides
        self.pos = self._nodes(np.arange(self.span)).ravel()
        self._interior_nodes, self.interior = interior, self.pad(interior)
        self.base = {}
        for o in list(base):
            r = base.pop(o)
            if np.any((r != 0.0) & interior):
                self.base[o] = self.pad(r)
        self.offsets = list(offsets)
        self._plan, self._rows, self._dynamic_rows = [], {}, None
        # Each candidate's value index per input channel (_product_indices).
        self.dynamic = self.W = self.channels = None
        self._negative = False
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

    def _nodes(self, a: np.ndarray) -> np.ndarray:
        """The nodes of span array ``a`` as a strided view shaped like the
        grid: node ``i`` sits at ``sum_d i_d strides_d`` (``pos``)."""
        return np.lib.stride_tricks.as_strided(
            a, self.shape, [s * a.itemsize for s in self._strides])

    def pad(self, node_values: np.ndarray) -> np.ndarray:
        out = _aligned(self.span, node_values.dtype)
        self._nodes(out)[...] = node_values.reshape(self.shape)
        return out

    def keep(self, row: np.ndarray):
        """A per-node rate row as a plan keeps it (:func:`_fold`): None, a
        float, or one padded array shared by every kept row with its bytes.
        A new row is compared exactly only with kept rows whose sampled
        bytes match its own."""
        row = _fold(row)
        if not isinstance(row, np.ndarray):
            return row
        row = self.pad(row)
        sample = hash(row[::-(-self.span // 64)].tobytes())
        for i in itertools.count():
            kept = self._rows.setdefault((sample, i), row)
            if kept is row or _same_bytes(kept, row):
                return kept

    def add_candidate(self, terms):
        """Append a fixed candidate whose rate towards ``offsets[j]`` is
        ``terms[j]``, as :meth:`keep` returns it."""
        self._plan.append([(j, c) for j, c in enumerate(terms) if c is not None])

    def add_dynamic(self) -> np.ndarray:
        """Append the dynamic last candidate: one row per offset, returned
        for its owner to rewrite."""
        self._dynamic_rows = _aligned((len(self.offsets), self.span))
        self._plan.append(list(enumerate(self._dynamic_rows)))
        return self._dynamic_rows

    def compile(self):
        """Allocate the block-sized differences the plan reads, the score
        rows and ``_tmp``, and slice every block's views for both buffer
        parities."""
        ranges = _block_ranges(self.span)
        length = ranges[0][1]
        used = sorted({j for terms in self._plan for j, _ in terms})
        self._diffs = dict(zip(used, _aligned((len(used), length)))) if used else {}
        self._scores = _aligned((2, length)) if self.offsets else None
        self._better = _aligned(length, bool)
        self._tmp = _aligned(length)
        # The plan's terms on each block, shared by both buffer parities.
        plans = [[[(self._diffs[j][:b - a], c if isinstance(c, float) else c[a:b])
                   for j, c in terms] for terms in self._plan] for a, b in ranges]
        dynamic = (self.dynamic.blocks(ranges, self._diffs) if self.dynamic is not None
                   else [None] * len(ranges))
        groups = self._groups() or []
        self._blocks = []
        for src, out in ((self._views[0], self._views[1]), (self._views[1], self._views[0])):
            blocks = []
            for (a, b), plan, dyn in zip(ranges, plans, dynamic):
                block, at = _Block(), slice(a, b)
                block.at, block.plan, block.tmp, block.dynamic = at, plan, self._tmp[:b - a], dyn
                block.src, block.out = src[self._centre][at], out[self._centre][at]
                block.W0 = self.W0[at] if self.W is not None else None
                block.dt_mask = self.dt_mask[at] if self.W is not None else None
                block.weights = [(w[at], src[o][at]) for o, w in (self.W or {}).items()]
                block.diffs = [(diff[:b - a], src[self.offsets[j]][at])
                               for j, diff in self._diffs.items()]
                block.scores = None if self._scores is None else self._scores[:, :b - a]
                block.better = self._better[:b - a]
                block.groups = [([src[self.offsets[j]][at] for j in sources],
                                 rate if isinstance(rate, float) else [r[at] for r in rate])
                                for sources, rate in groups]
                blocks.append(block)
            self._blocks.append(blocks)

    def _groups(self) -> list | None:
        """The groups of a step's shifted maxima, one per input channel
        whose values move the state (module docstring), or None when the
        plan keeps the scoring loop: ``(sources, rate)`` per group, the
        offset indices its maximum runs over, in order, and its float rate
        or the rows whose sum is its rate.  The candidates must be the
        product of the channels' values (``channels``), each offset's rows
        must depend on one channel only, and each group must pass
        :meth:`_group`; at most two groups."""
        idx = self.channels
        if idx is None or self.dynamic is not None or len(self._plan) < 2:
            return None
        terms = [dict(t) for t in self._plan]
        # Per channel with two values or more, the first candidate of each.
        firsts = {c: [int(np.argmax(col == v)) for v in range(col.max() + 1)]
                  for c, col in enumerate(idx.T) if col.max() > 0}
        owned = {c: [] for c in firsts}
        for j in sorted({j for t in terms for j in t}):
            owners = [c for c, first in firsts.items()
                      if all(_same(t.get(j), terms[first[i[c]]].get(j)) for t, i in zip(terms, idx))]
            if len(owners) != 1:
                return None
            owned[owners[0]].append(j)
        groups = [self._group([terms[k] for k in firsts[c]], js) for c, js in owned.items() if js]
        return groups if len(groups) <= 2 and None not in groups else None

    def _group(self, values: list, offsets: list):
        """One channel's group, ``(sources, rate)`` as :meth:`_groups`
        returns it, or None: ``values`` holds each value's terms (offset
        index to coefficient), ``offsets`` the offset indices its rows
        reach, one per value.  Either every value has one term, all at one
        float, on an offset of its own (the maximum runs in value order); or
        every value has an array on every offset, the first value's arrays
        in some order, the values' arrays on each offset distinct, and at
        most one of those arrays nonzero at every position (the rate is
        their sum)."""
        if len(values) != len(offsets):
            return None
        rows = [[t.get(j) for j in offsets] for t in values]
        kept = [[c for c in r if c is not None] for r in rows]
        if all(len(c) == 1 and isinstance(c[0], float) for c in kept):
            rate = kept[0][0]
            sources = [next(j for j, c in zip(offsets, r) if c is not None) for r in rows]
            if all(c[0] == rate for c in kept) and len(set(sources)) == len(offsets):
                return sources, rate
            return None
        first = sorted(map(id, rows[0]))
        if not (all(isinstance(c, np.ndarray) for c in rows[0])
                and all(sorted(map(id, r)) == first for r in rows)
                and all(len({id(c) for c in column}) == len(rows) for column in zip(*rows))):
            return None
        moved = np.zeros(self.span, dtype=np.uint8)
        for c in rows[0]:
            moved += c != 0.0
        return (offsets, rows[0]) if moved.max() <= 1 else None

    def load(self, flat_values: np.ndarray):
        """Store ``flat_values`` on the interior nodes and +0.0 elsewhere,
        -0.0 as +0.0 (module docstring)."""
        values = np.where(self._interior_nodes, flat_values, 0.0)
        values += 0.0
        self._views[self._cur][self._centre][self.pos] = values

    def values(self) -> np.ndarray:
        return self._views[self._cur][self._centre][self.pos]

    def fold_step(self, dt: float):
        """Fold ``dt`` and the kill mask into the weights and check the
        off-centre weights of the base and of every fixed candidate; the
        CFL cap keeps the centre weights nonnegative, and ``W0`` is clamped
        at +0.0 against its roundoff (module docstring)."""
        self.dt_mask, self.W0 = _aligned(self.span), _aligned(self.span)
        np.copyto(self.dt_mask, dt, where=self.interior)
        # W0 = 1 - dt * (sum of base rates) and W_o = dt_mask * rate, built in
        # place on the aligned arrays.
        for r in self.base.values():
            self.W0 += r
        self.W0 *= dt
        np.subtract(1.0, self.W0, out=self.W0)
        np.maximum(self.W0, 0.0, out=self.W0)
        np.copyto(self.W0, 0.0, where=~self.interior)
        for r in self.base.values():
            r *= self.dt_mask
        self.W, self.base = self.base, None
        self._check(None)
        for k in range(len(self._plan) - (self.dynamic is not None)):
            self._check(k)

    def _check(self, k):
        """Raise on a negative off-centre weight at an interior node, in
        offset order: of the base for ``k = None``, else of candidate ``k``'s
        rows that go negative somewhere, each plus the base weight at its
        offset.  A row nonnegative at every position, or a dropped one,
        leaves its offset's weight no lower than the base checked; centre
        weights are the CFL cap's (module docstring)."""
        if k is None:
            weights = self.W.items()
        else:
            rows = [(self.offsets[j], c) for j, c in self._plan[k] if np.min(c) < 0.0]
            weights = ((o, self.dt_mask * c + self.W.get(o, 0.0)) for o, c in rows)
        for o, w in weights:
            at = int(np.argmin(w))
            if w[at] < -_WEIGHT_TOL:
                node = int(np.searchsorted(self.pos, at))
                index = tuple(int(i) for i in np.unravel_index(node, self.shape))
                raise StabilityViolation(
                    f"non-monotone stencil{'' if k is None else f' under candidate {k}'}: "
                    f"weight {w[at]:.3e} at node {node} {index} on offset {o}; the noise "
                    "Gram matrix is not diagonally dominant (a_ii/h_i >= sum_j |a_ij|/h_j)")

    def _refresh(self):
        """The ghosts of the current field, over the whole span."""
        for ghost, node in self._ghosts[self._cur]:
            np.copyto(ghost, node)

    def _check_dynamic(self):
        """After a block loop, :meth:`_check` of the dynamic candidate on its
        rows of every block, when one went negative on some block.  Its
        centre weight is the CFL cap's, like every candidate's, and drift
        rates are nonnegative, so only a negative rate needs the check; a
        stencil without ``dt`` folded in has no weights to check."""
        if self._negative:
            self._negative = False
            if self.W is not None:
                self._check(len(self._plan) - 1)

    @staticmethod
    def _score(terms, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """A candidate's score into ``out`` from its block terms
        ``(difference row, coefficient)``."""
        if not terms:
            out.fill(0.0)
            return out
        (d, c), *rest = terms
        np.multiply(d, c, out=out)
        for d, c in rest:
            np.multiply(d, c, out=tmp)
            out += tmp
        return out

    @staticmethod
    def _differences(block: _Block):
        """The differences ``P[o_j] - P`` the plan reads, on ``block``."""
        for diff, shifted in block.diffs:
            np.subtract(shifted, block.src, out=diff)

    def _max_score(self, block: _Block, index: np.ndarray | None = None) -> np.ndarray:
        """The best candidate's score on ``block``, in its first score row:
        the differences, then a pairwise maximum chain in candidate order,
        the order in which ``np.max(axis=0)`` reduces, folding in each
        score, written to the second row, while it is still in cache.  With
        ``index``, the argmax too, moved only by a strictly greater score.
        The dynamic candidate rewrites its rows on the block from the
        differences first."""
        self._differences(block)
        if self.dynamic is not None and self.dynamic.update(block):
            self._negative = True
        best, score = block.scores
        self._score(block.plan[0], best, block.tmp)
        for k in range(1, len(block.plan)):
            self._score(block.plan[k], score, block.tmp)
            if index is not None:
                np.greater(score, best, out=block.better)
                np.copyto(index, k, where=block.better)
            np.maximum(best, score, out=best)
        return best

    @staticmethod
    def _max_grouped(block: _Block) -> np.ndarray:
        """The best candidate's score on ``block``, in its first score row,
        from its groups (:meth:`_groups`): per group, ``R_g (max_{o in O_g}
        P[o] - P)``, the maximum taken in the group's order, into a score row
        of its own, then the sum of the two rows.  It has the values of
        :meth:`_max_score`, and a step from a field with no negative entry
        its bits (module docstring)."""
        tmp = block.tmp
        for row, (shifted, rate) in zip(block.scores, block.groups):
            np.maximum(shifted[0], shifted[1], out=row)
            for source in shifted[2:]:
                np.maximum(row, source, out=row)
            row -= block.src
            if not isinstance(rate, float):
                np.add(rate[0], rate[1], out=tmp)
                for r in rate[2:]:
                    tmp += r
                rate = tmp
            row *= rate
        best = block.scores[0]
        if len(block.groups) > 1:
            best += block.scores[1]
        return best

    def step(self):
        self._refresh()
        blocks = self._blocks[self._cur]
        self._cur ^= 1
        for block in blocks:
            out, tmp = block.out, block.tmp
            np.multiply(block.W0, block.src, out=out)
            for w, shifted in block.weights:
                np.multiply(w, shifted, out=tmp)
                out += tmp
            if self.offsets:
                best = self._max_grouped(block) if block.groups else self._max_score(block)
                best *= block.dt_mask
                out += best
        self._check_dynamic()

    def argmax(self) -> np.ndarray:
        """Index of the best candidate per node against the current field,
        the lowest on a tie (:meth:`_max_score`)."""
        if not self.offsets:
            return np.zeros(self.pos.size, dtype=np.int64)
        self._refresh()
        arg = np.zeros(self.span, dtype=np.int64)
        for block in self._blocks[self._cur]:
            self._max_score(block, arg[block.at])
        self._check_dynamic()
        return arg[self.pos]

    def generator(self) -> np.ndarray:
        """``sum_o q_o (P[o] - P) + max_k sum_j C[j,k] (P[o_j] - P)`` per
        node against the current field, zero off the interior: a step
        without ``dt``, so only on a stencil whose rates are not folded
        (zero horizon)."""
        self._refresh()
        views = self._views[self._cur]
        out = np.zeros(self.span)
        for o, q in self.base.items():
            out += q * (views[o] - views[self._centre])
        if self.offsets:
            for block in self._blocks[self._cur]:
                out[block.at] += self._max_score(block)
            self._check_dynamic()
        out[~self.interior] = 0.0
        return out[self.pos]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _same(a, b) -> bool:
    """Whether two plan coefficients as :meth:`_Stencil.keep` returns them
    are one row: the same kept array, equal floats, or both None."""
    return a is b or (isinstance(a, float) and isinstance(b, float) and a == b)


def _product_indices(points: np.ndarray):
    """Each point's value index per input channel, ``(K, n_u)``, when the
    points are the product of per-channel values in ``itertools.product``
    order, as :meth:`~scbf.systems.SystemModel.input_grid` makes them, else
    None."""
    axes = [list(dict.fromkeys(col.tolist())) for col in points.T]
    if not np.array_equal(np.array(list(itertools.product(*axes))), points):
        return None
    return np.array(list(itertools.product(*(range(len(a)) for a in axes))))


class _DriftColumns:
    """Every candidate's drift at every node, one column per byte-equality
    class of each component: candidate ``k`` is in class ``cls[d][k]`` along
    component ``d``, whose column is ``cols[d][c]``.  A class's first
    candidate is its representative, so class 0 is candidate 0's.  A block
    is compared laid out as rows ``(d, k)``; ``rep`` holds each row's
    representative row and ``others`` the rows that are not their own."""

    def __init__(self, n: int, K: int, N: int):
        self.cls = [np.zeros(K, dtype=np.intp) for _ in range(n)]
        self.first = [[0] for _ in range(n)]
        self.cols = [[np.empty(N)] for _ in range(n)]
        self.rep = np.repeat(np.arange(n) * K, K)
        self.others = np.flatnonzero(self.rep != np.arange(n * K))

    def add(self, F: np.ndarray, at: slice):
        """Sort the drift ``F`` (candidates, nodes ``at``, n) of one node
        block, blocks in node order.  A candidate whose bytes differ from its
        representative's joins the class split from its own on this block
        with its bytes, or starts it, its column taking the earlier blocks
        from the old class."""
        F = np.ascontiguousarray(F.transpose(2, 0, 1))  # (n, candidates, nodes)
        K = F.shape[1]
        for Fd, first, cols in zip(F, self.first, self.cols):
            for c, k in enumerate(first):
                cols[c][at] = Fd[k]
        rows, others = F.reshape(self.rep.size, -1), self.others
        bits = rows.view(np.uint64)
        moved = others[~np.all(bits[others] == bits[self.rep[others]], axis=1)]
        split = {}
        for i in moved:
            d, k = divmod(i, K)
            cls, first, cols = self.cls[d], self.first[d], self.cols[d]
            key = (d, cls[k], rows[i].tobytes())
            if key not in split:
                col = np.empty_like(cols[cls[k]])
                col[:at.start], col[at] = cols[cls[k]][:at.start], rows[i]
                split[key] = len(cols)
                first.append(k)
                cols.append(col)
            cls[k] = split[key]
            self.rep[i] = d * K + first[cls[k]]
        if moved.size:
            self.others = np.flatnonzero(self.rep != np.arange(self.rep.size))

    def varying(self) -> list:
        """The components whose value is not the same for every candidate."""
        return [d for d, cols in enumerate(self.cols)
                if any(not np.array_equal(col, cols[0]) for col in cols[1:])]


def _split_stencil(sys: SystemModel, inputs: np.ndarray):
    """CFL load and stencil for the candidate inputs ``inputs`` (candidates,
    nodes, n_u), the node axis of length one for inputs the same at every
    node, with the critical-input candidate in the quadratic regime
    when there is more than one candidate (a fixed policy passes one).  When
    the noise does not depend on the input, one Gram serves every candidate.
    Rates no candidate changes go to the base.

    One pass over the nodes, in blocks of at most ``_NODE_BLOCK`` nodes and
    ``_CALLBACK_ROWS`` candidate rows (:func:`_node_blocks`), gives each
    block one Gram call and one drift call for all its candidates, and
    forms the CFL load's maximum there; a model whose diffusion declares
    its one matrix (:meth:`~scbf.systems.SystemModel.constant_gram`) has
    its Gram formed once and broadcast to every block instead.  (In the
    quadratic regime :class:`_QuadraticInput` first fits the Gram in a pass
    of its own.)  It keeps
    the Gram entries the rates read and, of the drift, one column per
    byte-equality class of each component (:class:`_DriftColumns`).  A candidate's rows are formed one
    offset at a time, each once per drift class, sign and diffusion rate and
    shared by every candidate with that key, and a class's column is dropped
    once its last candidate's rows are compiled, so the peak stays near the
    stencil's own size."""
    spec, interior = sys.grid, sys.interior_mask()
    n, h, N, K = spec.dims, spec.spacing, spec.size, len(inputs)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    cross = [(i, j) for i, j in upper if i != j]
    shared = sys.flags.sigma_u_independent or sys.flags.sigma_zero
    quad = _QuadraticInput(sys, upper) if sys.regime == "quadratic" and K > 1 else None
    # Affine drift peaks at a box corner, so only the critical candidate's
    # noise needs its own (interval max) bound; an entry the fit folded to a
    # float is broadcast to the block.
    bound = quad.gram_bound() if quad is not None else {}
    bound_pairs = [key for key in bound if key in cross]
    # A cross entry is stored from the first block where it has a byte other
    # than those of +0.0; until then it is +0.0 at every node.
    grams = [{(i, i): np.empty(N) for i in range(n)} for _ in range(1 if shared else K)]
    # A diffusion that declares its one matrix gives every block the same
    # entries: formed once, broadcast to each block.
    const = sys.constant_gram() if shared else None
    drift, peaks = _DriftColumns(n, K, N), []
    for x, at in _node_blocks(spec, max(1, min(_NODE_BLOCK, _CALLBACK_ROWS // K))):
        U = inputs[:, at] if inputs.shape[1] > 1 else inputs
        G = (sys.gram_entries(x, U[:1] if shared else U) if const is None  # (n, n, grams, nodes)
             else np.broadcast_to(const[:, :, None, None], (n, n, 1, len(x))))
        for k, g in enumerate(grams):
            for i, j in upper:
                if (i, j) not in g and G[i, j, k].view(np.uint64).any():
                    g[(i, j)] = np.zeros(N)
                if (i, j) in g:
                    g[(i, j)][at] = G[i, j, k]
        # A cross entry not stored yet is +0.0 here and would add +0.0.
        noise_load = _diffusion_load(lambda i, j: G[i, j], h,
                                     [key for key in cross if any(key in g for g in grams)])
        del G
        F = np.broadcast_to(np.asarray(sys.drift(x, U), dtype=float), (K, len(x), n))
        drift_load = np.abs(F, order="C") @ (1.0 / h)
        drift.add(F, at)
        del F
        node_load = np.max(drift_load + noise_load, axis=0)
        if quad is not None:
            top = np.max(drift_load, axis=0)
            np.maximum(node_load, top + _diffusion_load(lambda i, j: np.broadcast_to(
                bound[(i, j)][at] if np.ndim(bound[(i, j)]) else bound[(i, j)], top.shape),
                h, bound_pairs), out=node_load)
        inner = interior[at]
        if np.any(inner):
            peaks.append(np.max(node_load[inner]))
    del bound
    load = float(np.max(peaks)) if peaks else 0.0
    pairs = [key for key in cross if key in bound_pairs
             or any(key in g and np.any(g[key] != 0.0) for g in grams)]
    diff = []
    while grams:  # each gram's entries are freed once its rates are formed
        g = grams.pop(0)
        diff.append(_diffusion_rates(lambda i, j: g.get((i, j), 0.0), h, pairs))
        del g

    drift_var = drift.varying()
    diff_var = {o for o in diff[0]
                if any(not np.array_equal(r[o], diff[0][o]) for r in diff[1:])}
    if quad is not None:
        diff_var |= quad.touched(n)
    offsets = sorted({_offset(n, (d, s)) for d in drift_var for s in (1, -1)} | diff_var)
    base = {_offset(n, (d, s)): _upwind(drift.cols[d][0], s, h[d])
            for d in range(n) if d not in drift_var for s in (1, -1)}
    for o in diff[0]:
        if o not in diff_var:
            base[o] = base[o] + diff[0][o] if o in base else diff[0][o]
    cls, cols = drift.cls, drift.cols
    for d in range(n):
        if d not in drift_var:
            cols[d] = None
    diff = [{o: r[o] for o in diff_var} for r in diff]
    stencil = _Stencil(spec, interior, base, offsets)
    if quad is None and K > 1 and inputs.shape[1] == 1:
        stencil.channels = _product_indices(inputs[:, 0])
    lo, hi = (({d: cols[d][cls[d][k]] for d in drift_var} for k in (0, -1))
              if quad is not None else (None, None))

    kept = {}

    def row(o, k):
        """Candidate ``k``'s rate towards ``o`` as the stencil keeps it: the
        upwind drift rate along a moved ``drift_var`` dimension (else 0.0)
        plus the candidate's diffusion rate on a ``diff_var`` offset, formed
        once per drift class and sign and diffusion rate (``kept``)."""
        moved = [d for d in range(n) if o[d]]
        d, g = moved[0], k % len(diff)
        key = ((d, o[d], cls[d][k]) if len(moved) == 1 and d in drift_var else None,
               (g, _unsigned(o)) if o in diff[g] else None)
        if key not in kept:
            rate = _upwind(cols[d][key[0][2]], o[d], h[d]) if key[0] else 0.0
            kept[key] = stencil.keep(rate + diff[g][o] if key[1] else rate)
        return kept[key]

    last = {(d, c): k for k in range(K) for d in drift_var for c in [cls[d][k]]}
    for k in range(K):
        stencil.add_candidate([row(o, k) for o in offsets])
        for d in drift_var:
            if last[(d, cls[d][k])] == k:
                cols[d][cls[d][k]] = None
    if quad is not None:
        quad.bind(stencil, stencil.add_dynamic(), h, lo, hi, drift_var, diff_var, pairs)
        stencil.dynamic = quad
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
            self.load, self.stencil = _split_stencil(sys, policy.inputs[None])
        else:
            self.inputs = sys.input_grid(cfg.candidate_points if sys.regime == "nonaffine" else 2)
            self.load, self.stencil = _split_stencil(sys, self.inputs[:, None])
            self.candidates = len(self.inputs) + (self.stencil.dynamic is not None)
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
        self.stencil.compile()

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


def generator_field(field: ScalarField, sys: SystemModel, policy: PolicyTable) -> ScalarField:
    """The discrete generator ``A^u field`` at every node under a fixed
    policy: the stencil :func:`propagate` steps with, without ``dt``.

    Values off the interior read as zero (the killed process), and the
    result is zero there.
    """
    _check_specs(field, sys)
    op = _Operator(sys, PropagationConfig(horizon=0.0), policy)
    op.stencil.load(field.values)
    return ScalarField(sys.grid, op.stencil.generator())


# --- optimal-control propagation ----------------------------------------------


class _QuadraticInput:
    """The clamped stationary point in ``u`` of the central-difference
    generator for a scalar input with affine drift ``f0 + g1 u`` and noise
    Gram ``c0 + c1 u + c2 u^2`` (exact when the Gram is quadratic): one more
    candidate, recomputed at every node and step and scored with the upwind
    generator like the others.  The Gram is fitted here; the drift is read
    from the two corners in :meth:`bind`.

    The stationary point is ``lin / quad`` (the lower bound where ``quad``
    vanishes), clamped to the input interval.  Both are linear in the
    field: ``lin = sum_j L_j (P[o_j] - P)`` and ``quad = sum_j Q_j (P[o_j]
    - P)`` over the stencil's offsets, from the central gradient, the
    diagonal and the cross Hessian, which read only stencil offsets.  So
    :meth:`update` forms them on each block of a step or an argmax from the
    differences the stencil has just formed there, then the Gram entries
    that depend on ``u`` (Horner), the diffusion rates through
    :func:`_diffusion_rate`, the drift and the candidate's rows, into
    block-long scratch and the block's slice of the span-long ``ustar`` and
    rows.  :meth:`bind` compiles every coefficient once per operator, and
    :meth:`blocks` slices them per block when the stencil compiles."""

    def __init__(self, sys: SystemModel, upper: list):
        # The fit at the Gram entries ``upper``, each coefficient folded
        # (:func:`_fold`), kept for the diagonal and the off-diagonal entries
        # not zero at every node (the cross pairs).  It holds three Gram
        # samples and their combinations, about eight Grams per node, so it
        # runs on an eighth of the usual node block.
        coefs = _node_entries(sys.grid, lambda x, at: sys.fit_quadratic(
            lambda U: [sys.gram(x, np.full((len(x), 1), u)) for u in U[:, 0]]), upper,
            max(1, _NODE_BLOCK // 8))
        coefs = [{key: _fold(c.pop(key)) for key in upper} for c in coefs]
        for i, j in upper:
            if i != j and all(c[(i, j)] is None for c in coefs):
                for c in coefs:
                    del c[(i, j)]
        self.c0, self.c1, self.c2 = coefs
        self.lo, self.hi = sys.input_lower[0], sys.input_upper[0]
        self.varying = [key for key in self.c0
                        if self.c1[key] is not None or self.c2[key] is not None]

    def _coefficients(self, key) -> tuple:
        """``(c0, c1, c2)`` of Gram entry ``key``, 0.0 for a dropped one."""
        return tuple(0.0 if c[key] is None else c[key] for c in (self.c0, self.c1, self.c2))

    def gram_bound(self) -> dict:
        """Entrywise max of ``|a(u)|`` over the input interval (for the CFL
        bound), for each kept entry."""
        lo, hi = self.lo, self.hi
        bound = {}
        for key in self.c0:
            out, (c0, c1, c2) = [], self._coefficients(key)
            for c0, c1, c2 in ((c0, c1, c2), (-c0, -c1, -c2)):
                m = np.maximum(*[c0 + c1 * u + c2 * u**2 for u in (lo, hi)])
                crit = np.where(c2 != 0.0, -c1 / (2.0 * np.where(c2 == 0, 1.0, c2)), lo)
                inside = (crit > lo) & (crit < hi) & (c2 != 0.0)
                out.append(np.where(inside, np.maximum(m, c0 + c1 * crit + c2 * crit**2), m))
            bound[key] = np.maximum(*out)
        return bound

    def touched(self, n: int) -> set:
        """Offsets whose diffusion rate depends on the input."""
        return {o for i, j in self.varying for o in
                [_offset(n, (d, s)) for d in (i, j) for s in (1, -1)]
                + [_offset(n, (i, si), (j, sj)) for si in (1, -1) for sj in (1, -1) if i != j]}

    def bind(self, stencil: "_Stencil", rows: np.ndarray, h, F_lo: dict, F_hi: dict,
             drift_dims, diff_offsets, pairs):
        """Compile the per-step work once per operator.  ``rows`` are the
        candidate's rows on the stencil, ``F_lo`` and ``F_hi`` the drift
        components ``drift_dims`` at the lower and upper input,
        ``diff_offsets`` the offsets whose diffusion rate depends on the
        input.  Every coefficient, ``L_j``, ``Q_j``, the Gram's ``c0``,
        ``c1``, ``c2`` and the drift's ``f0``, ``g1``, is kept as a stencil
        keeps a candidate row (:func:`_fold`): dropped where zero at every
        node, a float where it has one value, else padded."""
        n, offsets = len(h), stencil.offsets

        def kept(c):
            """``c`` (None, a float or a per-node row) folded and padded."""
            c = None if c is None else _fold(np.atleast_1d(c))
            return stencil.pad(c) if isinstance(c, np.ndarray) else c

        def poly(*coefs):
            """Coefficients, lowest first, without the zero ones on top."""
            coefs = [kept(c) for c in coefs]
            while coefs and coefs[-1] is None:
                coefs.pop()
            return tuple(coefs)

        self.h, self.pairs, self.ustar = h, pairs, _aligned(stencil.span)
        g1 = {i: (F_hi[i] - F_lo[i]) / (self.hi - self.lo) for i in drift_dims}
        f0 = {i: F_lo[i] - g1[i] * self.lo for i in drift_dims}
        # u* = lin / quad, the sign of lin and the factor 2 of quad folded in:
        #   lin  = -(grad.g1 + 1/2 sum_ij H_ij c1_ij),  quad = sum_ij H_ij c2_ij,
        # with grad_i = (d+ - d-) / 2h_i, H_ii = (d+ + d-) / h_i^2 and
        # H_ij = (d++ + d-- - d+- - d-+) / 4 h_i h_j, d_o = P[o] - P.
        # Per offset also the candidate's row, the drift component it moves
        # along (with the step's sign and the spacing) or None, and its
        # diffusion rate (unsigned offset) or None.  Only an axis rate of a
        # dimension in a cross pair can go negative.
        self._lin, self._quad, self._rows, self._checked = [], [], [], []
        for j, o in enumerate(offsets):
            moved = [d for d in range(n) if o[d]]
            i, lin, quad = moved[0], 0.0, 0.0
            if len(moved) == 1:
                if i in g1:
                    lin = lin - o[i] * g1[i] / (2.0 * h[i])
                if (i, i) in self.varying:
                    _, c1, c2 = self._coefficients((i, i))
                    lin = lin - 0.5 * c1 / h[i] ** 2
                    quad = quad + c2 / h[i] ** 2
            elif tuple(moved) in self.varying:
                k, s = moved[1], o[i] * o[moved[1]]
                _, c1, c2 = self._coefficients((i, k))
                lin = lin - s * c1 / (4.0 * h[i] * h[k])
                quad = quad + s * c2 / (2.0 * h[i] * h[k])
            for terms, c in ((self._lin, kept(lin)), (self._quad, kept(quad))):
                if c is not None:
                    terms.append((j, c))
            drift = (i, o[i], h[i]) if len(moved) == 1 and i in g1 else None
            rate = _unsigned(o) if o in diff_offsets else None
            self._rows.append((rows[j], drift, rate))
            if len(moved) == 1 and rate is not None and any(i in pair for pair in pairs):
                self._checked.append(rows[j])
        # Gram entries: input-dependent ones by Horner in u, the others fixed.
        self._coefs = {key: poly(self.c0[key], self.c1[key], self.c2[key])
                       for key in self.varying}
        self._fixed = {key: 0.0 if c is None else kept(c)
                       for key, c in self.c0.items() if key not in self._coefs}
        # One diffusion rate per offset up to sign.
        self._rates = sorted({_unsigned(o) for o in diff_offsets})
        # The drift components, by Horner in u.
        self._drift = {i: poly(f0[i], g1[i]) for i in drift_dims}
        del self.c0, self.c1, self.c2

    def blocks(self, ranges, diffs: dict) -> list:
        """Per block ``(start, stop)`` of the span, the views :meth:`update`
        reads and writes: the stencil's differences ``diffs`` (offset index
        to a block-long row), the coefficients' and the rows' slices, and
        scratch rows one block long, shared by all blocks."""
        length = ranges[0][1]
        lin, quad, tmp = _aligned((3, length))
        safe = _aligned(length, bool)
        grams = {key: _aligned(length) for key in self._coefs}
        rates = {o: _aligned(length) for o in self._rates}
        drift = {i: _aligned(length) for i in self._drift}
        out = []
        for a, b in ranges:
            m = b - a
            cut = lambda c: c[a:b] if isinstance(c, np.ndarray) else c
            block = _CriticalBlock()
            block.u, block.lin, block.quad = self.ustar[a:b], lin[:m], quad[:m]
            block.tmp, block.safe = tmp[:m], safe[:m]
            block.lin_terms = [(diffs[j][:m], cut(c)) for j, c in self._lin]
            block.quad_terms = [(diffs[j][:m], cut(c)) for j, c in self._quad]
            block.grams = [(tuple(cut(c) for c in coefs), grams[key][:m])
                           for key, coefs in self._coefs.items()]
            entries = {key: g[:m] for key, g in grams.items()}
            entries.update({key: cut(c) for key, c in self._fixed.items()})
            block.gram = lambda i, j, entries=entries: entries[(i, j)]
            block.rates = [(o, rates[o][:m]) for o in self._rates]
            block.drift = [(tuple(cut(c) for c in self._drift[i]), f[:m])
                           for i, f in drift.items()]
            block.rows = [(row[a:b], None if d is None else (drift[d[0]][:m], *d[1:]),
                           0.0 if r is None else rates[r][:m]) for row, d, r in self._rows]
            block.checked = [row[a:b] for row in self._checked]
            out.append(block)
        return out

    def update(self, block: "_Block") -> bool:
        """Write the critical input and its rates into the stencil's last
        candidate on ``block``, from the differences the step has just
        formed there; true when a row that can go negative has."""
        c = block.dynamic
        u, lin, quad, tmp = c.u, c.lin, c.quad, c.tmp
        _Stencil._score(c.lin_terms, lin, tmp)
        _Stencil._score(c.quad_terms, quad, tmp)
        np.greater(np.abs(quad, out=tmp), 1e-300, out=c.safe)
        u.fill(self.lo)
        np.divide(lin, quad, out=u, where=c.safe)
        np.clip(u, self.lo, self.hi, out=u)
        for coefs, a in c.grams:
            _horner(coefs, u, a)
        for o, rate in c.rates:
            _diffusion_rate(o, c.gram, self.h, self.pairs, rate, tmp)
        for coefs, f in c.drift:
            _horner(coefs, u, f)
        for row, drift, rate in c.rows:
            if drift is None:
                np.add(0.0, rate, out=row)
                continue
            _upwind(*drift, out=row)
            row += rate
        return any(np.min(row) < 0.0 for row in c.checked)


class _CriticalBlock:
    """What :class:`_QuadraticInput` compiled for one block of the span:
    ``u``, the block's slice of the critical input; ``lin`` and ``quad``,
    the stationary point's numerator and denominator, with their terms
    ``(difference row, coefficient)``; the Gram entries it forms
    (``(coefficients, out)``) and ``gram(i, j)`` reading every entry; the
    rates (``(unsigned offset, out)``); the drift components it forms; the
    candidate's rows with their drift and rate; the rows that can go
    negative; and the scratch ``tmp`` and ``safe``."""

    __slots__ = ("u", "lin", "quad", "tmp", "safe", "lin_terms", "quad_terms", "grams",
                 "gram", "rates", "drift", "rows", "checked")


def _horner(coefs: tuple, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sum_k coefs[k] u**k`` into ``out`` by Horner's rule, from the
    highest coefficient, which is not ``None``; a lower ``None`` is zero."""
    *low, top = coefs
    np.multiply(u, top, out=out)
    for k in range(len(low) - 1, -1, -1):
        if low[k] is not None:
            np.add(low[k], out, out=out)
        if k:
            out *= u
    return out


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
