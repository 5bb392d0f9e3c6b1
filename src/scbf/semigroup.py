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
in and, for the critical input, each time it is taken, and a violation
raises :class:`StabilityViolation` naming the node and the offset.

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
It is taken once per application, against the field the application
starts from, and once before each argmax, against the field the argmax
reads (:class:`_CriticalInput`), from the same polynomial in ``u`` the
safety filter projects on
(:meth:`~scbf.systems.SystemModel.input_coefficients`); every step of an
application scores the box corners and that held input, as modified
policy iteration (Puterman & Shin 1978) holds an improved decision over
several evaluation steps.  On the four quadratic test systems the
converged ``gamma`` is within 3e-11 of the one with the input taken at
every step.  One function (:func:`_upwind`) forms every upwind drift
rate: of the base, of a fixed candidate and of the critical input.
Rates that no candidate changes form one shared base stencil; each
candidate keeps rates only on the offsets it changes, and its score
``sum_j C[j,k] (P(x + o_j) - P(x))`` is compiled, as the stencil is built,
into a plan of multiply-adds in offset order.  A rate row that is zero at
every node is dropped; a row with one value at every node (a box corner
moving a state at a constant rate) becomes a Python float; any other row
becomes one padded array, which every row with the same bytes shares (the
bicycle's four steering corners turn at ``+-v``, so their eight array terms
read two arrays).  The critical input keeps its own array per offset,
since it is rewritten each time it is taken.  One scoring loop serves the
step and the argmax policy: it scores the candidates one at a time into two
score rows and keeps their pairwise maximum in candidate order, and for the
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
and evaluates there the noise Gram and, in one call, the drift of every
candidate, the inputs stacked ahead of the nodes as the ``(..., n_x)``
broadcasting contract of the models allows; a block holds at most
``_NODE_BLOCK`` nodes and ``_CALLBACK_ROWS`` candidate rows, so no array of
all node coordinates is formed and a callback's scratch stays a few MB.
When the diffusion declares one constant matrix, the Gram entries and
their part of the CFL load are formed once per build instead, not on each
block (the ``bicycle`` pass has 65).  The CFL load is reduced to the
block's maximum while the block is in cache.  Every model value and load
is formed per node, so the pass has the bits of evaluating each candidate
over the whole grid however the grid is cut into blocks; the tests check
blocks down to one node.  Of the Gram the pass keeps the entries the rates
read, a cross entry from the first block where it is not +0.0; of the
drift, one column per byte-equality class of each component, the classes
refined block by block, each candidate's row compared with its class's
representative one row at a time (:class:`_DriftColumns`).  A rate row is
formed once per drift class, sign and diffusion rate and shared by every
candidate with that key; any other row with the bytes of a kept one is
found by a sampled fingerprint and an exact comparison
(:meth:`_Stencil.keep`), so no row is hashed whole.  A class's column is
dropped once its last candidate's rows are compiled, and no unpadded copy
of a rate lives beside its padded one for long.  In the quadratic regime
each block also fits the Gram in ``u``, for the critical input's CFL term
and for which entries vary with the input; the fit holds about eight Grams
per node, so those blocks are an eighth of ``_NODE_BLOCK``.  On the 4-D
``bicycle`` (31x31x24x11) the traced build peak is 38.4 MiB and the
operator 34 MiB (33 and 28 MiB under a fixed policy).

A step, and the argmax, run over the span one block at a time.  Every
term of a step is elementwise per position, so a block's output reads
only that block's positions of each array (of the shifted sources too),
and the blocked step gives the bits of the unblocked one.  Blocking is
for the cache: on the ``bicycle`` grid above (span 274,824) a step makes
about 29 passes over some 22 arrays of 2.2 MB each (45 over 27 with the
scoring loop), about 50 MB per step, so over the whole span each pass
streams from L3 and the step is bound by bandwidth.  With blocks of
``2**15`` positions, 256 KiB per array, what one block of the step
touches stays near a 2 MiB L2 (Datta et al., SC 2008, on blocking
bandwidth-bound stencils).  Shorter blocks gained little and cost one more
numpy call per array and block.  A span of at most ``2**15`` positions
(every 2-D benchmark grid and ``wig_aircraft`` 26^3) is one block: split,
those steps ran slower.  Only the ghosts are refreshed over the whole span
before the blocks.  The difference rows, the score rows, the argmax flags
and the multiply scratch are one block long, shared by all blocks; every
other array keeps the whole span, the critical input's rows too.

A step's blocks are cut to the live stretch of the span, from the page
that holds the first interior position to the last interior position:
the killed outer layer of a non-periodic first dimension is a whole slab
at each end of the span, and a step skips the two (on the ``bicycle``
grid 17,857 of 274,824 positions, 6.5%).  Every node outside the stretch
is killed: the buffers start zeroed, :meth:`_Stencil.load` stores +0.0
there, and no step writes there, so both buffers read +0.0 there, the
value a step writes at a killed node (zero weights times finite values,
added to +0.0).  A ghost outside the stretch is refreshed before each step
like every ghost.  The argmax and :meth:`_Stencil.generator` keep the
whole span, because the policy is read at every node, the killed ones
too.

An operator (:class:`_Operator`) is built once per power iteration run,
which applies it at every iteration and reads its policy after the last
application.  :func:`propagate`, :func:`argmax_policy` and
:func:`generator_field` build one per call and free it on return.
:func:`propagate_optimal`, the one call that is repeated with one key
(a benchmark applies it twice per model), keeps its operator in a
process-wide slot while it is idle, keyed by the model (identity) and the
:class:`PropagationConfig` (value).  A call whose key matches takes the
operator out of the slot instead of building one, and puts it back on
success, replacing what the slot held.  Three rules keep the peak memory
that of one operator:

- every build, of every call and synthesis, empties the slot first, so an
  idle operator never lives beside a build;
- only :func:`propagate_optimal` puts an operator in the slot, so no other
  operator outlives its call;
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
from dataclasses import dataclass, replace

import numpy as np

from .errors import StabilityViolation
from .grid import GridSpec, ScalarField, _derivative_table, _index, _unpack_hessian
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
    (an infinite input to the box's face); a NaN input, or a box with a
    lower bound above its upper one, raises ValueError.

    The clamp runs column by column against the channel's two scalar
    bounds, ``np.clip``'s fast loop (0.7 against 3.0 ms for the broadcast
    ``np.clip(inputs, lower, upper)`` on 253,704 x 2), and gives the
    broadcast clamp's bytes.  Where an input equals a bound the broadcast
    loop writes the bound's bits and the fast one may keep the input's,
    which differ only in the sign of a zero; so a zero bound, the lower
    one first, is written over every zero of its column."""

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
        if not np.all(self.input_lower <= self.input_upper):
            raise ValueError("input box needs lower <= upper bounds")
        clamped = np.empty(inputs.shape)
        for j, bounds in enumerate(zip(self.input_lower, self.input_upper)):
            col = np.clip(inputs[:, j], *bounds, out=clamped[:, j])
            for bound in bounds:
                if bound == 0.0:
                    np.copyto(col, bound, where=col == 0.0)
        clamped.setflags(write=False)
        self.inputs = clamped

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
    flags) and ``tmp`` are scratch rows shared by all blocks.  When
    a step takes one shifted maximum per input channel
    (:meth:`_Stencil._groups`), ``groups`` holds each group's shifted
    sources and its rate (a float, or the rows whose sum it is); else
    ``groups`` is empty."""

    __slots__ = ("at", "src", "out", "W0", "weights", "dt_mask", "diffs", "plan",
                 "scores", "better", "tmp", "groups")


class _Stencil:
    """``P <- W_0 P + sum_o W_o P[o] + dt mask max_k sum_j C[j,k] (P[o_j] - P)``.

    ``base`` holds the rates no candidate input changes; ``fold_step`` makes
    them weights with ``dt`` and the kill mask folded in.  ``C[j, k]`` is
    candidate ``k``'s rate towards ``offsets[j]``, unmasked so the argmax
    policy is defined on boundary nodes too.

    Storage: only what a step, the monotonicity check and the argmax read.
    ``add_candidate`` compiles each candidate's score ``sum_j C[j,k] (P[o_j]
    - P)`` into ``(j, coefficient)`` terms in offset order (module
    docstring), each row kept by ``keep``: a row zero at every node is
    dropped, a row with one value at every node becomes that float, and any
    other row is one padded array, shared by every term whose row has the
    same bytes (``_rows``, keyed by a fingerprint of sampled bytes and a
    serial number).  The critical input passes one array per offset, which
    it rewrites (:class:`_CriticalInput`).  Only the differences ``P[o_j] -
    P`` that some term reads are formed.  A step writes the first
    candidate's score into ``_scores[0]`` and folds each later one, written
    to ``_scores[1]``, in with ``np.maximum`` while it is still in cache;
    ``argmax`` does the same with a running index, so two score rows serve
    any candidate count.
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
    docstring); a span no longer is one block.  A step's blocks are cut to
    the live stretch, from the page that holds the first interior position
    to the last interior position (``_live``); outside it every node is
    killed and reads +0.0 in both buffers.  The argmax and ``generator``
    keep the whole span (``_blocks``), since the policy is read at every
    node.  The differences, the two score rows and ``_tmp`` are one block
    long and shared by all blocks.  ``compile`` slices every block's views
    once, for both buffer parities.  Only the ghosts are refreshed over the
    whole span before the block loop.

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
    the caller's dict; ``add_candidate`` once per candidate, in order, with
    its rows as ``keep`` returns them (the critical input last, with its
    own rows); ``fold_step`` when the horizon is positive; then ``compile``
    allocates the scratch rows and slices the blocks.
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
        self._plan, self._rows = [], {}
        # Each candidate's value index per input channel (_product_indices).
        self.W = self.channels = None
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
        """Append a candidate whose rate towards ``offsets[j]`` is
        ``terms[j]``, as :meth:`keep` returns it or a padded row that its
        owner rewrites."""
        self._plan.append([(j, c) for j, c in enumerate(terms) if c is not None])

    def compile(self):
        """Allocate the block-sized differences the plan reads, the score
        rows and ``_tmp``, and slice the views of the blocks for both buffer
        parities: ``_blocks`` cover the whole span, for the argmax and the
        generator, and ``_live`` the live stretch, for a step."""
        ranges = _block_ranges(self.span)
        live = self._live_ranges(ranges)
        length = ranges[0][1]
        used = sorted({j for terms in self._plan for j, _ in terms})
        self._diffs = dict(zip(used, _aligned((len(used), length)))) if used else {}
        self._scores = _aligned((2, length)) if self.offsets else None
        self._better = _aligned(length, bool)
        self._tmp = _aligned(length)
        groups = self._groups() or []
        self._blocks = self._slice(ranges, groups)
        self._live = self._blocks if live == ranges else self._slice(live, groups)

    def _live_ranges(self, ranges: list) -> list:
        """The blocks ``ranges`` of the span cut to its live stretch, the
        blocks a step runs over: from the page that holds the first interior
        position to the last interior position.  Every node outside it is
        killed and stays +0.0 in both buffers (module docstring)."""
        if not self._interior_nodes.any():
            return []
        per_page = _PAGE // 8
        start = int(np.argmax(self.interior)) // per_page * per_page
        stop = self.span - int(np.argmax(self.interior[::-1]))
        return [(max(a, start), min(b, stop)) for a, b in ranges if a < stop and b > start]

    def _slice(self, ranges: list, groups: list) -> list:
        """The views of the blocks ``ranges`` for both buffer parities."""
        # The plan's terms on each block, shared by both buffer parities.
        plans = [[[(self._diffs[j][:b - a], c if isinstance(c, float) else c[a:b])
                   for j, c in terms] for terms in self._plan] for a, b in ranges]
        parities = []
        for src, out in ((self._views[0], self._views[1]), (self._views[1], self._views[0])):
            blocks = []
            for (a, b), plan in zip(ranges, plans):
                block, at = _Block(), slice(a, b)
                block.at, block.plan, block.tmp = at, plan, self._tmp[:b - a]
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
            parities.append(blocks)
        return parities

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
        if idx is None or len(self._plan) < 2:
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
        for k in range(len(self._plan)):
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
        ``index``, the argmax too, moved only by a strictly greater score."""
        self._differences(block)
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
        blocks = self._live[self._cur]
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

    def argmax(self) -> np.ndarray:
        """Index of the best candidate per node against the current field,
        the lowest on a tie (:meth:`_max_score`), over the whole span; an
        ``int8`` below 128 candidates."""
        dtype = np.int8 if len(self._plan) < 128 else np.int64
        if not self.offsets:
            return np.zeros(self.pos.size, dtype=dtype)
        self._refresh()
        arg = np.zeros(self.span, dtype=dtype)
        for block in self._blocks[self._cur]:
            self._max_score(block, arg[block.at])
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
    is compared laid out as rows ``(d, k)``, each row's bytes with its
    representative's, one row at a time, so no gathered copy of the rows
    is made; ``rep`` holds each row's representative row and ``others``
    the rows that are not their own."""

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
        rows = F.reshape(self.rep.size, -1)
        moved = [i for i in self.others if rows[i].tobytes() != rows[self.rep[i]].tobytes()]
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
        if moved:
            self.others = np.flatnonzero(self.rep != np.arange(self.rep.size))

    def varying(self) -> list:
        """The components whose value is not the same for every candidate."""
        return [d for d, cols in enumerate(self.cols)
                if any(not np.array_equal(col, cols[0]) for col in cols[1:])]


class _CriticalInput:
    """The quadratic regime's critical input, the stencil's last candidate:
    per node, the vertex in ``u`` of the central-difference generator ``p .
    f(x, u) + 1/2 tr(H a(x, u)) = b0 + b1 u + b2 u^2``
    (:meth:`~scbf.systems.SystemModel.input_coefficients`, ``p`` and ``H``
    the field's nodal derivatives, :func:`~scbf.grid._derivative_table`),
    ``u* = -b1 / (2 b2)`` clamped to the input interval, the lower bound
    where ``|2 b2| <= 1e-300``.  It is scored with the upwind generator like
    every other candidate, and it is not that generator's argmax over the
    interval, which an interior input can beat.

    :meth:`take` takes it against a field and rewrites the candidate's
    rows, one padded row per offset, from the model at ``u*`` as a fixed
    candidate's are formed: the upwind drift rate (:func:`_upwind`) on each
    axis offset of a drift component that varies across the candidates,
    plus the diffusion rate (:func:`_diffusion_rate`) on each offset whose
    rate varies.  Between two takes the rows stay as they are."""

    def __init__(self, sys: SystemModel, stencil: "_Stencil", drift_dims, diff_offsets, pairs):
        n = sys.grid.dims
        self.sys, self.pos, self.pairs = sys, stencil.pos, pairs
        self.ustar = np.zeros(sys.grid.size)
        self.rows = _aligned((len(stencil.offsets), stencil.span))
        stencil.add_candidate(list(self.rows))
        # Per offset: its row, the drift component and step it moves along
        # or None, and its unsigned offset when its diffusion rate varies.
        self._parts = []
        for row, o in zip(self.rows, stencil.offsets):
            moved = [d for d in range(n) if o[d]]
            d = moved[0]
            self._parts.append((row, (d, o[d]) if len(moved) == 1 and d in drift_dims else None,
                                _unsigned(o) if o in diff_offsets else None))

    def take(self, values: np.ndarray):
        """``u*`` against the node values ``values`` into ``ustar``, and the
        candidate's rows at ``u*``, on node blocks."""
        sys, spec = self.sys, self.sys.grid
        n, h = spec.dims, spec.spacing
        lo, hi = sys.input_lower[0], sys.input_upper[0]
        table = _derivative_table(ScalarField(spec, values))
        for x, at in _node_blocks(spec, _NODE_BLOCK):
            _, b1, b2 = sys.input_coefficients(x, table[at, 1:1 + n],
                                               _unpack_hessian(table[at, 1 + n:], n))
            curve = 2.0 * b2
            u = np.full(len(x), lo)
            np.divide(-b1[:, 0], curve, out=u, where=np.abs(curve) > 1e-300)
            u = np.clip(u, lo, hi)
            self.ustar[at] = u
            F, G = sys.drift(x, u[:, None]), sys.gram_entries(x, u[:, None])
            rates, span = {}, self.pos[at]
            for row, move, o in self._parts:
                rate = _upwind(F[:, move[0]], move[1], h[move[0]]) if move else 0.0
                if o is not None:
                    if o not in rates:
                        rates[o] = _diffusion_rate(o, lambda i, j: G[i, j], h, self.pairs,
                                                   np.empty(len(x)), np.empty(len(x)))
                    rate = rate + rates[o]
                row[span] = rate


def _interval_max(c0, c1, c2, lo: float, hi: float) -> np.ndarray:
    """Elementwise maximum of ``|c0 + c1 u + c2 u^2|`` over ``lo <= u <=
    hi``: at the ends, and at the vertex where it lies inside."""
    out = []
    for c0, c1, c2 in ((c0, c1, c2), (-c0, -c1, -c2)):
        m = np.maximum(*[c0 + c1 * u + c2 * u**2 for u in (lo, hi)])
        crit = np.where(c2 != 0.0, -c1 / (2.0 * np.where(c2 == 0, 1.0, c2)), lo)
        inside = (crit > lo) & (crit < hi) & (c2 != 0.0)
        out.append(np.where(inside, np.maximum(m, c0 + c1 * crit + c2 * crit**2), m))
    return np.maximum(*out)


def _split_stencil(sys: SystemModel, inputs: np.ndarray):
    """CFL load, stencil and critical input for the candidate inputs
    ``inputs`` (candidates, nodes, n_u), the node axis of length one for
    inputs the same at every node.  In the quadratic regime with more than
    one candidate (a fixed policy passes one) the stencil's last candidate
    is the critical input (:class:`_CriticalInput`), else that is None.
    When the noise does not depend on the input, one Gram serves every
    candidate.  Rates no candidate changes go to the base.

    One pass over the nodes, in blocks of at most ``_NODE_BLOCK`` nodes and
    ``_CALLBACK_ROWS`` candidate rows (:func:`_node_blocks`), gives each
    block one Gram call and one drift call for all its candidates, and
    forms the CFL load's maximum there; a model whose diffusion declares
    its one matrix (:meth:`~scbf.systems.SystemModel.constant_gram`) has
    its Gram entries and their CFL load formed once instead.  In the
    quadratic regime each block also fits the Gram in ``u``
    (:meth:`~scbf.systems.SystemModel.fit_quadratic`) for the critical
    input's CFL term and for which Gram entries vary with the input; the
    fit holds about eight Grams per node, so those blocks are an eighth as
    long.  The pass keeps the Gram entries the rates read and, of the
    drift, one column per byte-equality class of each component
    (:class:`_DriftColumns`).  A candidate's rows are formed one offset at a
    time, each once per drift class, sign and diffusion rate and shared by
    every candidate with that key, and a class's column is dropped once its
    last candidate's rows are compiled, so the peak stays near the
    stencil's own size."""
    spec, interior = sys.grid, sys.interior_mask()
    n, h, N, K = spec.dims, spec.spacing, spec.size, len(inputs)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    cross = [(i, j) for i, j in upper if i != j]
    shared = sys.flags.sigma_u_independent or sys.flags.sigma_zero
    quad = sys.regime == "quadratic" and K > 1
    # The Gram entries whose fit in u is nonzero somewhere, and those whose
    # u or u^2 coefficient is.
    fitted, varying = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    # A cross entry is stored from the first block where it has a byte other
    # than those of +0.0; until then it is +0.0 at every node.
    grams = [{(i, i): np.empty(N) for i in range(n)} for _ in range(1 if shared else K)]
    # A diffusion that declares its one matrix gives every node the same
    # entries: stored, and their CFL load formed, once.
    const = sys.constant_gram() if shared else None
    if const is not None:
        grams[0] = {(i, j): np.full(N, const[i, j]) for i, j in upper
                    if i == j or const[i, j:j + 1].view(np.uint64).any()}
        noise_load = _diffusion_load(lambda i, j: const[i, j], h,
                                     [key for key in cross if key in grams[0]])
    drift, peaks = _DriftColumns(n, K, N), []
    block = max(1, min(_NODE_BLOCK // (8 if quad else 1), _CALLBACK_ROWS // K))
    for x, at in _node_blocks(spec, block):
        U = inputs[:, at] if inputs.shape[1] > 1 else inputs
        if const is None:
            G = sys.gram_entries(x, U[:1] if shared else U)  # (n, n, grams, nodes)
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
        if quad:
            # Affine drift peaks at a box corner, so only the critical
            # candidate's noise needs its own bound, the interval maximum of
            # |a(u)|; an entry zero at every node adds +0.0.
            c0, c1, c2 = sys.fit_quadratic(lambda V: [
                sys.gram(x, np.full((len(x), 1), u)) for u in V[:, 0]])
            moves = np.any(c1 != 0.0, axis=0) | np.any(c2 != 0.0, axis=0)
            varying |= moves
            fitted |= moves | np.any(c0 != 0.0, axis=0)
            bound = _interval_max(c0, c1, c2, sys.input_lower[0], sys.input_upper[0])
            del c0, c1, c2
            top = np.max(drift_load, axis=0)
            np.maximum(node_load, top + _diffusion_load(lambda i, j: bound[:, i, j], h, cross),
                       out=node_load)
            del bound
        inner = interior[at]
        if np.any(inner):
            peaks.append(np.max(node_load[inner]))
    load = float(np.max(peaks)) if peaks else 0.0
    pairs = [key for key in cross if fitted[key]
             or any(key in g and np.any(g[key] != 0.0) for g in grams)]
    diff = []
    while grams:  # each gram's entries are freed once its rates are formed
        g = grams.pop(0)
        diff.append(_diffusion_rates(lambda i, j: g.get((i, j), 0.0), h, pairs))
        del g

    drift_var = drift.varying()
    diff_var = {o for o in diff[0]
                if any(not np.array_equal(r[o], diff[0][o]) for r in diff[1:])}
    # The offsets whose diffusion rate an input-dependent Gram entry moves.
    for i, j in upper:
        if varying[i, j]:
            diff_var |= {_offset(n, (d, s)) for d in (i, j) for s in (1, -1)}
            if i != j:
                diff_var |= {_offset(n, (i, si), (j, sj)) for si in (1, -1) for sj in (1, -1)}
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
    if not quad and K > 1 and inputs.shape[1] == 1:
        stencil.channels = _product_indices(inputs[:, 0])

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
    critical = _CriticalInput(sys, stencil, drift_var, diff_var, pairs) if quad else None
    return load, stencil, critical


class _Operator:
    """The optimal-control operator over ``cfg.horizon``, or under a fixed
    ``policy`` the fixed-policy one (0 ``candidates``), built once.  Reuse is
    exact: ``load`` rewrites every node, ghosts are refreshed before each step
    and each argmax, a step writes its whole live stretch and no node
    outside it holds anything but +0.0, and the critical input is taken
    again from the field at every application and every policy.

    A build first empties the idle slot (module docstring), so an idle
    operator of :func:`propagate_optimal` is freed before this one
    allocates.  Between calls of :func:`propagate_optimal` with one key (the
    model by identity, the config by value) its operator waits in that slot;
    a model must not be mutated after its first use."""

    def __init__(self, sys: SystemModel, cfg: PropagationConfig,
                 policy: PolicyTable | None = None):
        _take_idle()
        self.sys, self.inputs = sys, None
        if policy is not None:
            _check_specs(policy, sys, "policy")
            self.candidates = 0
            self.load, self.stencil, self.critical = _split_stencil(sys, policy.inputs[None])
        else:
            self.inputs = sys.input_grid(cfg.candidate_points if sys.regime == "nonaffine" else 2)
            self.load, self.stencil, self.critical = _split_stencil(sys, self.inputs[:, None])
            self.candidates = len(self.inputs) + (self.critical is not None)
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
        stencil for :meth:`policy`.  Every step scores the critical input
        taken against ``values``."""
        self.stencil.load(values)
        if not self.steps:
            return values
        self._take_critical()
        for _ in range(self.steps):
            self.stencil.step()
        return self.stencil.values()

    def policy(self) -> PolicyTable:
        """The winning candidate input per node against the field in the
        stencil, the critical input taken against that field."""
        self._take_critical()
        arg = self.stencil.argmax()
        out = np.take(self.inputs, np.minimum(arg, len(self.inputs) - 1), axis=0)
        if self.critical is not None:
            taken = arg == len(self.inputs)
            out[taken, 0] = self.critical.ustar[taken]
        return PolicyTable(self.sys.grid, out, self.sys.input_lower, self.sys.input_upper)

    def _take_critical(self):
        """The critical input against the field in the stencil, when there
        is one; its rows are checked (:meth:`_Stencil._check`) when ``dt``
        is folded in.  Its centre weight is the CFL cap's, and drift rates
        are nonnegative, so only a negative diffusion rate can fail."""
        if self.critical is not None:
            self.critical.take(self.stencil.values())
            if self.stencil.W is not None:
                self.stencil._check(len(self.inputs))


# propagate_optimal's operator while it is idle, with its key:
# (model, config, operator), or None.
_idle = None
_idle_lock = threading.Lock()


def _take_idle():
    """Empty the slot and return what it held."""
    global _idle
    with _idle_lock:
        held, _idle = _idle, None
    return held


def _check_specs(field, sys: SystemModel, what: str = "field"):
    """Raise unless ``field`` (a field or a policy) lives on the system grid."""
    if field.spec != sys.grid:
        raise ValueError(f"{what} grid does not match the system grid")


# --- fixed-policy propagation --------------------------------------------------


def propagate(field: ScalarField, sys: SystemModel, policy: PolicyTable,
              cfg: PropagationConfig) -> ScalarField:
    """Apply the killed semigroup over ``cfg.horizon`` under a fixed policy.

    The result is zero outside the interior; a zero horizon returns the
    input unchanged (the identity operator).  The operator is built for
    this call and freed on return.
    """
    _check_specs(field, sys)
    return ScalarField(sys.grid, _Operator(sys, cfg, policy).apply(field.values))


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


def propagate_optimal(field: ScalarField, sys: SystemModel,
                      cfg: PropagationConfig):
    """Apply the semigroup while choosing the pointwise safest input.

    At every node and internal time step the candidate input that maximizes
    the discrete upwind generator is used.  The candidates are the input
    box corners, a Cartesian input grid, or, for a scalar input with a
    quadratic noise Gram, the corners plus the clamped stationary point of
    the central-difference generator; that last one is taken once against
    ``field`` and held over every step, and once more against the final
    field before the policy is read.  It is scored with the upwind
    generator and is not its argmax over the input interval.  Returns the
    final field and the policy of winning candidates evaluated against the
    final field.  The operator waits in the idle slot until the next build
    or call; a call with the same model and an equal config takes it
    instead of building (module docstring).
    """
    global _idle
    _check_specs(field, sys)
    held = _take_idle()
    if held is not None and held[0] is sys and held[1] == cfg:
        op = held[2]
    else:
        held = None  # freed before the build allocates
        op = _Operator(sys, cfg)
    out = ScalarField(sys.grid, op.apply(field.values)), op.policy()
    with _idle_lock:
        _idle = (sys, cfg, op)
    return out


def argmax_policy(field: ScalarField, sys: SystemModel,
                  cfg: PropagationConfig) -> PolicyTable:
    """Pointwise argmax of the discrete generator against a fixed field,
    from a zero-horizon optimal operator built for this call and freed on
    return."""
    _check_specs(field, sys)
    op = _Operator(sys, replace(cfg, horizon=0.0))
    op.apply(field.values)
    return op.policy()
