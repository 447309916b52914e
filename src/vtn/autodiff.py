"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

Tensors are 2-D matrices laid out as (feature rows x time columns), plus
0-d scalars for losses and the flat ragged attention of ``attention``.  The
graph is recorded through parent links on each tensor; ``Tensor.backward``
runs one topologically ordered sweep, which frees the graph as it goes.

Two evaluation modes exist:

* fast mode (default) uses whole-matrix numpy/BLAS kernels.  Results are
  deterministic for fixed shapes, but a column of a matrix product is not
  guaranteed to be bit-identical when the matrix width changes.
* column-exact mode (``with column_exact():``) keeps one rule: every output
  column is reduced on its own, with a fixed-shape kernel over contiguous
  operands that hold exactly what that column depends on.  ``_mm`` makes one
  gemv per output column, ``layer_norm`` reduces each column as one
  contiguous row of a transposed copy, and ``attention`` lets each query
  column attend over its own key range only.  The kernels run many columns
  per numpy call, each column still its own reduction of a fixed shape.
  Column n of any causal computation is therefore bit-identical no
  matter how many columns follow it, which is what makes incremental
  decoding reproduce the teacher-forced forward pass exactly.  The mode is
  inference-only: it records no graph, so its results have no parents and
  cannot be backpropagated.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateColumnError, GraphReleasedError, ShapeError

NEG_INF = -1e30

_column_exact = False


@contextlib.contextmanager
def column_exact():
    """Force column-by-column evaluation of all primitives, without a graph."""
    global _column_exact
    prev = _column_exact
    _column_exact = True
    try:
        yield
    finally:
        _column_exact = prev


def in_column_exact() -> bool:
    """Whether column-exact mode is on."""
    return _column_exact


class Tensor:
    """Dense float64 array with optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accum(self, g: np.ndarray, owned: bool = False):
        """Add g to the gradient.  owned says that the caller made g and hands
        it to this tensor alone, which may then keep it instead of a copy;
        an array that is also another tensor's gradient, or a view of one,
        must not be passed as owned."""
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from a scalar tensor through the recorded graph, once.

        The sweep frees the graph behind it: after a node's closure has passed
        its gradient on, the node drops its closure and its parents, so an
        interior node the caller does not hold goes, with its data, its
        gradient and the arrays its closure captured.  A node the caller holds
        keeps its data and gradient, but a sweep that reaches it again, from
        it or from a graph built on it, raises GraphReleasedError."""
        if self.data.shape != ():
            raise ShapeError("backward() must start from a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _swept:
                raise GraphReleasedError(
                    "backward() reached a node whose graph has already been swept")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._parents = _swept, ()


def _swept(g: np.ndarray) -> None:
    """The closure of a node that has already been backpropagated."""
    raise GraphReleasedError("this node's graph has already been swept")


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None] | None) -> Tensor:
    out = Tensor(data)
    if not _column_exact and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product; one gemv per output column in column-exact mode.

    Column j is a @ (a contiguous copy of b's column j), a reduction whose
    shape does not depend on how many columns b has, so appending columns
    leaves the earlier ones bit-identical.  The gemvs run as one stacked
    matmul, whose stack items numpy multiplies one at a time.
    """
    if not _column_exact:
        return a @ b
    return np.matmul(a, np.ascontiguousarray(b.T)[:, :, None])[:, :, 0].T


# ---------------------------------------------------------------------------
# elementwise / structural ops

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    return _result(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(np.negative(g), owned=True)

    return _result(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} vs {b.data.shape}")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(g * b.data, owned=True)
        if b.requires_grad:
            b._accum(g * a.data, owned=True)

    return _result(out_data, (a, b), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a (d, 1) bias column to every column of a (d, N) matrix."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.data.shape != (x.data.shape[0], 1):
        raise ShapeError(f"add_bias: bias {b.data.shape} for input {x.data.shape}")

    def backward(g):
        if x.requires_grad:
            x._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=1, keepdims=True), owned=True)

    return _result(x.data + b.data, (x, b), backward)


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)

    def backward(g):
        a._accum(g * sign, owned=True)

    return _result(np.abs(a.data), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accum(np.full_like(a.data, float(g)), owned=True)

    return _result(np.asarray(a.data.sum(), dtype=np.float64), (a,), backward)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """a.data.transpose(axes) as a new C-ordered tensor: the axes reversed
    by default, else permuted as numpy's ``transpose`` permutes them."""
    a = _as_tensor(a)
    back = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        a._accum(g.transpose(back))

    return _result(a.data.transpose(axes).copy(), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accum(g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def index(a: Tensor, key) -> Tensor:
    """a.data[key] for a basic (slice and integer) key, as a new tensor."""
    a = _as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accum(full, owned=True)

    return _result(a.data[key].copy(), (a,), backward)


def tile_cols(a: Tensor, counts) -> Tensor:
    """Repeat column p of a counts[p] times; an int count repeats the one
    column of a (d, 1) input."""
    a = _as_tensor(a)
    counts = np.atleast_1d(counts)
    if a.data.ndim != 2 or a.data.shape[1] != len(counts) or counts.min() < 1:
        raise ShapeError(f"tile_cols: {a.data.shape} input, counts {counts.tolist()}")
    starts = np.cumsum(counts) - counts

    def backward(g):
        a._accum(np.add.reduceat(g, starts, axis=1), owned=True)

    return _result(np.repeat(a.data, counts, axis=1), (a,), backward)


# ---------------------------------------------------------------------------
# core primitives

def _row_blocks(op: str, x: Tensor | Sequence[Tensor]) -> list[Tensor]:
    """x, or the sequence x, as a list of 2-D row blocks of equal width."""
    blocks = [_as_tensor(b) for b in x] if isinstance(x, (list, tuple)) else [_as_tensor(x)]
    widths = {b.data.shape[1] if b.data.ndim == 2 else None for b in blocks}
    if len(widths) != 1 or None in widths:
        raise ShapeError(f"{op}: row blocks {[b.data.shape for b in blocks]}")
    return blocks


def matmul(a: Tensor, b: Tensor | Sequence[Tensor]) -> Tensor:
    """a @ b, b being a matrix or, as ``conv1d``'s x, row blocks that stack to
    it; each block that needs a gradient gets its own rows of a.T @ g."""
    a, blocks = _as_tensor(a), _row_blocks("matmul", b)
    rows = [t.data.shape[0] for t in blocks]
    if a.data.ndim != 2 or a.data.shape[1] != sum(rows):
        raise ShapeError(f"matmul: {a.data.shape} @ {[t.data.shape for t in blocks]}")
    b = blocks[0].data if len(blocks) == 1 else np.concatenate([t.data for t in blocks])

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.T, owned=True)
        if any(t.requires_grad for t in blocks):
            # the blocks' rows do not overlap, so each may keep its own
            gb, r0 = a.data.T @ g, 0
            for t, r in zip(blocks, rows):
                if t.requires_grad:
                    t._accum(gb[r0:r0 + r], owned=True)
                r0 += r

    return _result(_mm(a.data, b), (a, *blocks), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each column to zero mean / unit variance over its rows."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d, n = x.data.shape
    if gain.data.shape != (d, 1) or bias.data.shape != (d, 1):
        raise ShapeError("layer_norm gain/bias must be (d, 1) columns")

    # mean, centring, variance, 1 / sqrt(var + eps) and scaling, in place on
    # a copy of x; column-exact mode copies x transposed, so that each
    # column's statistics reduce one contiguous row, as a sum over that
    # column alone would
    c, axis = (x.data.T.copy(), 1) if _column_exact else (x.data.copy(), 0)
    mu = np.add.reduce(c, axis=axis, keepdims=True)
    mu /= d
    c -= mu
    inv_std = np.add.reduce(c * c, axis=axis, keepdims=True)
    inv_std /= d
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    c *= inv_std
    xhat, inv_std = (c.T, inv_std.T) if _column_exact else (c, inv_std)
    y = np.empty((d, n))
    np.multiply(gain.data, xhat, out=y)
    y += bias.data

    def backward(g):
        t = np.multiply(g, xhat)
        if gain.requires_grad:
            gain._accum(np.add.reduce(t, axis=1, keepdims=True), owned=True)
        if bias.requires_grad:
            bias._accum(np.add.reduce(g, axis=1, keepdims=True), owned=True)
        if x.requires_grad:
            # inv_std * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat))
            gx = np.multiply(g, gain.data)
            m1 = np.add.reduce(gx, axis=0, keepdims=True)
            m1 /= d
            np.multiply(gx, xhat, out=t)
            m2 = np.add.reduce(t, axis=0, keepdims=True)
            m2 /= d
            gx -= m1
            np.multiply(xhat, m2, out=t)
            gx -= t
            gx *= inv_std
            x._accum(gx, owned=True)

    return _result(y, (x, gain, bias), backward)


class Segments:
    """Lengths of segments packed one after another along the time axis."""

    def __init__(self, lengths: tuple[int, ...]):
        if not lengths or min(lengths) < 1:
            raise ShapeError(f"segments need positive lengths, got {lengths}")
        self.lengths = lengths
        self.p, self.n = len(lengths), sum(lengths)
        lens = np.asarray(lengths)
        self.starts = np.cumsum(lens) - lens      # first packed column of each segment
        self._pos = np.arange(self.n) - np.repeat(self.starts, lens)  # column within its segment
        self._len = np.repeat(lens, lens)
        self._outside: dict[int, np.ndarray] = {}

    def outside(self, offset: int) -> np.ndarray:
        """The packed columns whose neighbour offset columns away lies
        outside their own segment."""
        if offset not in self._outside:
            pos = self._pos + offset
            self._outside[offset] = np.flatnonzero((pos < 0) | (pos >= self._len))
        return self._outside[offset]


@functools.lru_cache(maxsize=8)
def segments(lengths: tuple[int, ...]) -> Segments:
    """The (cached) packing of segments with these lengths."""
    return Segments(lengths)


def _im2col(blocks: list[np.ndarray], offsets: list[int], segs: Segments) -> np.ndarray:
    """The (k * c_in, N) im2col of the row blocks that stack to x, so that a
    conv is one gemm instead of k small ones.  Tap t of output column j
    reads column j + offsets[t], the offsets rising from -pad_l <= 0 to
    pad_r >= 0; where that crosses the edge of j's segment the entry is
    zeroed, as if each segment were padded alone.  The blocks are copied
    once into a (c_in, pad_l + N + pad_r) zero array, and each tap's rows
    are one slice of it; the padding zeroes every column outside [0, N), so
    only packed segments zero the entries that cross an edge inside it."""
    c_in, n = sum(b.shape[0] for b in blocks), blocks[0].shape[1]
    pad_l, pad_r = -offsets[0], offsets[-1]
    xp = np.zeros((c_in, pad_l + n + pad_r))
    r = 0
    for b in blocks:
        xp[r:r + b.shape[0], pad_l:pad_l + n] = b
        r += b.shape[0]
    xcol = np.empty((len(offsets) * c_in, n), dtype=np.float64)
    for t, o in enumerate(offsets):
        rows = xcol[t * c_in:(t + 1) * c_in]
        rows[...] = xp[:, pad_l + o:pad_l + o + n]
        if segs.p > 1:
            rows[:, segs.outside(o)] = 0.0
    return xcol


def conv1d(x: Tensor | Sequence[Tensor], kernel: Tensor, dilation: int = 1,
           causal: bool = False, segs: Segments | None = None) -> Tensor:
    """Length-preserving 1-D convolution over the time axis.

    x is (c_in, N), or a sequence of row blocks that stack to it, which the
    conv reads in place and backpropagates into only where they need a
    gradient.  kernel is (c_out, K, c_in), tap t's weights in kernel[:, t]:
    im2col's row order, so the gemm's (c_out, K * c_in) operand is a view of
    it (``transpose(w, (0, 2, 1))`` lays out a (c_out, c_in, K) weight so,
    once for any number of convs).  Non-causal convs need odd K and pad
    symmetrically; causal convs pad (K-1)*dilation on the left only.  With
    segs, x holds segments packed along time and each segment is
    zero-padded at its own edges, so no tap reads across a boundary.
    """
    blocks, kernel = _row_blocks("conv1d", x), _as_tensor(kernel)
    rows = [b.data.shape[0] for b in blocks]
    if kernel.data.ndim != 3 or kernel.data.shape[2] != sum(rows):
        raise ShapeError(f"conv1d: x {[b.data.shape for b in blocks]}, "
                         f"kernel {kernel.data.shape}")
    c_out, k, c_in = kernel.data.shape
    n = blocks[0].data.shape[1]
    if causal:
        pad_l = (k - 1) * dilation
    else:
        if k % 2 == 0:
            raise ShapeError("non-causal conv1d requires odd kernel size")
        pad_l = (k - 1) // 2 * dilation
    segs = segments((n,)) if segs is None else segs
    if segs.n != n:
        raise ShapeError(f"conv1d: segments cover {segs.n} columns, x has {n}")
    offsets = [t * dilation - pad_l for t in range(k)]
    starts = np.cumsum(rows) - rows

    y = _mm(kernel.data.reshape(c_out, -1),
            _im2col([b.data for b in blocks], offsets, segs))

    # the backward keeps no im2col: it rebuilds it from x, which is its parent
    def backward(g):
        if kernel.requires_grad:
            xcol = _im2col([b.data for b in blocks], offsets, segs)
            kernel._accum((g @ xcol.T).reshape(c_out, k, c_in), owned=True)
        need = [(b, r0, r0 + r) for b, r0, r in zip(blocks, starts, rows) if b.requires_grad]
        if need:
            # each tap's gradient rows add into the block columns [lo, hi)
            # that the tap reads; as in im2col, only packed segments zero
            # the rows that cross an edge inside x
            gx = [np.zeros((r1 - r0, n)) for _, r0, r1 in need]
            gcol = kernel.data.reshape(c_out, -1).T @ g
            for t, o in enumerate(offsets):
                lo, hi = max(0, o), min(n, n + o)
                for (_, r0, r1), gb in zip(need, gx):
                    part = gcol[t * c_in + r0:t * c_in + r1]
                    if segs.p > 1:
                        part[:, segs.outside(o)] = 0.0
                    if lo < hi:
                        gb[:, lo:hi] += part[:, lo - o:hi - o]
            for (b, _, _), gb in zip(need, gx):
                b._accum(gb, owned=True)

    return _result(y, (*blocks, kernel), backward)


def _key_ranges(n_k: int, n_q: int, causal: bool,
                window: tuple[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """The key range [lo[j], hi[j]) that query column j of one segment sees:
    all keys or, causal, the keys up to its position, the n_q <= n_k queries
    being the last n_q key positions; the window cuts the last column's."""
    lo = np.zeros(n_q, dtype=np.intp)
    hi = np.arange(n_k - n_q + 1, n_k + 1) if causal else np.full(n_q, n_k)
    if window is not None:
        lo[-1], hi[-1] = window[0], min(hi[-1], window[1])
        if lo[-1] >= hi[-1]:
            raise DegenerateColumnError("attention window masks every key of a query")
    return lo, hi


def _attention_columns(q: np.ndarray, kv: np.ndarray, k_row: int, n_heads: int,
                       scale: float, lo: np.ndarray, hi: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Column-exact attention of one segment, query column j attending over
    the keys [lo[j], hi[j]).  Returns the (d x N_q) head outputs and the
    (n_heads, N_k, N_q) attention.

    Each run of consecutive columns that share a key range is one group: its
    heads' scores are one stacked matmul against a contiguous copy of those
    keys, whose stack items are each one column's gemv of one head, written
    into the group's slice of one flat buffer that holds, column by column
    and head by head, each (column, head)'s scores.  The softmax's scale,
    max (an exact ``maximum.reduceat``), shift, exp and division then run
    once over the whole buffer; only each (column, head)'s sum, whose
    rounding depends on its order, stays one ``sum`` per group over that
    column's own contiguous scores.  A second pass per group scatters the
    attention and multiplies it by a contiguous copy of the group's
    values."""
    d = (kv.shape[0] - k_row) // 2
    dh = d // n_heads
    n_q = len(lo)
    keys, values = kv[k_row:k_row + d], kv[k_row + d:k_row + 2 * d]
    qh = np.ascontiguousarray(q[:d].T).reshape(n_q, n_heads, dh, 1)
    bounds = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
    groups = list(zip([0, *bounds], [*bounds, n_q]))
    seg = np.repeat(hi - lo, n_heads)           # scores per (column, head)
    starts = np.cumsum(seg) - seg
    z = np.empty(starts[-1] + seg[-1])
    sums = np.empty((n_q, n_heads, 1))
    views = []                                  # per group: its (nc, H, nk, 1) scores
    for j0, j1 in groups:
        k0, k1 = lo[j0], hi[j0]
        o = starts[j0 * n_heads]
        zg = z[o:o + (j1 - j0) * n_heads * (k1 - k0)].reshape(j1 - j0, n_heads, -1, 1)
        kh = np.ascontiguousarray(keys[:, k0:k1]).reshape(n_heads, dh, -1)
        np.matmul(kh.swapaxes(1, 2), qh[j0:j1], out=zg)
        views.append(zg)
    z *= scale
    z -= np.repeat(np.maximum.reduceat(z, starts), seg)
    np.exp(z, out=z)
    for (j0, j1), zg in zip(groups, views):
        zg.sum(axis=2, out=sums[j0:j1])
    z /= np.repeat(sums, seg)
    a = np.zeros((n_heads, kv.shape[1], n_q))
    at = a.transpose(2, 0, 1)[..., None]        # a as (N_q, H, N_k, 1)
    out = np.empty((n_q, n_heads, dh, 1))       # the head outputs, transposed
    for (j0, j1), zg in zip(groups, views):
        k0, k1 = lo[j0], hi[j0]
        vh = np.ascontiguousarray(values[:, k0:k1]).reshape(n_heads, dh, -1)
        at[j0:j1, :, k0:k1] = zg
        np.matmul(vh, zg, out=out[j0:j1])
    return out.reshape(n_q, d).T, a


def attention(q: Tensor, kv: Tensor, k_row: int, n_heads: int, scale: float,
              qs: Segments, ks: Segments, causal: bool = False,
              window: tuple[int, int] | None = None) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention of every head and every segment.

    With d = (rows of kv - k_row) / 2 and dh = d / n_heads, head i takes its
    queries from rows i*dh.. of q, its keys from rows k_row + i*dh.. of kv and
    its values d rows below its keys.  Query segment p of qs attends to key
    segment p of ks only, at that pair's own size: causal hides keys past a
    query's position, a causal segment's queries being the last positions
    of its keys (all of them but in a decoding step's last layer).  Returns
    the stacked head outputs (d x N_q) and the ragged attention: one flat
    tensor holding segment p's (n_heads, n_k, n_q) block right after
    segment p-1's, column-stochastic over the segment's keys and exactly 0
    at masked keys.

    Column-exact mode takes one segment and gives each query column its own
    key range: its heads attend over contiguous copies of that range's keys
    and values only, so no later column or masked key enters its sums.
    There alone, window = (lo, hi) limits the last query column to the keys
    [lo, hi) (0-based, half-open; the window of one windowed decoding step),
    which must leave it a key.
    """
    q, kv = _as_tensor(q), _as_tensor(kv)
    d = (kv.data.shape[0] - k_row) // 2
    if window is not None and not _column_exact:
        raise ShapeError("attention: a window needs column-exact mode")
    if (d < 1 or d % n_heads or q.data.shape[0] < d or qs.p != ks.p
            or q.data.shape[1] != qs.n or kv.data.shape[1] != ks.n
            or (_column_exact and qs.p != 1)
            or (causal and any(nq > nk for nq, nk in zip(qs.lengths, ks.lengths)))
            or (window is not None and not 0 <= window[0] <= window[1] <= ks.n)):
        raise ShapeError(f"attention: q {q.data.shape}, kv {kv.data.shape}, k_row {k_row}, "
                         f"{n_heads} heads, {qs.p}/{ks.p} segments, window {window}")
    if _column_exact:
        # the ranges also check that the window leaves its column a key
        lo, hi = _key_ranges(ks.n, qs.n, causal, window)
        out, a = _attention_columns(q.data, kv.data, k_row, n_heads, scale, lo, hi)
        return Tensor(out), Tensor(a.ravel())
    dh = d // n_heads
    sizes = [n_heads * nk * nq for nk, nq in zip(ks.lengths, qs.lengths)]
    a = np.empty(sum(sizes))
    out = np.empty((d, qs.n))
    # per segment: its query and key columns, its heads' (H, dh, n) views of
    # q, k and v, and its (H, n_k, n_q) block of a.  The softmax's
    # element-wise steps run once over every block of a.
    blocks = []
    for q0, nq, k0, nk, o in zip(qs.starts, qs.lengths, ks.starts, ks.lengths,
                                 np.cumsum(sizes) - sizes):
        qc, kc = np.s_[q0:q0 + nq], np.s_[k0:k0 + nk]
        qh = q.data[:d, qc].reshape(n_heads, dh, nq)
        kh = kv.data[k_row:k_row + d, kc].reshape(n_heads, dh, nk)
        vh = kv.data[k_row + d:k_row + 2 * d, kc].reshape(n_heads, dh, nk)
        ap = a[o:o + n_heads * nk * nq].reshape(n_heads, nk, nq)
        np.matmul(kh.swapaxes(1, 2), qh, out=ap)
        blocks.append((qc, kc, qh, kh, vh, ap, o))
    a *= scale
    if causal:
        # 0.0 where _key_ranges lets a query see a key, else NEG_INF, over
        # the call's largest segment; each block adds its bottom-right
        # corner.  NEG_INF is finite: adding -inf is slower
        m = max(*qs.lengths, *ks.lengths)
        lo, hi = _key_ranges(m, m, True, None)
        keys = np.arange(m)[:, None]
        mask = np.where((lo <= keys) & (keys < hi), 0.0, NEG_INF)
    for qc, kc, qh, kh, vh, ap, o in blocks:
        if causal:
            ap += mask[m - ap.shape[1]:, m - ap.shape[2]:]
        ap -= ap.max(axis=1, keepdims=True)
    np.exp(a, out=a)
    for qc, kc, qh, kh, vh, ap, o in blocks:
        ap /= ap.sum(axis=1, keepdims=True)
        out[:, qc] = np.matmul(vh, ap).reshape(d, -1)
    grads: dict[int, tuple[Tensor, np.ndarray]] = {}

    def grad_rows(t):
        """The one gradient array of t that this op fills, made on first use."""
        if id(t) not in grads:
            grads[id(t)] = (t, np.zeros_like(t.data))
        return grads[id(t)][1]

    def out_backward(g):
        # the value gradient goes into the array attn_backward completes; it
        # always runs after this (attn is this node's parent)
        ga = np.empty_like(a)
        for qc, kc, qh, kh, vh, ap, o in blocks:
            gh = g[:, qc].reshape(n_heads, dh, -1)
            np.matmul(vh.swapaxes(1, 2), gh, out=ga[o:o + ap.size].reshape(ap.shape))
            if kv.requires_grad:
                grad_rows(kv)[k_row + d:k_row + 2 * d, kc] = \
                    np.matmul(gh, ap.swapaxes(1, 2)).reshape(d, -1)
        attn._accum(ga, owned=True)

    def attn_backward(ga):
        # (ga - sum over keys of ga * a) * a * scale, block by block
        gz = np.multiply(ga, a)
        for qc, kc, qh, kh, vh, ap, o in blocks:
            gb = gz[o:o + ap.size].reshape(ap.shape)
            np.subtract(ga[o:o + ap.size].reshape(ap.shape),
                        np.add.reduce(gb, axis=1, keepdims=True), out=gb)
        gz *= a
        gz *= scale
        for qc, kc, qh, kh, vh, ap, o in blocks:
            gb = gz[o:o + ap.size].reshape(ap.shape)
            if q.requires_grad:
                grad_rows(q)[:d, qc] = np.matmul(kh, gb).reshape(d, -1)
            if kv.requires_grad:
                grad_rows(kv)[k_row:k_row + d, kc] = \
                    np.matmul(qh, gb.swapaxes(1, 2)).reshape(d, -1)
        for t, g in grads.values():
            t._accum(g, owned=True)
        grads.clear()

    attn = _result(a, (q, kv), attn_backward)
    return _result(out, (attn,), out_backward), attn


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over the row axis: [a; b] -> a * sigmoid(b)."""
    x = _as_tensor(x)
    d2 = x.data.shape[0]
    if d2 % 2 != 0:
        raise ShapeError(f"glu needs an even number of rows, got {d2}")
    c = d2 // 2
    a = x.data[:c]
    sig = np.negative(x.data[c:])    # 1 / (1 + exp(-b)), in place
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    y = a * sig

    def backward(g):
        # values: g * sig; gates: g * a * sig * (1 - sig), with the gate
        # half's (1 - sig) held in the value half until that is written
        gx = np.empty_like(x.data)
        ga, gb = gx[:c], gx[c:]
        np.subtract(1.0, sig, out=ga)
        np.multiply(g, a, out=gb)
        gb *= sig
        gb *= ga
        np.multiply(g, sig, out=ga)
        x._accum(gx, owned=True)

    return _result(y, (x,), backward)


def weight_norm_apply(direction: Tensor, w_scale: Tensor, eps: float = 1e-12) -> Tensor:
    """Per-output-channel weight normalization.

    Channel c of the result is w_scale[c] * direction[c] / ||direction[c]||.
    direction has output channels along axis 0; w_scale is (c_out,).
    """
    direction, w_scale = _as_tensor(direction), _as_tensor(w_scale)
    c_out = direction.data.shape[0]
    if w_scale.data.shape != (c_out,):
        raise ShapeError(f"weight_norm scale must be ({c_out},), got {w_scale.data.shape}")
    flat = direction.data.reshape(c_out, -1)
    norm = np.sqrt((flat * flat).sum(axis=1))
    denom = norm + eps
    shp = (c_out,) + (1,) * (direction.data.ndim - 1)
    w = (w_scale.data / denom).reshape(shp) * direction.data

    def backward(g):
        t = np.multiply(g.reshape(c_out, -1), flat)
        dot = np.add.reduce(t, axis=1)
        if w_scale.requires_grad:
            w_scale._accum(dot / denom, owned=True)
        if direction.requires_grad:
            # coef * g - corr * direction, with d(1/denom)/d(dir) =
            # -dir / (denom^2 * norm); guard norm == 0
            gd = np.multiply((w_scale.data / denom).reshape(shp), g)
            safe = np.where(norm > 0.0, norm, 1.0)
            corr = (w_scale.data * dot / (denom * denom * safe)).reshape(shp)
            gd -= np.multiply(corr, direction.data, out=t.reshape(direction.data.shape))
            direction._accum(gd, owned=True)

    return _result(w, (direction, w_scale), backward)


# ---------------------------------------------------------------------------
# optimizer and gradient checking

class AdamState:
    """Adam's step counter and moments, over one flat store.

    The store binds a parameter dict: each parameter's data and gradient,
    and its first and second moments, become views into four flat buffers
    laid out in the dict's order, so an update is one element-wise sweep.
    m and v map each parameter name to its moment's view; they are what a
    .vtno holds.  The binding is rebuilt from the current values when the
    dict no longer holds the bound Tensors with their bound data: after a
    Tensor is swapped in, a model is loaded, or data is reassigned.  Moments
    set before the first binding (a loaded state) must pass ``check``; with
    none, before the first step, every moment starts at zero.
    """

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # name -> (tensor, its data view, its gradient view)
        self._bound: dict[str, tuple[Tensor, np.ndarray, np.ndarray]] = {}
        self._flat: tuple[np.ndarray, ...] = ()   # data, gradient, m, v

    def check(self, params: dict[str, Tensor]) -> None:
        """Raise ShapeError unless the state holds a first and a second
        moment of each parameter's name and shape or, before its first step,
        none at all."""
        if self.step == 0 and not self.m and not self.v:
            return
        want = {name: t.data.shape for name, t in params.items()}
        for kind, moments in (("first", self.m), ("second", self.v)):
            got = {name: a.shape for name, a in moments.items()}
            if got == want:
                continue
            missing, unknown = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
            wrong = [f"{name} {got[name]} for {want[name]}"
                     for name in want.keys() & got.keys() if got[name] != want[name]]
            raise ShapeError(f"{kind} moments do not match the parameters after {self.step} "
                             f"steps: missing {missing}, unknown {unknown}, "
                             f"wrong shapes {sorted(wrong)}")

    def _bind(self, params: dict[str, Tensor]) -> None:
        if list(params) == list(self._bound) and all(
                params[name] is t and t.data is data
                for name, (t, data, _) in self._bound.items()):
            return
        self.check(params)
        n = sum(t.data.size for t in params.values())
        flat = (np.empty(n), np.zeros(n), np.zeros(n), np.zeros(n))
        views: list[dict[str, np.ndarray]] = [{}, {}, {}, {}]
        o = 0
        for name, t in params.items():
            for buf, view in zip(flat, views):
                view[name] = buf[o:o + t.data.size].reshape(t.data.shape)
            o += t.data.size
            views[0][name][...] = t.data
            t.data = views[0][name]
            if self.m:
                views[2][name][...] = self.m[name]
                views[3][name][...] = self.v[name]
        self._bound = {name: (t, views[0][name], views[1][name]) for name, t in params.items()}
        self._flat = flat
        self.m, self.v = views[2], views[3]

    def gradient(self, params: dict[str, Tensor]) -> np.ndarray:
        """The flat gradient of params, binding them first if need be.  Each
        gradient is copied into its view once and its tensor then holds the
        view, so scaling the flat gradient scales every tensor's gradient; a
        gradient of None reads as zeros and stays None."""
        self._bind(params)
        for t, _, g in self._bound.values():
            if t.grad is None:
                g[...] = 0.0
            elif t.grad is not g:
                g[...] = t.grad
                t.grad = g
        return self._flat[1]


# Elements per block of Adam's sweep: the six arrays a block touches take
# 1.5 MB, which stays in a 2 MB L2 cache from one operation to the next.
# Swept whole, the 1.6 MB arrays of a 200k-parameter model stream through
# memory at every operation, and the update took as long as one per
# parameter; in blocks it took half that.
_ADAM_BLOCK = 32768


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              beta1: float, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place Adam update of every parameter, a parameter without a
    gradient taking a zero one: one element-wise sweep over the flat store,
    block by block, with the operations of the per-parameter update in its
    order."""
    grad = state.gradient(params)
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    scratch = np.empty((2, min(grad.size, _ADAM_BLOCK)))
    for o in range(0, grad.size, _ADAM_BLOCK):
        p, g, m, v = (buf[o:o + _ADAM_BLOCK] for buf in state._flat)
        a, b = scratch[:, :g.size]
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        a *= g
        v += a
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               indices: Sequence[tuple] | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must build a fresh graph and return a scalar Tensor.  indices limits
    the probe to selected elements of x (all elements by default).
    """
    x.requires_grad = True
    x.zero_grad()
    y = f(x)
    if not np.isfinite(y.data):
        raise ValueError("grad_check: non-finite function value")
    y.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    if indices is None:
        indices = list(np.ndindex(*x.data.shape)) if x.data.shape else [()]
    worst = 0.0
    for idx in indices:
        orig = x.data[idx]
        x.data[idx] = orig + h
        yp = f(x).item()
        x.data[idx] = orig - h
        ym = f(x).item()
        x.data[idx] = orig
        if not (math.isfinite(yp) and math.isfinite(ym)):
            raise ValueError("grad_check: non-finite perturbed value")
        numeric = (yp - ym) / (2.0 * h)
        err = abs(analytic[idx] - numeric) / (abs(numeric) + 1e-8)
        worst = max(worst, err)
    return worst
