"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

Tensors are 2-D matrices laid out as (feature rows x time columns), plus
0-d scalars for losses and the flat ragged attention of ``attention``.  The
graph is recorded through parent links on each tensor; ``Tensor.backward``
runs one topologically ordered sweep.

Two evaluation modes exist:

* fast mode (default) uses whole-matrix numpy/BLAS kernels.  Results are
  deterministic for fixed shapes, but a column of a matrix product is not
  guaranteed to be bit-identical when the matrix width changes.
* column-exact mode (``with column_exact():``) keeps one rule: every output
  column is reduced on its own, with a fixed-shape kernel over contiguous
  operands that hold exactly what that column depends on.  ``_mm`` makes one
  gemv per output column, ``layer_norm`` normalises column by column, and
  ``attention`` lets each query column attend over its own unmasked keys
  only.  Column n of any causal computation is therefore bit-identical no
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

from .errors import DegenerateColumnError, ShapeError

NEG_INF = -1e30
_MASKED = -1e29  # entries below this are treated as fully masked

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


class Tensor:
    """Dense float64 array with optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

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
        """Backpropagate from a scalar tensor through the recorded graph."""
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


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
    leaves the earlier ones bit-identical.
    """
    if not _column_exact:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for j, col in enumerate(np.ascontiguousarray(b.T)):
        out[:, j] = a @ col
    return out


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
    return add(a, scale(b, -1.0))


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


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def backward(g):
        a._accum(g * c, owned=True)

    return _result(a.data * c, (a,), backward)


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


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accum(g.T)

    return _result(a.data.T.copy(), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accum(g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def slice_rows(a: Tensor, i0: int, i1: int) -> Tensor:
    return index(a, np.s_[i0:i1])


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    return index(a, np.s_[:, j0:j1])


def index(a: Tensor, key) -> Tensor:
    """a.data[key] for a basic (slice and integer) key, as a new tensor."""
    a = _as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accum(full, owned=True)

    return _result(a.data[key].copy(), (a,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    widths = {p.data.shape[1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows: mismatched widths {sorted(widths)}")
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(g):
        for p, o, s in zip(parts, offsets, sizes):
            if p.requires_grad:
                p._accum(g[o:o + s])

    return _result(np.concatenate([p.data for p in parts], axis=0), parts, backward)


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

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out_data = _mm(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T, owned=True)
        if b.requires_grad:
            b._accum(a.data.T @ g, owned=True)

    return _result(out_data, (a, b), backward)


def masked_softmax_columns(x: Tensor, mask: np.ndarray) -> Tensor:
    """Column-wise softmax with an additive mask of 0 / -1e30 sentinels.

    Masked rows come out exactly 0; every unmasked column sums to 1.  The
    model runs its softmax inside ``attention``; this stand-alone op is the
    reference that op is tested against.
    """
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.data.shape:
        raise ShapeError(f"mask shape {mask.shape} != input {x.data.shape}")
    keep = mask > _MASKED
    if not keep.any(axis=0).all():
        raise DegenerateColumnError("softmax column has all rows masked")
    z = x.data + mask
    e = np.exp(z - z.max(axis=0, keepdims=True))
    e[~keep] = 0.0
    y = e / e.sum(axis=0, keepdims=True)

    def backward(g):
        gy = y * (g - (g * y).sum(axis=0, keepdims=True))
        x._accum(gy, owned=True)

    return _result(y, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each column to zero mean / unit variance over its rows."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d, n = x.data.shape
    if gain.data.shape != (d, 1) or bias.data.shape != (d, 1):
        raise ShapeError("layer_norm gain/bias must be (d, 1) columns")

    if _column_exact:
        xhat = np.empty_like(x.data)
        inv_std = np.empty((1, n))
        for j in range(n):
            col = x.data[:, j]
            mu = col.sum() / d
            c = col - mu
            var = (c * c).sum() / d
            s = 1.0 / math.sqrt(var + eps)
            inv_std[0, j] = s
            xhat[:, j] = c * s
    else:
        mu = x.data.mean(axis=0, keepdims=True)
        c = x.data - mu
        var = (c * c).mean(axis=0, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = c * inv_std
    y = gain.data * xhat + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accum((g * xhat).sum(axis=1, keepdims=True), owned=True)
        if bias.requires_grad:
            bias._accum(g.sum(axis=1, keepdims=True), owned=True)
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=0, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=0, keepdims=True)
            x._accum(inv_std * (gx_hat - m1 - xhat * m2), owned=True)

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


def conv1d(x: Tensor, kernel: Tensor, dilation: int = 1, causal: bool = False,
           segs: Segments | None = None) -> Tensor:
    """1-D convolution over the time axis, length-preserving.

    x is (c_in, N); kernel is (c_out, c_in, K).  Non-causal convs need odd K
    and pad symmetrically; causal convs pad (K-1)*dilation on the left only.
    With segs, x holds segments packed along time and each segment is
    zero-padded at its own edges, so no tap reads across a boundary.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim != 2 or kernel.data.ndim != 3 or kernel.data.shape[1] != x.data.shape[0]:
        raise ShapeError(f"conv1d: x {x.data.shape}, kernel {kernel.data.shape}")
    c_out, c_in, k = kernel.data.shape
    n = x.data.shape[1]
    if causal:
        pad_l, pad_r = (k - 1) * dilation, 0
    else:
        if k % 2 == 0:
            raise ShapeError("non-causal conv1d requires odd kernel size")
        pad_l = pad_r = (k - 1) // 2 * dilation
    segs = segments((n,)) if segs is None else segs
    if segs.n != n:
        raise ShapeError(f"conv1d: segments cover {segs.n} columns, x has {n}")
    xp = np.pad(x.data, ((0, 0), (pad_l, pad_r)))
    # im2col: one gemm instead of k small ones.  Tap t of output column j
    # reads column j + offsets[t]; where that crosses the edge of j's
    # segment the entry is zeroed, as if each segment were padded alone.
    offsets = [t * dilation - pad_l for t in range(k)]
    xcol = np.empty((k * c_in, n), dtype=np.float64)
    for t, o in enumerate(offsets):
        rows = xcol[t * c_in:(t + 1) * c_in]
        rows[:] = xp[:, t * dilation:t * dilation + n]
        rows[:, segs.outside(o)] = 0.0
    w = kernel.data.transpose(0, 2, 1).reshape(c_out, -1)
    y = _mm(w, xcol)

    def backward(g):
        if kernel.requires_grad:
            gk = (g @ xcol.T).reshape(c_out, k, c_in).transpose(0, 2, 1)
            kernel._accum(np.ascontiguousarray(gk), owned=True)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            gcol = w.T @ g
            for t, o in enumerate(offsets):
                rows = gcol[t * c_in:(t + 1) * c_in]
                rows[:, segs.outside(o)] = 0.0
                gxp[:, t * dilation:t * dilation + n] += rows
            x._accum(gxp[:, pad_l:pad_l + n], owned=True)

    return _result(y, (x, kernel), backward)


def causal_mask(n: int) -> np.ndarray:
    """(key, query) additive mask: key position may not exceed query position."""
    keys = np.arange(n)[:, None]
    queries = np.arange(n)[None, :]
    return np.where(keys <= queries, 0.0, NEG_INF)


_causal = causal_mask(0)


def _causal_slice(n_k: int, n_q: int) -> np.ndarray:
    """causal_mask(max(n_k, n_q))[:n_k, :n_q], a read-only slice of one
    cached mask grown as needed."""
    global _causal
    if max(n_k, n_q) > len(_causal):
        _causal = causal_mask(max(n_k, n_q, 2 * len(_causal)))
        _causal.flags.writeable = False
    return _causal[:n_k, :n_q]


def _attention_columns(q: np.ndarray, kv: np.ndarray, k_row: int, n_heads: int,
                       scale: float, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-exact attention of one segment; keep[i, j] says whether query j
    sees key i.  Returns the (d x N_q) head outputs and the (n_heads, N_k, N_q)
    attention."""
    d = (kv.shape[0] - k_row) // 2
    dh = d // n_heads
    keys, values = kv[k_row:k_row + d], kv[k_row + d:k_row + 2 * d]
    a = np.zeros((n_heads,) + keep.shape)
    out = np.empty((d, keep.shape[1]))
    for j, qj in enumerate(np.ascontiguousarray(q[:d].T)):
        idx = np.flatnonzero(keep[:, j])
        kh = keys.take(idx, axis=1).reshape(n_heads, dh, -1)
        vh = values.take(idx, axis=1).reshape(n_heads, dh, -1)
        z = np.matmul(kh.swapaxes(1, 2), qj.reshape(n_heads, dh, 1))
        z *= scale
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        a[:, idx, j] = z[:, :, 0]
        out[:, j] = np.matmul(vh, z).reshape(d)
    return out, a


def attention(q: Tensor, kv: Tensor, k_row: int, n_heads: int, scale: float,
              qs: Segments, ks: Segments, causal: bool = False,
              window: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention of every head and every segment.

    With d = (rows of kv - k_row) / 2 and dh = d / n_heads, head i takes its
    queries from rows i*dh.. of q, its keys from rows k_row + i*dh.. of kv and
    its values d rows below its keys.  Query segment p of qs attends to key
    segment p of ks only, at that pair's own size: causal hides keys past a
    query's position, and window, for one segment only, is an extra additive
    (N_k x N_q) mask of 0 and NEG_INF sentinels that must leave every query a
    key.  Returns the stacked head outputs (d x N_q) and the ragged
    attention: one flat tensor holding segment p's (n_heads, n_k, n_q) block
    right after segment p-1's, column-stochastic over the segment's keys and
    exactly 0 at masked keys.

    Column-exact mode takes one segment and runs each query column on its
    own: its heads attend over contiguous copies of that column's unmasked
    keys and values only, so no later column or masked key enters its sums.
    """
    q, kv = _as_tensor(q), _as_tensor(kv)
    d = (kv.data.shape[0] - k_row) // 2
    if (d < 1 or d % n_heads or q.data.shape[0] < d or qs.p != ks.p
            or q.data.shape[1] != qs.n or kv.data.shape[1] != ks.n
            or ((window is not None or _column_exact) and qs.p != 1)
            or (window is not None and window.shape != (ks.n, qs.n))):
        raise ShapeError(f"attention: q {q.data.shape}, kv {kv.data.shape}, k_row {k_row}, "
                         f"{n_heads} heads, {qs.p}/{ks.p} segments, "
                         f"window {None if window is None else window.shape}")
    if window is not None or _column_exact:
        keep = _causal_slice(ks.n, qs.n) == 0 if causal else np.ones((ks.n, qs.n), bool)
        if window is not None:
            keep &= window > _MASKED
            if not keep.any(axis=0).all():
                raise DegenerateColumnError("attention window masks every key of a query")
        if _column_exact:
            out, a = _attention_columns(q.data, kv.data, k_row, n_heads, scale, keep)
            return Tensor(out), Tensor(a.ravel())
    dh = d // n_heads
    sizes = [n_heads * nk * nq for nk, nq in zip(ks.lengths, qs.lengths)]
    a = np.empty(sum(sizes))
    out = np.empty((d, qs.n))
    # per segment: its query and key columns, its heads' (H, dh, n) views of
    # q, k and v, and its (H, n_k, n_q) block of a
    blocks = []
    for q0, nq, k0, nk, o in zip(qs.starts, qs.lengths, ks.starts, ks.lengths,
                                 np.cumsum(sizes) - sizes):
        qc, kc = np.s_[q0:q0 + nq], np.s_[k0:k0 + nk]
        qh = q.data[:d, qc].reshape(n_heads, dh, nq)
        kh = kv.data[k_row:k_row + d, kc].reshape(n_heads, dh, nk)
        vh = kv.data[k_row + d:k_row + 2 * d, kc].reshape(n_heads, dh, nk)
        ap = a[o:o + n_heads * nk * nq].reshape(n_heads, nk, nq)
        np.matmul(kh.swapaxes(1, 2), qh, out=ap)
        ap *= scale
        if causal:
            ap += _causal_slice(nk, nq)
        if window is not None:
            ap += window
        ap -= ap.max(axis=1, keepdims=True)
        np.exp(ap, out=ap)
        ap /= ap.sum(axis=1, keepdims=True)
        out[:, qc] = np.matmul(vh, ap).reshape(d, nq)
        blocks.append((qc, kc, qh, kh, vh, ap, o))
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
        for qc, kc, qh, kh, vh, ap, o in blocks:
            gz = ga[o:o + ap.size].reshape(ap.shape)
            gz = gz - (gz * ap).sum(axis=1, keepdims=True)
            gz *= ap
            gz *= scale
            if q.requires_grad:
                grad_rows(q)[:d, qc] = np.matmul(kh, gz).reshape(d, -1)
            if kv.requires_grad:
                grad_rows(kv)[k_row:k_row + d, kc] = \
                    np.matmul(qh, gz.swapaxes(1, 2)).reshape(d, -1)
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
    a, b = x.data[:c], x.data[c:]
    sig = 1.0 / (1.0 + np.exp(-b))
    y = a * sig

    def backward(g):
        gx = np.empty_like(x.data)
        gx[:c] = g * sig
        gx[c:] = g * a * sig * (1.0 - sig)
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
        gflat = g.reshape(c_out, -1)
        dot = (gflat * flat).sum(axis=1)
        if w_scale.requires_grad:
            w_scale._accum(dot / denom, owned=True)
        if direction.requires_grad:
            coef = (w_scale.data / denom).reshape(shp)
            # d(1/denom)/d(dir) = -dir / (denom^2 * norm); guard norm == 0
            safe = np.where(norm > 0.0, norm, 1.0)
            corr = (w_scale.data * dot / (denom * denom * safe)).reshape(shp)
            direction._accum(coef * g - corr * direction.data, owned=True)

    return _result(w, (direction, w_scale), backward)


# ---------------------------------------------------------------------------
# optimizer and gradient checking

class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float,
              beta1: float, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place Adam update over every parameter with a gradient."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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
