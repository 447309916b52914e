"""The voice transformer network: prenets, encoder/decoder stacks, postnet.

Conventions: sequences are (rows x time) matrices.  Attention matrices are
(source positions x target positions) and column-stochastic.  Speaker
conditioning appends an embedding column to the input of a sub-layer
(after layer norm, so LN statistics stay speaker independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Tensor
from .errors import ShapeError, VtnError

_MODEL_MAGIC = b"VTNM"
_MODEL_VERSION = 1

PRENET_KERNEL = 5
PRENET_DILATIONS = (1, 2, 4)


@dataclass
class VtnConfig:
    L: int = 4
    H: int = 4
    d: int = 512
    d_ffn: int = 1024
    n_mcc: int = 28
    r: int = 3
    ln_placement: str = "pre"       # "pre" or "post"
    mode: str = "many_to_many"      # "one_to_one", "many_to_many", "any_to_many"
    realtime: bool = False
    n_speakers: int = 2
    e: int = 32
    dropout_rate: float = 0.1
    final_ln: bool = True

    def __post_init__(self):
        container.check_fields(
            self, "model config", L="[1, inf)", H="[1, inf)", d="[1, inf)",
            d_ffn="[1, inf)", n_mcc="[1, inf)", r="[1, inf)", n_speakers="[1, inf)",
            e="[1, inf)", dropout_rate="[0, 1)")
        if self.d % self.H != 0:
            raise ShapeError(f"d={self.d} not divisible by H={self.H}")
        if self.ln_placement not in ("pre", "post"):
            raise ShapeError(f"unknown ln_placement {self.ln_placement!r}")
        if self.mode not in ("one_to_one", "many_to_many", "any_to_many"):
            raise ShapeError(f"unknown mode {self.mode!r}")

    @property
    def D(self) -> int:
        return (self.n_mcc + 3) * self.r

    @property
    def src_conditioned(self) -> bool:
        return self.mode == "many_to_many"

    @property
    def tgt_conditioned(self) -> bool:
        return self.mode in ("many_to_many", "any_to_many")

    @property
    def has_final_ln(self) -> bool:
        """Whether encoder and decoder each end in a layer norm (pre-LN only)."""
        return self.ln_placement == "pre" and self.final_ln


def positional_encoding(n: int, dim: int) -> np.ndarray:
    """Sinusoidal position matrix (dim x n); odd dim drops the last cos row."""
    rows = np.arange((dim + 1) // 2)
    angles = np.arange(n)[None, :] / (10000.0 ** (2.0 * rows[:, None] / dim))
    out = np.empty((2 * len(rows), n))
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)
    return out[:dim]


class Layout(NamedTuple):
    """Which keys each packed query may attend to, in the order of
    ``ad.attention``'s arguments: query segment p of qs sees key segment p of
    ks, causal hides the keys past a query's position, and window, for a
    column-exact pass, is the 0-based half-open key range [lo, hi) of its
    last query column."""
    qs: ad.Segments
    ks: ad.Segments
    causal: bool
    window: tuple[int, int] | None = None


class Decoding(NamedTuple):
    """What a decoder pass needs that does not depend on its target input,
    built once per pass or per conversion: the encoded source z, its
    segments src_segs, each layer's target-to-source keys and values
    W6 @ z, the weight-normalised target-prenet and postnet kernels in
    ``ad.conv1d``'s layout, the (e x P) embedding column of each segment's
    target speaker (None where the target side is unconditioned), whether
    target-to-source attention is the identity alignment, and whether it
    was built in column-exact mode, the one mode its cache steps in."""
    z: Tensor
    src_segs: ad.Segments
    kv: list[Tensor]
    prenet: list[Tensor]
    postnet: list[Tensor]
    spk: Tensor | None
    identity: bool
    exact: bool


class DecoderCache:
    """The state of one decoding, which each ``VtnModel.decode_step`` extends
    by the m >= 1 columns it appends, up to capacity columns: the constants
    dec, the input columns of each causal conv of the target prenet
    (inputs) and the postnet (post), after (K-1) * dilation zero columns
    that stand for its causal padding, each net's first input holding the
    target speaker's rows under every column, and the prenet's output
    columns.  n counts the columns so far."""

    def __init__(self, dec: Decoding, capacity: int):
        self.dec, self.n = dec, 0
        self.inputs, self.post = ([np.zeros((w.data.shape[2], (PRENET_KERNEL - 1) * dil + capacity))
                                   for w, dil in zip(net, PRENET_DILATIONS)]
                                  for net in (dec.prenet, dec.postnet))
        if dec.spk is not None:
            for first in (self.inputs[0], self.post[0]):
                first[-dec.spk.data.shape[0]:, PRENET_KERNEL - 1:] = dec.spk.data
        self.out = np.empty((dec.prenet[-1].data.shape[0] // 2, capacity))


def _causal_columns(bufs: list[np.ndarray], kernels: list[Tensor], x: np.ndarray, n: int,
                    m: int, glu_last: bool) -> np.ndarray:
    """The newest m output columns of a prenet's or the postnet's three
    causal convs, x being the first conv's input columns ..n-1, at least m
    of them: each conv writes its input columns into its buffer in bufs and
    runs over them (the last over the newest m) as ``ad.conv1d``'s
    column-exact gemvs of the flat kernel and each column's taps; GLU
    follows all but the last, it too if glu_last."""
    for i, (buf, w, dil) in enumerate(zip(bufs, kernels, PRENET_DILATIONS)):
        span, last = (PRENET_KERNEL - 1) * dil, i == len(bufs) - 1
        buf[:x.shape[0], span + n - x.shape[1]:span + n] = x
        first = n - (m if last else x.shape[1])
        taps = np.concatenate([buf[:, first + t * dil:n + t * dil]
                               for t in range(PRENET_KERNEL)])
        x = ad.matmul(w.data.reshape(w.data.shape[0], -1), taps)
        x = (ad.glu(x) if glu_last or not last else x).data
    return x


# ---------------------------------------------------------------------------
# parameter construction

def param_shapes(cfg: VtnConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learnable parameter, in creation order."""
    d, e = cfg.d, cfg.e
    shapes: dict[str, tuple[int, ...]] = {}

    def conv_layer(name, c_in, c_out):
        shapes[f"{name}.dir"] = (c_out, c_in, PRENET_KERNEL)
        shapes[f"{name}.scale"] = (c_out,)

    def prenet(name, c_in, conditioned):
        chans = [c_in + (e if conditioned else 0), d, d]
        for i, ci in enumerate(chans):
            conv_layer(f"{name}.{i}", ci, 2 * d)  # GLU halves back to d

    src_in = d + e if cfg.src_conditioned else d
    tgt_in = d + e if cfg.tgt_conditioned else d

    prenet("src_prenet", cfg.D, cfg.src_conditioned)
    prenet("tgt_prenet", cfg.D, cfg.tgt_conditioned)
    # postnet: two GLU conv layers then a linear conv back to D
    post_c0 = d + (e if cfg.tgt_conditioned else 0)
    conv_layer("postnet.0", post_c0, 2 * d)
    conv_layer("postnet.1", d, 2 * d)
    conv_layer("postnet.2", d, cfg.D)

    def ln(name):
        shapes[f"{name}.gain"] = (d, 1)
        shapes[f"{name}.bias"] = (d, 1)

    def ffn(name, d_in):
        shapes[f"{name}.W3"] = (2 * cfg.d_ffn, d_in)
        shapes[f"{name}.b3"] = (2 * cfg.d_ffn, 1)
        shapes[f"{name}.W4"] = (d, cfg.d_ffn)
        shapes[f"{name}.b4"] = (d, 1)

    for l in range(cfg.L):
        ln(f"enc.{l}.ln1")
        ln(f"enc.{l}.ln2")
        shapes[f"enc.{l}.sa.W1"] = (3 * d, src_in)
        shapes[f"enc.{l}.sa.W2"] = (d, d)
        ffn(f"enc.{l}.ffn", src_in)
    for l in range(cfg.L):
        ln(f"dec.{l}.ln1")
        ln(f"dec.{l}.ln2")
        ln(f"dec.{l}.ln3")
        shapes[f"dec.{l}.sa.W1"] = (3 * d, tgt_in)
        shapes[f"dec.{l}.sa.W2"] = (d, d)
        shapes[f"dec.{l}.tsa.W5"] = (d, tgt_in)
        shapes[f"dec.{l}.tsa.W6"] = (2 * d, d)
        shapes[f"dec.{l}.tsa.W7"] = (d, d)
        ffn(f"dec.{l}.ffn", tgt_in)
    if cfg.has_final_ln:
        ln("enc_final_ln")
        ln("dec_final_ln")
    if cfg.mode != "one_to_one":
        shapes["emb"] = (cfg.n_speakers, e)
    return shapes


def _uniform(rng, shape, fan_in):
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class VtnModel:
    """All learnable parameters plus the architecture configuration."""

    def __init__(self, config: VtnConfig, params: dict[str, Tensor],
                 speakers: list[str] | None = None):
        self.config = config
        self.params = params
        self.speakers = speakers
        self._pe = positional_encoding(0, config.D)

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: VtnConfig, seed: int = 0,
             speakers: list[str] | None = None) -> "VtnModel":
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}
        for name, shape in param_shapes(config).items():
            kind = name.rsplit(".", 1)[-1]
            if kind == "scale":
                direction = p[name[:-len(kind)] + "dir"].data
                norms = np.sqrt((direction.reshape(shape[0], -1) ** 2).sum(axis=1))
                # gain 2 compensates the sigmoid gate's signal attenuation;
                # without it activations shrink ~4x per GLU layer and
                # training crawls
                arr = 2.0 * norms
            elif kind == "gain":
                arr = np.ones(shape)
            elif kind in ("bias", "b3", "b4"):
                arr = np.zeros(shape)
            elif kind == "emb":
                arr = rng.normal(0.0, 0.01, size=shape)
            else:  # conv directions and projection matrices: fan-in uniform
                arr = _uniform(rng, shape, math.prod(shape[1:]))
            p[name] = Tensor(arr, requires_grad=True)
        return cls(config, p, speakers)

    # -- helpers ------------------------------------------------------------

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    def _kernels(self, name: str) -> list[Tensor]:
        """The weight-normalised kernels of the three convs of a prenet or
        the postnet, each laid out once as ``ad.conv1d`` takes it: stored
        (c_out, c_in, K), permuted to (c_out, K, c_in)."""
        p = self.params
        return [ad.transpose(ad.weight_norm_apply(p[f"{name}.{i}.dir"], p[f"{name}.{i}.scale"]),
                             (0, 2, 1))
                for i in range(len(PRENET_DILATIONS))]

    def _positions(self, lengths: tuple[int, ...]) -> np.ndarray:
        """Positional encodings of segments packed along time, each from 0.
        Column n of positional_encoding does not depend on the length asked
        for, so every segment is a slice of one table grown as needed."""
        if max(lengths) > self._pe.shape[1]:
            self._pe = positional_encoding(max(max(lengths), 2 * self._pe.shape[1]),
                                           self.config.D)
        if len(lengths) == 1:
            return self._pe[:, :lengths[0]]
        return np.concatenate([self._pe[:, :n] for n in lengths], axis=1)

    def _speaker_columns(self, ks: list[int | None], conditioned: bool,
                         role: str) -> Tensor | None:
        """(e x P) embedding columns of the role ("source" or "target")
        speaker of each packed segment, one emb^T @ one_hot product.  None
        where that side of the network is not speaker-conditioned."""
        if not conditioned:
            return None
        for k in ks:
            if k is None:
                raise ShapeError(f"{self.config.mode} mode requires a {role} speaker index")
            if not 0 <= k < self.config.n_speakers:
                raise ShapeError(f"speaker index {k} out of range")
        one_hot = np.zeros((self.config.n_speakers, len(ks)))
        one_hot[ks, np.arange(len(ks))] = 1.0
        return ad.matmul(ad.transpose(self.params["emb"]), Tensor(one_hot))

    @staticmethod
    def _tiled(cols: Tensor | None, segs: ad.Segments) -> Tensor | None:
        """Each speaker column repeated over its segment."""
        return None if cols is None else ad.tile_cols(cols, segs.lengths)

    @staticmethod
    def _last(x: Tensor | None, n: int) -> Tensor | None:
        """The last n columns of x, x itself when it has no more."""
        return x if x is None or x.data.shape[1] == n else ad.index(x, np.s_[:, -n:])

    def _conditioned_rows(self, x: Tensor, spk: Tensor | None) -> list[Tensor]:
        """x and, unless spk is None, the speaker columns of its pass: the
        row blocks that a conv or a matrix product reads as one input."""
        return [x] if spk is None else [x, spk]

    def _ln(self, name, x):
        return ad.layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _prenet(self, kernels, x, spk, causal, segs=None):
        x = self._conditioned_rows(x, spk)
        for w, dil in zip(kernels, PRENET_DILATIONS):
            x = ad.glu(ad.conv1d(x, w, dilation=dil, causal=causal, segs=segs))
        return x

    def _postnet(self, kernels, x, spk, segs=None):
        """Two GLU convs, as in a causal prenet, then a linear conv."""
        x = self._prenet(kernels[:2], x, spk, True, segs)
        return ad.conv1d(x, kernels[2], dilation=PRENET_DILATIONS[2], causal=True, segs=segs)

    def _sa(self, prefix, x, lay: Layout):
        """Self-attention of the last lay.qs.n columns of the row blocks x
        over the keys and values of all of them."""
        d = self.config.d
        qkv = ad.matmul(self.params[f"{prefix}.W1"], x)
        heads, _ = ad.attention(self._last(qkv, lay.qs.n), qkv, d, self.config.H,
                                1.0 / math.sqrt(d), *lay)
        return ad.matmul(self.params[f"{prefix}.W2"], heads)

    def _tsa(self, prefix, x, kv, lay: Layout, identity, first: int = 0):
        """The output and the ragged attention of the row blocks x against the
        keys and values kv, the attention None under the identity alignment of
        a one-segment pass: target position j, x holding the positions
        first.., attends to source position j only (which must exist), so
        every head passes its values through and no query is needed."""
        d = self.config.d
        if identity:
            heads, attn = ad.index(kv, np.s_[d:2 * d, first:first + x[0].data.shape[1]]), None
        else:
            q_all = ad.matmul(self.params[f"{prefix}.W5"], x)
            heads, attn = ad.attention(q_all, kv, 0, self.config.H, 1.0 / math.sqrt(d), *lay)
        return ad.matmul(self.params[f"{prefix}.W7"], heads), attn

    def _ffn(self, prefix, x):
        p = self.params
        inner = ad.glu(ad.add_bias(ad.matmul(p[f"{prefix}.W3"], x), p[f"{prefix}.b3"]))
        return ad.add_bias(ad.matmul(p[f"{prefix}.W4"], inner), p[f"{prefix}.b4"])

    # -- encoder / decoder --------------------------------------------------

    def _sublayer(self, ln_name, x, spk, f):
        """Residual sub-layer around f, which sees the speaker-conditioned row
        blocks of its input and may return x's last columns alone: x + f(LN(x))
        pre-LN, LN(x + f(x)) post-LN, with x cut to the columns f returns."""
        pre = self.config.ln_placement == "pre"
        y = f(self._conditioned_rows(self._ln(ln_name, x) if pre else x, spk))
        u = ad.add(self._last(x, y.data.shape[1]), y)
        return u if pre else self._ln(ln_name, u)

    def encoder_layer(self, l: int, x: Tensor, spk, lay: Layout) -> Tensor:
        name = f"enc.{l}"
        u = self._sublayer(f"{name}.ln1", x, spk, lambda h: self._sa(f"{name}.sa", h, lay))
        return self._sublayer(f"{name}.ln2", u, spk, lambda h: self._ffn(f"{name}.ffn", h))

    def decoder_layer(self, l: int, x: Tensor, kv: Tensor, spk, self_lay: Layout,
                      tsa_lay: Layout, identity: bool) -> tuple[Tensor, Tensor | None]:
        """Layer l over x, whose target-to-source attention reads the keys
        and values kv = W6 @ z.  Its queries are the last self_lay.qs.n
        columns of x: the self-attention reads the keys and values of every
        column, and the rest of the layer runs over the query columns
        alone, which are all of x but in a decoding step's last layer."""
        name = f"dec.{l}"
        n, n_q = x.data.shape[1], self_lay.qs.n
        attn: list[Tensor] = []

        def tsa(h):
            out, a = self._tsa(f"{name}.tsa", h, kv, tsa_lay, identity, n - n_q)
            attn.append(a)
            return out

        u1 = self._sublayer(f"{name}.ln1", x, spk, lambda h: self._sa(f"{name}.sa", h, self_lay))
        spk = self._last(spk, n_q)
        u2 = self._sublayer(f"{name}.ln2", u1, spk, tsa)
        return self._sublayer(f"{name}.ln3", u2, spk, lambda h: self._ffn(f"{name}.ffn", h)), attn[0]

    def _dropout(self, training: bool, rng: np.random.Generator | None,
                 shapes: list[list[tuple[int, int]]]) -> list[np.ndarray] | None:
        """Inverted-dropout factors, one packed array per dropout site.

        shapes[i] lists segment i's (rows, columns) at each site; the masks
        are drawn segment by segment and, within one, site by site, so a pair
        draws the same masks packed or alone.  None when dropout is off."""
        rate = self.config.dropout_rate
        if not training or rate == 0.0:
            return None
        if rng is None:
            raise ValueError("training-mode dropout requires an explicit rng")
        keep = [[rng.random(shape) >= rate for shape in sites] for sites in shapes]
        return [np.concatenate(site, axis=1) / (1.0 - rate) for site in zip(*keep)]

    def _encode(self, x: Tensor, segs: ad.Segments, spk: Tensor | None,
                drop: np.ndarray | None) -> Tensor:
        cfg = self.config
        x = ad.add(x, Tensor(self._positions(segs.lengths)))
        if drop is not None:
            x = ad.mul(x, Tensor(drop))
        x = self._prenet(self._kernels("src_prenet"), x, spk, cfg.realtime, segs)
        lay = Layout(segs, segs, cfg.realtime)
        for l in range(cfg.L):
            x = self.encoder_layer(l, x, spk, lay)
        if cfg.has_final_ln:
            x = self._ln("enc_final_ln", x)
        return x

    def _decoding(self, z: Tensor, src_segs: ad.Segments, spk: Tensor | None,
                  identity: bool) -> Decoding:
        """The constants of passes against z, packed as src_segs, with the
        speaker columns spk."""
        p = self.params
        return Decoding(z, src_segs,
                        [ad.matmul(p[f"dec.{l}.tsa.W6"], z) for l in range(self.config.L)],
                        self._kernels("tgt_prenet"), self._kernels("postnet"), spk,
                        identity, ad.in_column_exact())

    def _decode(self, x: Tensor, dec: Decoding, segs: ad.Segments,
                drops: list[np.ndarray] | None) -> tuple[Tensor, list[Tensor | None]]:
        """The decoder of the packed teacher-forced training pass."""
        spk = self._tiled(dec.spk, segs)
        x = ad.add(x, Tensor(self._positions(segs.lengths)))
        if drops is not None:
            x = ad.mul(x, Tensor(drops[0]))
        x = self._prenet(dec.prenet, x, spk, True, segs)
        x, attn = self._decoder_stack(x, dec, spk, segs, segs)
        if drops is not None:
            x = ad.mul(x, Tensor(drops[1]))
        return self._postnet(dec.postnet, x, spk, segs), attn

    def _decoder_stack(self, x: Tensor, dec: Decoding, spk: Tensor | None, segs: ad.Segments,
                       tail: ad.Segments, window: tuple[int, int] | None = None
                       ) -> tuple[Tensor, list[Tensor | None]]:
        """The decoder layers and the final layer norm over the target
        prenet's output x, the last layer's queries being its last tail.n
        columns (all of segs in training; a step of m columns queries the
        newest m + 1), so the output holds those columns alone; window cuts
        the last column's target-to-source attention in every layer."""
        cfg = self.config
        attn = []
        for l in range(cfg.L):
            qs = tail if l == cfg.L - 1 else segs
            x, a = self.decoder_layer(l, x, dec.kv[l], spk, Layout(qs, segs, True),
                                      Layout(qs, dec.src_segs, False, window), dec.identity)
            attn.append(a)
        if cfg.has_final_ln:
            x = self._ln("dec_final_ln", x)
        return x, attn

    def _per_head(self, attn: list[Tensor], n_src: int, n_tgt: int) -> list[list[Tensor]]:
        """Each head's (N_src x N_tgt) attention of a one-segment pass."""
        h = self.config.H
        blocks = [ad.reshape(a, (h, n_src, n_tgt)) for a in attn]
        return [[ad.index(a, np.s_[i]) for i in range(h)] for a in blocks]

    def encode(self, src, k: int | None = None) -> Tensor:
        """The encoder without dropout over one source src (D x N_src)."""
        cfg = self.config
        src = src if isinstance(src, Tensor) else Tensor(src)
        segs = ad.segments((src.data.shape[1],))
        spk = self._speaker_columns([k], cfg.src_conditioned, "source")
        return self._encode(src, segs, self._tiled(spk, segs), None)

    def decoding(self, z: Tensor, kp: int | None = None) -> Decoding:
        """The decoder's constants for one conversion of the encoded source
        z into target speaker kp, which a ``DecoderCache`` holds."""
        return self._decoding(z, ad.segments((z.data.shape[1],)),
                              self._speaker_columns([kp], self.config.tgt_conditioned,
                                                    "target"),
                              self.config.realtime)

    def decode(self, tgt_in, z: Tensor, kp: int | None = None,
               window: tuple[int, int] | None = None) -> tuple[Tensor, np.ndarray]:
        """The decoder without dropout over the (D x N) target input tgt_in
        against the encoded source z into target speaker kp: one
        ``decode_step`` of all N columns into a fresh ``DecoderCache`` of
        ``decoding(z, kp)``.  Returns the (D x N) output, inference-only (no
        graph), and the (L, H, N_src, N) attention; window cuts the last column."""
        # the step checks tgt_in's shape; a (D x N) one fills the cache
        cache = DecoderCache(self.decoding(z, kp), np.size(tgt_in) // self.config.D)
        y, attn = self.decode_step(tgt_in, cache, window)
        return Tensor(y), attn

    def decode_step(self, tgt_in, cache: DecoderCache,
                    window: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Append the (D x m) target input tgt_in, m >= 1, to the n - m columns
        in cache, which holds ``decoding(z, kp)``: the m output columns (D x m)
        and (L, H, N_src, m) attention of a teacher-forced pass over all n,
        with the same bits in column-exact mode (the mode must be
        ``decoding``'s).  window: the source range [lo, hi) (0-based) of the
        last column's target-to-source attention, column-exact mode only; the
        next call recomputes that column without it.  The target prenet runs
        over the m new columns, every decoder layer but the last over all n,
        the last layer's queries and all after them over the newest
        min(n, m + 1), and the postnet's output conv over the newest m
        (``_causal_columns``).  A realtime model attends from target position
        j to source position j alone (N_tgt <= N_src), its attention a
        read-only broadcast of that identity.  A refused call leaves the cache
        as it was."""
        cfg, dec = self.config, cache.dec
        tgt_in = np.asarray(tgt_in, dtype=np.float64)
        if tgt_in.ndim != 2 or tgt_in.shape[0] != cfg.D or tgt_in.shape[1] == 0:
            raise ShapeError(f"decode_step: the target input must be ({cfg.D}, m), m >= 1, "
                             f"not {tgt_in.shape}")
        j, m, n_src = cache.n, tgt_in.shape[1], dec.src_segs.n
        n = j + m
        if n > cache.out.shape[1]:
            raise ShapeError(f"decode_step: the decoder cache has room for "
                             f"{cache.out.shape[1] - j} more columns, not {m}")
        if dec.exact != ad.in_column_exact():
            modes = ("fast", "column-exact")
            raise ShapeError(f"decode_step: a decoder cache whose constants were built in "
                             f"{modes[dec.exact]} mode cannot step in {modes[not dec.exact]} mode")
        if dec.identity and n > n_src:
            raise ShapeError(f"decode_step: identity alignment needs N_tgt <= N_src, "
                             f"not {n} > {n_src}")
        x = tgt_in + self._positions((n,))[:, j:]
        cache.out[:, j:n] = _causal_columns(cache.inputs, dec.prenet, x, n, m, True)
        segs, tail = ad.segments((n,)), ad.segments((min(n, m + 1),))
        h, attn = self._decoder_stack(Tensor(cache.out[:, :n]), dec, self._tiled(dec.spk, segs),
                                      segs, tail, window)
        y = _causal_columns(cache.post, dec.postnet, h.data, n, m, False)
        cache.n = n
        if dec.identity:
            return y, self.identity_attention(n_src, m, j)
        return y, np.stack([a.data.reshape(cfg.H, n_src, -1)[..., -m:] for a in attn])

    def identity_attention(self, n_src: int, n_tgt: int, first: int = 0) -> np.ndarray:
        """A realtime model's (L, H, N_src, N_tgt) attention of the target
        positions first.., each on its own source position alone: a
        read-only broadcast."""
        cfg = self.config
        return np.broadcast_to(np.eye(n_src, n_tgt, -first), (cfg.L, cfg.H, n_src, n_tgt))

    def forward(self, src: np.ndarray, tgt_in: np.ndarray, k: int | None = None,
                kp: int | None = None, training: bool = False,
                rng: np.random.Generator | None = None
                ) -> tuple[Tensor, list[list[Tensor]]]:
        """Teacher-forced pass of one pair, src (D x N_src) and tgt_in
        (D x N_tgt+1, zero-prepended): ``forward_packed`` of that pair, with
        each decoder layer's attention split into its heads."""
        y, attn, src_segs, segs = self.forward_packed([(k, kp, src, tgt_in)], training, rng)
        return y, self._per_head(attn, src_segs.n, segs.n)

    def forward_packed(self, pairs, training: bool = False,
                       rng: np.random.Generator | None = None
                       ) -> tuple[Tensor, list[Tensor], ad.Segments, ad.Segments]:
        """One teacher-forced pass over (k, kp, src, tgt_in) pairs packed along
        time, with each pair's maths and dropout draws those of a pass of that
        pair alone (``forward``).  Returns the packed output, the ragged
        attention of every decoder layer (pair p's (H, N_src, N_tgt+1) block
        after pair p-1's), and the source and target segments."""
        cfg = self.config
        for i, (_, _, src, tgt_in) in enumerate(pairs):
            for side, x in (("source", src), ("target", tgt_in)):
                if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.shape[0] == cfg.D
                        and x.shape[1] >= 1):
                    raise ShapeError(f"pair {i}: the {side} must be a 2-D ndarray with {cfg.D} "
                                     f"rows and at least one column, not a "
                                     f"{type(x).__name__} of shape {getattr(x, 'shape', None)}")
        src_segs = ad.segments(tuple(src.shape[1] for _, _, src, _ in pairs))
        segs = ad.segments(tuple(tgt.shape[1] for _, _, _, tgt in pairs))
        drops = self._dropout(training, rng, [[(cfg.D, ns), (cfg.D, nt), (cfg.d, nt)]
                                              for ns, nt in zip(src_segs.lengths, segs.lengths)])
        src_spk = self._speaker_columns([p[0] for p in pairs], cfg.src_conditioned, "source")
        spk = self._speaker_columns([p[1] for p in pairs], cfg.tgt_conditioned, "target")
        z = self._encode(Tensor(np.concatenate([p[2] for p in pairs], axis=1)), src_segs,
                         self._tiled(src_spk, src_segs), drops and drops[0])
        y, attn = self._decode(Tensor(np.concatenate([p[3] for p in pairs], axis=1)),
                               self._decoding(z, src_segs, spk, False), segs,
                               drops and drops[1:])
        return y, attn, src_segs, segs

    # -- checkpoint I/O -----------------------------------------------------

    def save(self, path) -> None:
        header = {"config": asdict(self.config), "speakers": self.speakers}
        with container.writing(path, _MODEL_MAGIC, _MODEL_VERSION) as writer:
            container.write_json_blocks(writer, header,
                                        {k: v.data for k, v in self.params.items()})

    @classmethod
    def load(cls, path) -> "VtnModel":
        header, arrays = container.read_json_blocks(
            container.Reader(path, _MODEL_MAGIC, _MODEL_VERSION))
        settings = container.value(path, header, "config", dict)
        if set(settings) != {f.name for f in fields(VtnConfig)}:
            container.fail(path, f"stored config keys {sorted(settings)} are not VtnConfig's")
        try:
            config = VtnConfig(**settings)
        except VtnError as exc:
            container.fail(path, f"bad model config: {exc}")
        speakers = container.value(path, header, "speakers", list, type(None))
        if speakers is not None and not all(type(s) is str for s in speakers):
            container.fail(path, "'speakers' must be a list of names")
        if {k: v.shape for k, v in arrays.items()} != param_shapes(config):
            container.fail(path, "parameter names or shapes do not match the stored config")
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        return cls(config, params, speakers)
