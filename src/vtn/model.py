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
from .autodiff import Tensor, causal_mask  # noqa: F401  (part of this module's API)
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
    ks, causal hides the keys past a query's position, and window is an
    extra additive (N_k x N_q) mask of a one-segment pass."""
    qs: ad.Segments
    ks: ad.Segments
    causal: bool
    window: np.ndarray | None = None


def _layout(q_lengths: tuple[int, ...], k_lengths: tuple[int, ...], causal: bool,
            window: np.ndarray | None = None) -> Layout:
    """The layout of segments with these lengths; window is for one segment
    only, and ``ad.attention`` checks it."""
    if window is not None:
        window = np.asarray(window, dtype=np.float64)
    return Layout(ad.segments(q_lengths), ad.segments(k_lengths), causal, window)


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

    def _conv(self, name, x, causal, dilation, segs):
        w = ad.weight_norm_apply(self.params[f"{name}.dir"], self.params[f"{name}.scale"])
        return ad.conv1d(x, w, dilation=dilation, causal=causal, segs=segs)

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

    def _speaker_columns(self, ks: list[int | None], segs: ad.Segments) -> Tensor | None:
        """(e x N) embedding columns of the speaker of each packed segment:
        one emb^T @ one_hot product, one column per segment, each repeated
        over its segment.  None where the side is unconditioned."""
        if ks[0] is None:
            return None
        for k in ks:
            if not 0 <= k < self.config.n_speakers:
                raise ShapeError(f"speaker index {k} out of range")
        one_hot = np.zeros((self.config.n_speakers, segs.p))
        one_hot[ks, np.arange(segs.p)] = 1.0
        cols = ad.matmul(ad.transpose(self.params["emb"]), Tensor(one_hot))
        return ad.tile_cols(cols, segs.lengths)

    def _condition(self, x: Tensor, spk) -> Tensor:
        """x with speaker rows appended; spk is None, the speaker columns of a
        pass, or a speaker index for every column of x."""
        if spk is None:
            return x
        if not isinstance(spk, Tensor):
            spk = self._speaker_columns([spk], ad.segments((x.data.shape[1],)))
        return ad.concat_rows([x, spk])

    def _ln(self, name, x):
        return ad.layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _prenet(self, name, x, spk, causal, segs=None):
        x = self._condition(x, spk)
        for i, dil in enumerate(PRENET_DILATIONS):
            x = ad.glu(self._conv(f"{name}.{i}", x, causal, dil, segs))
        return x

    def _postnet(self, x, spk, segs=None):
        x = self._condition(x, spk)
        x = ad.glu(self._conv("postnet.0", x, True, PRENET_DILATIONS[0], segs))
        x = ad.glu(self._conv("postnet.1", x, True, PRENET_DILATIONS[1], segs))
        return self._conv("postnet.2", x, True, PRENET_DILATIONS[2], segs)

    def _sa(self, prefix, x, mask, causal=False):
        """mask: a Layout, or the additive (N x N) mask of one segment."""
        n = x.data.shape[1]
        lay = mask if isinstance(mask, Layout) else _layout((n,), (n,), causal, mask)
        d = self.config.d
        qkv = ad.matmul(self.params[f"{prefix}.W1"], x)
        heads, _ = ad.attention(qkv, qkv, d, self.config.H, 1.0 / math.sqrt(d), *lay)
        return ad.matmul(self.params[f"{prefix}.W2"], heads)

    def _tsa(self, prefix, x, z, window_mask, identity):
        """window_mask: a Layout, or None or the additive (N_src x N_tgt)
        mask of one segment.  Returns the output and the ragged attention."""
        n_src, n_tgt = z.data.shape[1], x.data.shape[1]
        lay = (window_mask if isinstance(window_mask, Layout)
               else _layout((n_tgt,), (n_src,), False, window_mask))
        d, h = self.config.d, self.config.H
        kv = ad.matmul(self.params[f"{prefix}.W6"], z)
        if identity:
            # target position j attends to source position j only, so every
            # head passes its values through and no query is needed
            if lay.qs.p != 1:
                raise ShapeError("identity alignment takes one segment")
            if n_tgt > n_src:
                raise ShapeError("identity alignment needs N_tgt <= N_src")
            heads = ad.index(kv, np.s_[d:2 * d, :n_tgt])
            attn = Tensor(np.broadcast_to(np.eye(n_src, n_tgt), (h, n_src, n_tgt)).ravel())
        else:
            q_all = ad.matmul(self.params[f"{prefix}.W5"], x)
            heads, attn = ad.attention(q_all, kv, 0, h, 1.0 / math.sqrt(d), *lay)
        return ad.matmul(self.params[f"{prefix}.W7"], heads), attn

    def _ffn(self, prefix, x):
        p = self.params
        inner = ad.glu(ad.add_bias(ad.matmul(p[f"{prefix}.W3"], x), p[f"{prefix}.b3"]))
        return ad.add_bias(ad.matmul(p[f"{prefix}.W4"], inner), p[f"{prefix}.b4"])

    # -- encoder / decoder --------------------------------------------------

    def _sublayer(self, ln_name, x, spk, f):
        """Residual sub-layer around f, which sees speaker-conditioned input:
        x + f(LN(x)) pre-LN, LN(x + f(x)) post-LN."""
        if self.config.ln_placement == "pre":
            return ad.add(x, f(self._condition(self._ln(ln_name, x), spk)))
        return self._ln(ln_name, ad.add(x, f(self._condition(x, spk))))

    def encoder_layer(self, l: int, x: Tensor, spk, lay: Layout | None = None) -> Tensor:
        """lay defaults to one segment spanning x."""
        n = x.data.shape[1]
        lay = lay or _layout((n,), (n,), self.config.realtime)
        name = f"enc.{l}"
        u = self._sublayer(f"{name}.ln1", x, spk, lambda h: self._sa(f"{name}.sa", h, lay))
        return self._sublayer(f"{name}.ln2", u, spk, lambda h: self._ffn(f"{name}.ffn", h))

    def decoder_layer(self, l: int, x: Tensor, z: Tensor, spk, self_lay: Layout,
                      tsa_lay: Layout, tsa_identity: bool) -> tuple[Tensor, Tensor]:
        name = f"dec.{l}"
        attn: list[Tensor] = []

        def tsa(h):
            out, a = self._tsa(f"{name}.tsa", h, z, tsa_lay, tsa_identity)
            attn.append(a)
            return out

        u1 = self._sublayer(f"{name}.ln1", x, spk, lambda h: self._sa(f"{name}.sa", h, self_lay))
        u2 = self._sublayer(f"{name}.ln2", u1, spk, tsa)
        return self._sublayer(f"{name}.ln3", u2, spk, lambda h: self._ffn(f"{name}.ffn", h)), attn[0]

    def _speaker(self, index: int | None, conditioned: bool, role: str) -> int | None:
        """index if this side of the network is speaker-conditioned, else None."""
        if not conditioned:
            return None
        if index is None:
            raise ShapeError(f"{self.config.mode} mode requires a {role} speaker index")
        return index

    def _dropout(self, training: bool, rng: np.random.Generator | None,
                 shapes: list[list[tuple[int, int]]]) -> list[np.ndarray] | None:
        """Inverted-dropout factors, one packed array per dropout site.

        shapes[i] lists segment i's (rows, columns) at each site; the masks
        are drawn segment by segment and, within one, site by site, the order
        in which one-segment passes draw them.  None when dropout is off."""
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
        x = self._prenet("src_prenet", x, spk, cfg.realtime, segs)
        lay = _layout(segs.lengths, segs.lengths, cfg.realtime)
        for l in range(cfg.L):
            x = self.encoder_layer(l, x, spk, lay)
        if cfg.has_final_ln:
            x = self._ln("enc_final_ln", x)
        return x

    def _decode(self, x: Tensor, z: Tensor, segs: ad.Segments, src_segs: ad.Segments,
                spk: Tensor | None, drops: list[np.ndarray] | None,
                window_mask: np.ndarray | None, tsa_identity: bool) -> tuple[Tensor, list[Tensor]]:
        cfg = self.config
        x = ad.add(x, Tensor(self._positions(segs.lengths)))
        if drops is not None:
            x = ad.mul(x, Tensor(drops[0]))
        x = self._prenet("tgt_prenet", x, spk, True, segs)
        self_lay = _layout(segs.lengths, segs.lengths, True)
        tsa_lay = _layout(segs.lengths, src_segs.lengths, False, window_mask)
        attn = []
        for l in range(cfg.L):
            x, a = self.decoder_layer(l, x, z, spk, self_lay, tsa_lay, tsa_identity)
            attn.append(a)
        if cfg.has_final_ln:
            x = self._ln("dec_final_ln", x)
        if drops is not None:
            x = ad.mul(x, Tensor(drops[1]))
        return self._postnet(x, spk, segs), attn

    def _per_head(self, attn: list[Tensor], n_src: int, n_tgt: int) -> list[list[Tensor]]:
        """Each head's (N_src x N_tgt) attention of a one-segment pass."""
        h = self.config.H
        blocks = [ad.reshape(a, (h, n_src, n_tgt)) for a in attn]
        return [[ad.index(a, np.s_[i]) for i in range(h)] for a in blocks]

    def encode(self, src, k: int | None = None, training: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.config
        src = src if isinstance(src, Tensor) else Tensor(src)
        segs = ad.segments((src.data.shape[1],))
        spk = self._speaker_columns([self._speaker(k, cfg.src_conditioned, "source")], segs)
        drops = self._dropout(training, rng, [[(cfg.D, segs.n)]])
        return self._encode(src, segs, spk, drops and drops[0])

    def decode(self, tgt_in, z: Tensor, kp: int | None = None,
               training: bool = False, rng: np.random.Generator | None = None,
               window_mask: np.ndarray | None = None,
               tsa_identity: bool = False) -> tuple[Tensor, list[list[Tensor]]]:
        cfg = self.config
        tgt_in = tgt_in if isinstance(tgt_in, Tensor) else Tensor(tgt_in)
        segs = ad.segments((tgt_in.data.shape[1],))
        spk = self._speaker_columns([self._speaker(kp, cfg.tgt_conditioned, "target")], segs)
        drops = self._dropout(training, rng, [[(cfg.D, segs.n), (cfg.d, segs.n)]])
        y, attn = self._decode(tgt_in, z, segs, ad.segments((z.data.shape[1],)), spk, drops,
                               window_mask, tsa_identity)
        return y, self._per_head(attn, z.data.shape[1], segs.n)

    def forward(self, src, tgt_in, k: int | None = None, kp: int | None = None,
                training: bool = False, rng: np.random.Generator | None = None,
                window_mask: np.ndarray | None = None,
                tsa_identity: bool = False) -> tuple[Tensor, list[list[Tensor]]]:
        """Teacher-forced pass: src (D x N_src), tgt_in (D x N_tgt+1, zero-prepended)."""
        z = self.encode(src, k, training, rng)
        return self.decode(tgt_in, z, kp, training, rng, window_mask, tsa_identity)

    def forward_packed(self, pairs, training: bool = False,
                       rng: np.random.Generator | None = None
                       ) -> tuple[Tensor, list[Tensor], ad.Segments, ad.Segments]:
        """One teacher-forced pass over (k, kp, src, tgt_in) pairs packed along
        time, with each pair's maths and dropout draws those of its own
        ``forward``.  Returns the packed output, the ragged attention of every
        decoder layer (pair p's (H, N_src, N_tgt+1) block after pair p-1's),
        and the source and target segments."""
        cfg = self.config
        src_segs = ad.segments(tuple(src.shape[1] for _, _, src, _ in pairs))
        segs = ad.segments(tuple(tgt.shape[1] for _, _, _, tgt in pairs))
        drops = self._dropout(training, rng, [[(cfg.D, ns), (cfg.D, nt), (cfg.d, nt)]
                                              for ns, nt in zip(src_segs.lengths, segs.lengths)])
        src_spk = self._speaker_columns(
            [self._speaker(k, cfg.src_conditioned, "source") for k, _, _, _ in pairs], src_segs)
        spk = self._speaker_columns(
            [self._speaker(kp, cfg.tgt_conditioned, "target") for _, kp, _, _ in pairs], segs)
        z = self._encode(Tensor(np.concatenate([p[2] for p in pairs], axis=1)), src_segs,
                         src_spk, drops and drops[0])
        y, attn = self._decode(Tensor(np.concatenate([p[3] for p in pairs], axis=1)), z, segs,
                               src_segs, spk, drops and drops[1:], None, False)
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
