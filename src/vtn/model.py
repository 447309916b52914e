"""The voice transformer network: prenets, encoder/decoder stacks, postnet.

Conventions: sequences are (rows x time) matrices.  Attention matrices are
(source positions x target positions) and column-stochastic.  Speaker
conditioning appends an embedding column to the input of a sub-layer
(after layer norm, so LN statistics stay speaker independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

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


def causal_mask(n: int) -> np.ndarray:
    """(key, query) additive mask: key position may not exceed query position."""
    keys = np.arange(n)[:, None]
    queries = np.arange(n)[None, :]
    return np.where(keys <= queries, 0.0, ad.NEG_INF)


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

    def _conv(self, name, x, causal, dilation):
        w = ad.weight_norm_apply(self.params[f"{name}.dir"], self.params[f"{name}.scale"])
        return ad.conv1d(x, w, dilation=dilation, causal=causal)

    def _condition(self, x: Tensor, k: int | None) -> Tensor:
        if k is None:
            return x
        emb = self.params["emb"]
        if not 0 <= k < self.config.n_speakers:
            raise ShapeError(f"speaker index {k} out of range")
        col = ad.transpose(ad.slice_rows(emb, k, k + 1))
        return ad.concat_rows([x, ad.tile_cols(col, x.data.shape[1])])

    def _ln(self, name, x):
        return ad.layer_norm(x, self.params[f"{name}.gain"], self.params[f"{name}.bias"])

    def _prenet(self, name, x, k, causal):
        x = self._condition(x, k)
        for i, dil in enumerate(PRENET_DILATIONS):
            x = ad.glu(self._conv(f"{name}.{i}", x, causal, dil))
        return x

    def _postnet(self, x, k):
        x = self._condition(x, k)
        x = ad.glu(self._conv("postnet.0", x, True, PRENET_DILATIONS[0]))
        x = ad.glu(self._conv("postnet.1", x, True, PRENET_DILATIONS[1]))
        return self._conv("postnet.2", x, True, PRENET_DILATIONS[2])

    def _attend(self, q_all, kv, k_row, mask, causal=False):
        """Every head's attention: head i takes queries from rows i*dh of q_all,
        keys from rows k_row + i*dh of kv and values d rows below its keys.
        Returns the stacked head outputs and the per-head attention."""
        d, h = self.config.d, self.config.H
        dh = d // h
        heads, attn = [], []
        for i in range(h):
            q = ad.slice_rows(q_all, i * dh, (i + 1) * dh)
            key = ad.slice_rows(kv, k_row + i * dh, k_row + (i + 1) * dh)
            v = ad.slice_rows(kv, k_row + d + i * dh, k_row + d + (i + 1) * dh)
            if causal and ad.is_column_exact():
                # inference path: key count for column j is always j+1, so
                # the logit gemv shape never changes as the prefix grows
                n = q.data.shape[1]
                ld = np.full((n, n), ad.NEG_INF)
                for j in range(n):
                    keys = np.ascontiguousarray(key.data[:, :j + 1])
                    ld[:j + 1, j] = keys.T @ q.data[:, j].copy()
                logits = ad.scale(Tensor(ld), 1.0 / math.sqrt(d))
            else:
                logits = ad.scale(ad.matmul(ad.transpose(key), q), 1.0 / math.sqrt(d))
            a = ad.masked_softmax_columns(logits, mask)
            heads.append(ad.matmul(v, a))
            attn.append(a)
        return ad.concat_rows(heads), attn

    def _sa(self, prefix, x, mask, causal=False):
        qkv = ad.matmul(self.params[f"{prefix}.W1"], x)
        heads, _ = self._attend(qkv, qkv, self.config.d, mask, causal)
        return ad.matmul(self.params[f"{prefix}.W2"], heads)

    def _tsa(self, prefix, x, z, window_mask, identity):
        n_src, n_tgt = z.data.shape[1], x.data.shape[1]
        kv = ad.matmul(self.params[f"{prefix}.W6"], z)
        if identity:
            # target position j attends to source position j only, so every
            # head passes its values through and no query is needed
            if n_tgt > n_src:
                raise ShapeError("identity alignment needs N_tgt <= N_src")
            d = self.config.d
            heads = ad.slice_cols(ad.slice_rows(kv, d, 2 * d), 0, n_tgt)
            attn = [Tensor(np.eye(n_src, n_tgt))] * self.config.H
        else:
            q_all = ad.matmul(self.params[f"{prefix}.W5"], x)
            mask = np.zeros((n_src, n_tgt)) if window_mask is None else window_mask
            heads, attn = self._attend(q_all, kv, 0, mask)
        return ad.matmul(self.params[f"{prefix}.W7"], heads), attn

    def _ffn(self, prefix, x):
        p = self.params
        inner = ad.glu(ad.add_bias(ad.matmul(p[f"{prefix}.W3"], x), p[f"{prefix}.b3"]))
        return ad.add_bias(ad.matmul(p[f"{prefix}.W4"], inner), p[f"{prefix}.b4"])

    # -- encoder / decoder --------------------------------------------------

    def _sublayer(self, ln_name, x, k, f):
        """Residual sub-layer around f, which sees speaker-conditioned input:
        x + f(LN(x)) pre-LN, LN(x + f(x)) post-LN."""
        if self.config.ln_placement == "pre":
            return ad.add(x, f(self._condition(self._ln(ln_name, x), k)))
        return self._ln(ln_name, ad.add(x, f(self._condition(x, k))))

    def encoder_layer(self, l: int, x: Tensor, k: int | None) -> Tensor:
        causal = self.config.realtime
        n = x.data.shape[1]
        mask = causal_mask(n) if causal else np.zeros((n, n))
        name = f"enc.{l}"
        u = self._sublayer(f"{name}.ln1", x, k, lambda h: self._sa(f"{name}.sa", h, mask, causal))
        return self._sublayer(f"{name}.ln2", u, k, lambda h: self._ffn(f"{name}.ffn", h))

    def decoder_layer(self, l: int, x: Tensor, z: Tensor, k: int | None,
                      window_mask: np.ndarray | None,
                      tsa_identity: bool) -> tuple[Tensor, list[Tensor]]:
        mask = causal_mask(x.data.shape[1])
        name = f"dec.{l}"
        attn: list[Tensor] = []

        def tsa(h):
            out, heads = self._tsa(f"{name}.tsa", h, z, window_mask, tsa_identity)
            attn.extend(heads)
            return out

        u1 = self._sublayer(f"{name}.ln1", x, k, lambda h: self._sa(f"{name}.sa", h, mask, True))
        u2 = self._sublayer(f"{name}.ln2", u1, k, tsa)
        return self._sublayer(f"{name}.ln3", u2, k, lambda h: self._ffn(f"{name}.ffn", h)), attn

    def _speaker(self, index: int | None, conditioned: bool, role: str) -> int | None:
        """index if this side of the network is speaker-conditioned, else None."""
        if not conditioned:
            return None
        if index is None:
            raise ShapeError(f"{self.config.mode} mode requires a {role} speaker index")
        return index

    def encode(self, src, k: int | None = None, training: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.config
        src = src if isinstance(src, Tensor) else Tensor(src)
        k_eff = self._speaker(k, cfg.src_conditioned, "source")
        n = src.data.shape[1]
        x = ad.add(src, Tensor(positional_encoding(n, cfg.D)))
        x = ad.dropout(x, cfg.dropout_rate, training, rng)
        x = self._prenet("src_prenet", x, k_eff, causal=cfg.realtime)
        for l in range(cfg.L):
            x = self.encoder_layer(l, x, k_eff)
        if cfg.has_final_ln:
            x = self._ln("enc_final_ln", x)
        return x

    def decode(self, tgt_in, z: Tensor, kp: int | None = None,
               training: bool = False, rng: np.random.Generator | None = None,
               window_mask: np.ndarray | None = None,
               tsa_identity: bool = False) -> tuple[Tensor, list[list[Tensor]]]:
        cfg = self.config
        tgt_in = tgt_in if isinstance(tgt_in, Tensor) else Tensor(tgt_in)
        kp_eff = self._speaker(kp, cfg.tgt_conditioned, "target")
        n = tgt_in.data.shape[1]
        x = ad.add(tgt_in, Tensor(positional_encoding(n, cfg.D)))
        x = ad.dropout(x, cfg.dropout_rate, training, rng)
        x = self._prenet("tgt_prenet", x, kp_eff, causal=True)
        attn_set: list[list[Tensor]] = []
        for l in range(cfg.L):
            x, attn = self.decoder_layer(l, x, z, kp_eff, window_mask, tsa_identity)
            attn_set.append(attn)
        if cfg.has_final_ln:
            x = self._ln("dec_final_ln", x)
        x = ad.dropout(x, cfg.dropout_rate, training, rng)
        y = self._postnet(x, kp_eff)
        return y, attn_set

    def forward(self, src, tgt_in, k: int | None = None, kp: int | None = None,
                training: bool = False, rng: np.random.Generator | None = None,
                window_mask: np.ndarray | None = None,
                tsa_identity: bool = False) -> tuple[Tensor, list[list[Tensor]]]:
        """Teacher-forced pass: src (D x N_src), tgt_in (D x N_tgt+1, zero-prepended)."""
        z = self.encode(src, k, training, rng)
        return self.decode(tgt_in, z, kp, training, rng, window_mask, tsa_identity)

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
