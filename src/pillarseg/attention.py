"""Multi-attention blocks over pillar features.

Three mechanisms produce per-pillar weights in (0, 1):

* DR-LSTM attention: pillars ordered by a 1D principal-component embedding of
  their cell positions, run through a bidirectional LSTM, then a sigmoid head.
* Key-node graph attention: farthest-point-selected key pillars feed every
  node through feature-steered graph convolutions over that one key set, in
  an encoder/decoder stack.
* Pillar attention: channel-reducing then point-reducing shared affines over
  the (P, N, C) tensor.

Fusion applies them in a configurable order (default local-global-local).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import layers as L
from .nn import tensor as T
from .nn.tensor import Tensor

_EIG_TIE_TOL = 1e-12


@dataclass
class AttentionMap:
    """Per-pillar weights in (0, 1), in input order."""

    weights: Tensor  # (P,)


def pca_1d(positions: np.ndarray) -> np.ndarray:
    """Mean-centered projection of (P, 2) positions onto the leading eigenvector
    of their 2x2 covariance.

    Sign convention: the largest-magnitude loading is positive. An eigenvalue
    tie (isotropic covariance) breaks toward the x-axis. A single position
    scores 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ShapeError(f"positions must be (P, 2), got {positions.shape}")
    p = len(positions)
    if p == 0:
        return np.zeros(0)
    if p == 1:
        return np.zeros(1)
    centered = positions - positions.mean(axis=0)
    cov = (centered.T @ centered) / p
    evals, evecs = np.linalg.eigh(cov)
    scale = max(1.0, float(abs(evals).max()))
    if evals[1] - evals[0] <= _EIG_TIE_TOL * scale:
        v = np.array([1.0, 0.0])
    else:
        v = evecs[:, 1]
    if abs(v[0]) >= abs(v[1]):
        if v[0] < 0:
            v = -v
    elif v[1] < 0:
        v = -v
    return centered @ v


def fps(feats: np.ndarray, rate: float) -> np.ndarray:
    """Farthest-first key selection in feature space.

    Seeded at index 0; the output has max(1, round(rate * P)) indices. Distance
    ties break toward the lowest index.
    """
    if not 0.0 < rate <= 1.0:
        raise ConfigError(f"fps rate must be in (0, 1], got {rate}")
    feats = np.asarray(feats, dtype=np.float64)
    p = len(feats)
    k = max(1, int(np.floor(rate * p + 0.5)))
    return fps_k(feats, k)


def fps_k(feats: np.ndarray, k: int) -> np.ndarray:
    feats = np.asarray(feats, dtype=np.float64)
    p = len(feats)
    k = min(k, p)
    selected = np.empty(k, dtype=np.int64)
    selected[0] = 0
    if k == 1:
        return selected
    d2 = ((feats - feats[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(d2))  # argmax takes the first maximum on ties
        selected[i] = nxt
        d2 = np.minimum(d2, ((feats - feats[nxt]) ** 2).sum(axis=1))
    return selected


@dataclass
class FeaStParams:
    """One feature-steered graph convolution: M heads of (in, out) weights,
    per-head steering vectors u and offsets c, shared bias b."""

    weights: Tensor  # (M, in, out)
    steering: Tensor  # (M, in)
    offsets: Tensor  # (M,)
    bias: Tensor  # (out,)

    @classmethod
    def create(cls, cin: int, cout: int, heads: int, rng: np.random.Generator) -> "FeaStParams":
        scale = np.sqrt(2.0 / (cin * heads))
        return cls(
            weights=T.parameter(rng.normal(0.0, scale, (heads, cin, cout))),
            steering=T.parameter(rng.normal(0.0, 1.0 / np.sqrt(cin), (heads, cin))),
            offsets=T.parameter(np.zeros(heads)),
            bias=T.parameter(np.zeros(cout)),
        )

    @property
    def heads(self) -> int:
        return self.weights.data.shape[0]

    def params(self) -> dict[str, Tensor]:
        return {"weights": self.weights, "steering": self.steering,
                "offsets": self.offsets, "bias": self.bias}


def feast_conv_shared(x, key_idx: np.ndarray, p: FeaStParams) -> Tensor:
    """Feature-steered graph convolution in which every node aggregates from
    one shared key set K.

    ``y_i = b + sum_m (1/|K|) sum_{j in K} p_m(x_i, x_j) W_m x_j`` where
    ``p_m`` is the softmax over heads of ``u_m . (x_j - x_i) + c_m``, so the
    head coefficients sum to one exactly. The score splits as
    ``(u_m . x_j + c_m) - u_m . x_i``, and the aggregation is a dense
    (V, k) @ (k, out) product per head.
    """
    x = T.as_tensor(x)
    v = x.data.shape[0]
    k = len(key_idx)
    if k == 0:
        raise ShapeError("empty key set")
    xk = T.gather_rows(x, key_idx)
    steering_t = T.transpose(p.steering, (1, 0))
    s_keys = T.matmul(xk, steering_t) + p.offsets  # (k, M)
    s_nodes = T.matmul(x, steering_t)  # (V, M)
    scores = T.sub(T.reshape(s_keys, (1, k, p.heads)), T.reshape(s_nodes, (v, 1, p.heads)))
    coeff = T.softmax(scores, axis=2)  # (V, k, M)
    out = None
    for m in range(p.heads):
        w_m = T.reshape(T.narrow(p.weights, 0, m, 1), p.weights.data.shape[1:])
        proj = T.matmul(xk, w_m)  # (k, out)
        pm = T.reshape(T.narrow(coeff, 2, m, 1), (v, k))
        contrib = T.matmul(pm, proj)
        out = contrib if out is None else T.add(out, contrib)
    return T.mul(out, 1.0 / k) + p.bias


class DRLSTMAttention:
    """Bidirectional-LSTM attention over pillars ordered by their 1D spatial
    embedding; ties in the embedding keep the original pillar order.

    Takes a chunk of frames: the embedding order, the gather and the sigmoid
    head run per frame, and one :class:`~pillarseg.nn.layers.BiLSTM` call
    runs every frame's ordered sequence in one time loop (shorter sequences
    zero-padded past their end), so each frame's weights are bitwise those of
    a chunk of one.
    """

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        self.lstm = L.BiLSTM(channels, hidden, rng)
        self.head = L.Affine(2 * hidden, 1, rng)

    def __call__(self, pillar_feats, positions) -> list[AttentionMap]:
        feats = [T.as_tensor(f) for f in pillar_feats]
        orders = [np.argsort(pca_1d(pos), kind="stable") for pos in positions]
        hidden = self.lstm([T.gather_rows(f, order) for f, order in zip(feats, orders)])
        maps = []
        for h, order in zip(hidden, orders):
            inverse = np.empty_like(order)
            inverse[order] = np.arange(len(order))
            raw = T.sigmoid(self.head(h))  # (P, 1) in sorted order
            weights = T.reshape(T.gather_rows(raw, inverse), (len(order),))
            maps.append(AttentionMap(weights))
        return maps

    def params(self) -> dict[str, Tensor]:
        return L.collect_params(lstm=self.lstm, head=self.head)


class GraphAttention:
    """Key-node graph attention: FPS keys, then feast convolutions where every
    node aggregates from the key set (fully connected, keys to all)."""

    def __init__(self, channels: int, hidden: int, heads: int, rng: np.random.Generator,
                 fps_rate: float = 0.05):
        self.fps_rate = fps_rate
        self.encoder = [
            FeaStParams.create(channels, hidden, heads, rng),
            FeaStParams.create(hidden, hidden, heads, rng),
        ]
        self.decoder = [
            FeaStParams.create(hidden, hidden, heads, rng),
            FeaStParams.create(hidden, hidden, heads, rng),
        ]
        self.head = L.Affine(hidden, 1, rng)

    def __call__(self, pillar_feats) -> AttentionMap:
        pillar_feats = T.as_tensor(pillar_feats)
        p = pillar_feats.data.shape[0]
        keys = fps(pillar_feats.data, self.fps_rate)
        h = pillar_feats
        for layer in self.encoder + self.decoder:
            h = T.relu(feast_conv_shared(h, keys, layer))
        weights = T.reshape(T.sigmoid(self.head(h)), (p,))
        return AttentionMap(weights)

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.encoder):
            out.update({f"enc{i}.{k}": v for k, v in layer.params().items()})
        for i, layer in enumerate(self.decoder):
            out.update({f"dec{i}.{k}": v for k, v in layer.params().items()})
        out.update({f"head.{k}": v for k, v in self.head.params().items()})
        return out


class PillarAttention:
    """Channel-reducing then point-reducing attention over (P, N, C) features
    with the pillar centers concatenated per point."""

    def __init__(self, channels: int, max_points: int, rng: np.random.Generator):
        self.channel_fc = L.Affine(channels + 3, 1, rng)
        self.point_fc = L.Affine(max_points, 1, rng)

    def __call__(self, aug_feats, centers: np.ndarray) -> AttentionMap:
        aug_feats = T.as_tensor(aug_feats)
        p, n, _ = aug_feats.data.shape
        cat = T.concat([aug_feats, T.broadcast_middle(T.constant(centers), n)], axis=2)
        per_point = T.relu(self.channel_fc(cat))  # (P, N, 1)
        per_pillar = self.point_fc(T.transpose(per_point, (0, 2, 1)))  # (P, 1, 1)
        weights = T.reshape(T.sigmoid(per_pillar), (p,))
        return AttentionMap(weights)

    def params(self) -> dict[str, Tensor]:
        return L.collect_params(channel_fc=self.channel_fc, point_fc=self.point_fc)


class MultiAttentionFuse:
    """Compose the three attentions over the augmented point tensors of a
    chunk of frames.

    The default order is LSTM -> graph -> pillar (local-global-local). Before
    the pillar stage, the LSTM-weighted pooled features are concatenated
    channel-wise into its input and passed through two shared affine+ReLU
    layers; the resulting per-pillar weights then scale the running stream, so
    the output keeps the input shape. Only the LSTM stage runs the chunk's
    frames together; every other op runs per frame, so each frame's output is
    bitwise that of a chunk of one.
    """

    ORDERS = ("L", "G", "P")

    def __init__(self, channels: int, max_points: int, rng: np.random.Generator, *,
                 fusion_hidden: int, lstm_hidden: int = 16, graph_hidden: int = 16,
                 heads: int = 4, fps_rate: float = 0.05,
                 order: tuple[str, ...] = ("L", "G", "P")):
        if sorted(order) != sorted(self.ORDERS):
            raise ConfigError(f"attention order must permute {self.ORDERS}, got {order}")
        self.order = tuple(order)
        self.lstm_attn = DRLSTMAttention(channels, lstm_hidden, rng)
        self.graph_attn = GraphAttention(channels, graph_hidden, heads, rng, fps_rate)
        self.pillar_attn = PillarAttention(channels, max_points, rng)
        self.fuse1 = L.Affine(2 * channels, fusion_hidden, rng)
        self.fuse2 = L.Affine(fusion_hidden, channels, rng)

    def __call__(self, aug_feats, masks, positions, centers
                 ) -> tuple[list[Tensor], list[dict[str, AttentionMap]]]:
        """Attend over a chunk of frames, stage by stage: each argument is a
        list with one entry per frame, and so are the outputs."""
        streams = [T.as_tensor(f) for f in aug_feats]
        maps: list[dict[str, AttentionMap]] = [{} for _ in streams]
        lstm_weighted = [None] * len(streams)

        for stage in self.order:
            pooled = [T.masked_max_pool(s, m) for s, m in zip(streams, masks)]
            if stage == "L":
                amaps = self.lstm_attn(pooled, positions)
                lstm_weighted = [T.mul(p, T.reshape(a.weights, (-1, 1)))
                                 for p, a in zip(pooled, amaps)]
            elif stage == "G":
                amaps = [self.graph_attn(p) for p in pooled]
            else:
                amaps = []
                for stream, p, partner, c in zip(streams, pooled, lstm_weighted, centers):
                    partner = partner if partner is not None else p
                    cat = T.concat([stream, T.broadcast_middle(partner, stream.data.shape[1])],
                                   axis=2)
                    fused = T.relu(self.fuse2(T.relu(self.fuse1(cat))))
                    amaps.append(self.pillar_attn(fused, c))
            for frame_maps, amap in zip(maps, amaps):
                frame_maps[stage] = amap
            streams = [T.mul(s, T.reshape(a.weights, (-1, 1, 1))) for s, a in zip(streams, amaps)]
        return streams, maps

    def params(self) -> dict[str, Tensor]:
        return L.collect_params(
            lstm=self.lstm_attn, graph=self.graph_attn, pillar=self.pillar_attn,
            fuse1=self.fuse1, fuse2=self.fuse2,
        )
