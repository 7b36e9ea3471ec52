"""Multi-attention blocks over pillar features.

Three mechanisms each return a (P, 1) tensor of per-pillar weights in (0, 1),
in input order:

* DR-LSTM attention: pillars ordered by a 1D principal-component embedding of
  their cell positions, run through a bidirectional LSTM, then a sigmoid head.
* Key-node graph attention: farthest-point-selected key pillars feed every
  node through feature-steered graph convolutions over that one key set
  (the fused op :func:`pillarseg.nn.tensor.feast`, one call per
  :class:`FeaStParams` layer), in an encoder/decoder stack.
* Pillar attention: channel-reducing then point-reducing shared affines over
  the (P, N, C) tensor.

Fusion applies them in the fixed order LSTM -> graph -> pillar
(local-global-local) and returns only the attended streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nn import layers as L
from .nn import tensor as T
from .nn.tensor import Tensor

_EIG_TIE_TOL = 1e-12


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

    Seeded at index 0; the output has max(1, round(rate * P)) indices for a
    rate in (0, 1]. Distance ties break toward the lowest index.
    """
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

    def state(self) -> dict[str, Tensor]:
        return {"weights": self.weights, "steering": self.steering,
                "offsets": self.offsets, "bias": self.bias}


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

    def __call__(self, pillar_feats, positions) -> list[Tensor]:
        feats = [T.as_tensor(f) for f in pillar_feats]
        orders = [np.argsort(pca_1d(pos), kind="stable") for pos in positions]
        hidden = self.lstm([T.gather_rows(f, order) for f, order in zip(feats, orders)])
        weights = []
        for h, order in zip(hidden, orders):
            inverse = np.empty_like(order)
            inverse[order] = np.arange(len(order))
            raw = T.sigmoid(self.head(h))  # (P, 1) in sorted order
            weights.append(T.gather_rows(raw, inverse))
        return weights

    def state(self) -> dict[str, Tensor]:
        return L.collect_state(lstm=self.lstm, head=self.head)


class GraphAttention:
    """Key-node graph attention: FPS keys, then feast convolutions where every
    node aggregates from the key set (fully connected, keys to all)."""

    def __init__(self, channels: int, hidden: int, heads: int, rng: np.random.Generator,
                 fps_rate: float):
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

    def __call__(self, pillar_feats) -> Tensor:
        h = T.as_tensor(pillar_feats)
        keys = fps(h.data, self.fps_rate)
        for layer in self.encoder + self.decoder:
            h = T.relu(T.feast(h, keys, layer.weights, layer.steering, layer.offsets,
                               layer.bias))
        return T.sigmoid(self.head(h))

    def state(self) -> dict[str, Tensor]:
        return L.collect_state(**{f"enc{i}": layer for i, layer in enumerate(self.encoder)},
                               **{f"dec{i}": layer for i, layer in enumerate(self.decoder)},
                               head=self.head)


class PillarAttention:
    """Channel-reducing then point-reducing attention over (P, N, C) features
    with the pillar centers concatenated per point."""

    def __init__(self, channels: int, max_points: int, rng: np.random.Generator):
        self.channel_fc = L.Affine(channels + 3, 1, rng)
        self.point_fc = L.Affine(max_points, 1, rng)

    def __call__(self, aug_feats, centers: np.ndarray) -> Tensor:
        aug_feats = T.as_tensor(aug_feats)
        p, n, _ = aug_feats.data.shape
        cat = T.concat([aug_feats, T.broadcast_middle(T.constant(centers), n)], axis=2)
        per_point = T.relu(self.channel_fc(cat))  # (P, N, 1)
        per_pillar = self.point_fc(T.transpose(per_point, (0, 2, 1)))  # (P, 1, 1)
        return T.sigmoid(T.reshape(per_pillar, (p, 1)))

    def state(self) -> dict[str, Tensor]:
        return L.collect_state(channel_fc=self.channel_fc, point_fc=self.point_fc)


class MultiAttentionFuse:
    """Compose the three attentions over the augmented point tensors of a
    chunk of frames, and return the attended (P, N, C) stream of each frame.

    The order is LSTM -> graph -> pillar (local-global-local); the LSTM stage
    orders pillars by the x, y of their centers. Before the pillar stage, the
    LSTM-weighted pooled features are concatenated channel-wise into its input
    and passed through two shared affine+ReLU layers. Each stage's (P, 1)
    weights scale the running stream, so the output keeps the input shape.
    Only the LSTM stage runs the chunk's frames together; every other op runs
    per frame, so each frame's output is bitwise that of a chunk of one.
    """

    def __init__(self, channels: int, max_points: int, rng: np.random.Generator, *,
                 fusion_hidden: int, lstm_hidden: int, graph_hidden: int, heads: int,
                 fps_rate: float):
        self.lstm_attn = DRLSTMAttention(channels, lstm_hidden, rng)
        self.graph_attn = GraphAttention(channels, graph_hidden, heads, rng, fps_rate)
        self.pillar_attn = PillarAttention(channels, max_points, rng)
        self.fuse1 = L.Affine(2 * channels, fusion_hidden, rng)
        self.fuse2 = L.Affine(fusion_hidden, channels, rng)

    def __call__(self, aug_feats, masks, centers) -> list[Tensor]:
        """Attend over a chunk of frames: each argument is a list with one
        entry per frame (centers (P, 3)), and so is the output."""
        streams = [T.as_tensor(f) for f in aug_feats]

        pooled = [T.masked_max_pool(s, m) for s, m in zip(streams, masks)]
        weights = self.lstm_attn(pooled, [c[:, :2] for c in centers])
        lstm_weighted = [T.mul(p, w) for p, w in zip(pooled, weights)]
        streams = _scale(streams, weights)

        pooled = [T.masked_max_pool(s, m) for s, m in zip(streams, masks)]
        streams = _scale(streams, [self.graph_attn(p) for p in pooled])

        weights = []
        for stream, partner, c in zip(streams, lstm_weighted, centers):
            cat = T.concat([stream, T.broadcast_middle(partner, stream.data.shape[1])], axis=2)
            fused = T.relu(self.fuse2(T.relu(self.fuse1(cat))))
            weights.append(self.pillar_attn(fused, c))
        return _scale(streams, weights)

    def state(self) -> dict[str, Tensor]:
        return L.collect_state(
            lstm=self.lstm_attn, graph=self.graph_attn, pillar=self.pillar_attn,
            fuse1=self.fuse1, fuse2=self.fuse2,
        )


def _scale(streams: list[Tensor], weights: list[Tensor]) -> list[Tensor]:
    """Each (P, N, C) stream times its (P, 1) per-pillar weights."""
    return [T.mul(s, T.reshape(w, (-1, 1, 1))) for s, w in zip(streams, weights)]
