"""Multi-attention blocks over pillar features.

Three mechanisms each return a (P, 1) tensor of per-pillar weights in (0, 1),
in input order:

* DR-LSTM attention: pillars ordered by a 1D principal-component embedding of
  their cell positions, run through a bidirectional LSTM, then a sigmoid head.
* Key-node graph attention: farthest-point-selected key pillars feed every
  node through feature-steered graph convolutions over that one key set
  (the fused op :func:`pillarseg.nn.tensor.feast`, one call per
  :class:`FeaStParams` layer), in an encoder/decoder stack.
* Pillar attention: a channel-reducing affine per point, then a
  point-reducing affine over each pillar's N slots.

Fusion applies them in the fixed order LSTM -> graph -> pillar
(local-global-local) and returns only the attended points.

A frame's points are (V, C) rows throughout, the layout the pillar feature
net reads and a :class:`~pillarseg.pillars.PillarRows` holds: its valid
slots pillar by pillar in slot order, each with its pillar id. The fusion
adds one row per pillar for all of its padded slots (:class:`SlotRows`): a
padded slot is exactly zero, so every padded slot of a pillar takes the same
value through the fusion, and one row computes it. Only the one-channel
per-slot scores of the pillar attention go back to (P, N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    tie (isotropic covariance) breaks toward the x-axis, so a single position,
    whose covariance is zero, scores 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ShapeError(f"positions must be (P, 2), got {positions.shape}")
    p = len(positions)
    if p == 0:  # the mean of no positions would warn
        return np.zeros(0)
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

    Takes a chunk of frames in two parts. The call orders each frame and runs
    one :class:`~pillarseg.nn.layers.BiLSTM` call over every frame's ordered
    sequence in one time loop (shorter sequences zero-padded past their end);
    :meth:`weights` then takes one frame's rows of its output through the
    sigmoid head. So each frame's weights are bitwise those of a chunk of
    one, and all of a frame's own ops can run on that frame's tape.
    """

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        self.lstm = L.BiLSTM(channels, hidden, rng)
        self.head = L.Affine(2 * hidden, 1, rng)

    def __call__(self, pillar_feats, positions) -> list[tuple[Tensor, int, np.ndarray]]:
        """Per frame: the chunk's LSTM output, the first of the frame's rows in
        it, and the frame's embedding order, which its P rows follow."""
        feats = [T.as_tensor(f) for f in pillar_feats]
        orders = [np.argsort(pca_1d(pos), kind="stable") for pos in positions]
        hidden = self.lstm([T.gather_rows(f, order) for f, order in zip(feats, orders)])
        starts = np.cumsum([0] + [len(order) for order in orders]).tolist()
        return [(hidden, start, order) for start, order in zip(starts, orders)]

    def weights(self, hidden: Tensor, start: int, order: np.ndarray) -> Tensor:
        """(P, 1) weights of one frame in input order, from its rows of the
        chunk's LSTM output."""
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        rows = T.narrow(hidden, 0, start, len(order))
        raw = T.sigmoid(self.head(rows))  # (P, 1) in sorted order
        return T.gather_rows(raw, inverse)

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


@dataclass(frozen=True)
class SlotRows:
    """Row layout of a frame's points, from the pillar of each valid point.

    Rows 0 .. V - 1 are the V valid slots in slot order (pillar-major, as
    ``features[mask]``); row V + p is the pad row of pillar p, which stands
    for all of its padded slots, zero on input. A full pillar's pad row is
    computed and never read.
    """

    pillar: np.ndarray  # (V + P,) pillar of each row
    slot_row: np.ndarray  # (P * N,) the row that holds each slot
    shape: tuple[int, int]  # (P, N)

    @classmethod
    def of(cls, pillar_ids: np.ndarray, shape: tuple[int, int]) -> "SlotRows":
        """The layout of V valid points with pillars ``pillar_ids``, pillar by
        pillar in slot order, each pillar's points in its first slots, among
        (P, N) slots."""
        p, n = shape
        v = len(pillar_ids)
        slot = np.arange(v) - np.searchsorted(pillar_ids, pillar_ids)  # rank in its pillar
        slot_row = np.repeat(v + np.arange(p), n)
        slot_row[pillar_ids * n + slot] = np.arange(v)
        return cls(np.concatenate([pillar_ids, np.arange(p)]), slot_row, (p, n))

    def rows(self, points) -> Tensor:
        """(V + P, C) rows: the (V, C) valid points, then a zero pad row per
        pillar."""
        points = T.as_tensor(points)
        pad = T.constant(np.zeros((self.shape[0], points.data.shape[1])))
        return T.concat([points, pad], axis=0)


class PillarAttention:
    """Channel-reducing attention per row of a frame's points (see
    :class:`SlotRows`), with the pillar centers concatenated per row, then
    point-reducing attention over each pillar's N slot scores."""

    def __init__(self, channels: int, max_points: int, rng: np.random.Generator):
        self.channel_fc = L.Affine(channels + 3, 1, rng)
        self.point_fc = L.Affine(max_points, 1, rng)

    def __call__(self, rows, layout: SlotRows, centers: np.ndarray) -> Tensor:
        """(P, 1) weights from (V + P, C) rows and (P, 3) centers."""
        cat = T.concat([rows, T.constant(centers[layout.pillar])], axis=1)
        per_row = T.relu(self.channel_fc(cat))  # (V + P, 1)
        per_slot = T.reshape(T.gather_rows(per_row, layout.slot_row), layout.shape)  # (P, N)
        return T.sigmoid(self.point_fc(per_slot))

    def state(self) -> dict[str, Tensor]:
        return L.collect_state(channel_fc=self.channel_fc, point_fc=self.point_fc)


class MultiAttentionFuse:
    """Compose the three attentions over the augmented point rows of a chunk
    of frames, and return the attended (V, C) point rows of each frame.

    The order is LSTM -> graph -> pillar (local-global-local); the LSTM stage
    orders pillars by the x, y of their centers. Each stage's (P, 1) weights
    scale the running stream, so an output row is its input point times its
    pillar's three weights. The LSTM stage pools the input rows and the graph
    stage pools the LSTM-scaled rows; the fusion runs on the rows of
    :class:`SlotRows`, scaled by the product of the LSTM and graph weights.
    That product rounds differently from scaling by one weight after the
    other, so the rows agree with a dense stage-by-stage stream to rounding.
    Before the pillar stage, each row gets the LSTM-weighted pooled features
    of its pillar concatenated channel-wise and passes through two shared
    affine+ReLU layers.

    A frame arrives as its valid points alone, as in a
    :class:`~pillarseg.pillars.PillarRows`: a pillar's slots past its valid
    points are zero points in the pillar encoding, and one pad row per
    pillar carries them through the fusion. Only the LSTM itself runs the
    chunk's frames together; every other op runs per frame, so each frame's
    output is bitwise that of a chunk of one.
    """

    def __init__(self, channels: int, max_points: int, rng: np.random.Generator, *,
                 fusion_hidden: int, lstm_hidden: int, graph_hidden: int, heads: int,
                 fps_rate: float):
        self.max_points = max_points
        self.lstm_attn = DRLSTMAttention(channels, lstm_hidden, rng)
        self.graph_attn = GraphAttention(channels, graph_hidden, heads, rng, fps_rate)
        self.pillar_attn = PillarAttention(channels, max_points, rng)
        self.fuse1 = L.Affine(2 * channels, fusion_hidden, rng)
        self.fuse2 = L.Affine(fusion_hidden, channels, rng)

    def __call__(self, points, pillar_ids, centers) -> Iterator[Tensor]:
        """Attend over a chunk of frames: each argument is a list with one
        entry per frame, its (V, C) point rows pillar by pillar in slot order,
        the (V,) pillar of each row and its (P, 3) pillar centers. Each
        frame's attended rows come lazily: the pooling, the embedding order
        and the LSTM run now, for the whole chunk, and the rest of a frame,
        from the LSTM head on, runs when the iterator reaches it."""
        points = [T.as_tensor(x) for x in points]
        pooled = [T.masked_max_pool(x, ids, len(c))
                  for x, ids, c in zip(points, pillar_ids, centers)]
        states = self.lstm_attn(pooled, [c[:, :2] for c in centers])
        return map(self._attend_rows, points, pillar_ids, pooled, states, centers)

    def _attend_rows(self, points: Tensor, point_pillar: np.ndarray, pooled: Tensor,
                     states: tuple[Tensor, int, np.ndarray], centers: np.ndarray) -> Tensor:
        """One frame's LSTM head, graph and pillar stages, given its LSTM states."""
        w_lstm = self.lstm_attn.weights(*states)
        layout = SlotRows.of(point_pillar, (len(centers), self.max_points))
        scaled = T.mul(points, T.gather_rows(w_lstm, point_pillar))
        w_lg = T.mul(w_lstm, self.graph_attn(T.masked_max_pool(scaled, point_pillar,
                                                                len(centers))))
        attended = T.mul(layout.rows(points), T.gather_rows(w_lg, layout.pillar))
        partner = T.gather_rows(T.mul(pooled, w_lstm), layout.pillar)
        fused = T.relu(self.fuse2(T.relu(self.fuse1(T.concat([attended, partner], axis=1)))))
        w_all = T.mul(w_lg, self.pillar_attn(fused, layout, centers))
        return T.mul(points, T.gather_rows(w_all, point_pillar))

    def state(self) -> dict[str, Tensor]:
        return L.collect_state(
            lstm=self.lstm_attn, graph=self.graph_attn, pillar=self.pillar_attn,
            fuse1=self.fuse1, fuse2=self.fuse2,
        )
