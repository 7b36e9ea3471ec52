"""PillarSegNet: pillar feature net -> scatter -> occupancy concat -> M-UNet.

A frame enters as a :class:`~pillarseg.pillars.PillarRows`: the (V, C) rows
of its valid points, pillar by pillar, which multi-attention and the PFN read
as they are; no zero-padded (P, N, C) tensor reaches the model. The logits
head has one channel per supervised class; the unlabeled class has no
channel, so the model always commits to a known class everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import container, pillars as pil
from .attention import MultiAttentionFuse
from .errors import FormatError, ShapeError
from .nn import layers as L
from .nn import tensor as T
from .nn.tensor import Tensor


@dataclass
class ModelConfig:
    num_classes: int  # supervised classes = logits channels
    max_points: int
    pfn_channels: int
    unet_widths: tuple[int, ...]
    lstm_hidden: int
    fusion_hidden: int
    use_occupancy: bool
    use_ma: bool
    graph_hidden: int
    feast_heads: int
    fps_rate: float


class MUNet:
    """UNet without the usual image-input stem: the encoder starts directly at
    the pseudo-image width. Down blocks halve the extent, up blocks restore it
    through skip concatenation; a 1x1 convolution emits the class logits. That
    head is the one convolution no BatchNorm follows, so it alone adds a bias."""

    def __init__(self, cin: int, widths: tuple[int, ...], num_classes: int,
                 rng: np.random.Generator):
        self.downs: list[L.DownBlock] = []
        self.ups: list[L.UpBlock] = []
        prev = cin
        for w in widths:
            self.downs.append(L.DownBlock(prev, w, rng))
            prev = w
        current = widths[-1]
        out_widths = [widths[0]] + list(widths[:-1])  # up block at level j emits w_{j-1}
        for skip_w, out_w in zip(reversed(widths), reversed(out_widths)):
            self.ups.append(L.UpBlock(current, skip_w, out_w, rng))
            current = out_w
        self.head_weight = T.parameter(
            rng.normal(0.0, np.sqrt(2.0 / widths[0]), (num_classes, widths[0], 1, 1)))
        self.head_bias = T.parameter(np.zeros((num_classes, 1, 1)))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        skips = []
        for down in self.downs:
            skip, x = down(x, training)
            skips.append(skip)
        for up, skip in zip(self.ups, reversed(skips)):
            x = up(x, skip, training)
        return T.add(T.conv2d(x, self.head_weight), self.head_bias)

    def state(self) -> dict[str, Tensor | np.ndarray]:
        return {**L.collect_state(**{f"down{i}": block for i, block in enumerate(self.downs)},
                                  **{f"up{i}": block for i, block in enumerate(self.ups)}),
                "head.weight": self.head_weight, "head.bias": self.head_bias}


class PillarSegNet:
    """End-to-end top-view segmentation over a frame's augmented point rows
    (:class:`~pillarseg.pillars.PillarRows`)."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        ss = np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(s) for s in ss.spawn(3)]
        self.ma = None
        if cfg.use_ma:
            self.ma = MultiAttentionFuse(
                pil.AUGMENTED_CHANNELS, cfg.max_points, rngs[0],
                lstm_hidden=cfg.lstm_hidden, graph_hidden=cfg.graph_hidden,
                heads=cfg.feast_heads, fps_rate=cfg.fps_rate,
                fusion_hidden=cfg.fusion_hidden,
            )
        cin = pil.AUGMENTED_CHANNELS
        self.pfn_weight = T.parameter(  # no bias: pfn_bn would cancel it
            rngs[1].normal(0.0, np.sqrt(2.0 / cin), (cin, cfg.pfn_channels)))
        self.pfn_bn = L.BatchNorm(cfg.pfn_channels)
        unet_in = cfg.pfn_channels + (1 if cfg.use_occupancy else 0)
        self.unet = MUNet(unet_in, cfg.unet_widths, cfg.num_classes, rngs[2])

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def pfn_forward(self, rows, pillar_ids: np.ndarray, num_pillars: int,
                    training: bool) -> Tensor:
        """Shared linear map+BN+ReLU per point row, then a max per pillar.

        ``rows`` (V, C) are a frame's valid points and ``pillar_ids`` (V,)
        their pillars, of ``num_pillars``. Pillars with no row contribute zero
        vectors; padded slots are never rows, so they never enter the batch
        statistics.
        """
        if len(pillar_ids) == 0:
            return T.constant(np.zeros((num_pillars, self.cfg.pfn_channels)))
        h = T.relu(self.pfn_bn(T.matmul(rows, self.pfn_weight), training))
        return T.segment_max(h, pillar_ids, num_pillars)

    def pseudo_images(self, psets: list[pil.PillarRows], grid: pil.GridConfig,
                      training: bool) -> Iterator[Tensor]:
        """(pfn_channels, H, W) scatter of encoded pillars per frame of a chunk,
        lazily. Unaffected by the occupancy flag.

        With MA, the call runs its LSTM over the chunk's non-empty frames
        together; the rest of each frame (the rest of MA, the PFN and the
        scatter) runs when the iterator reaches it. MA and the PFN read a
        frame's point rows as they are cached, and each row's pillar, taken
        once per frame; the PFN takes the attended rows under MA."""
        ids = [pset.pillar_ids for pset in psets]
        attended = iter(())
        live = [(pset, pillar_ids) for pset, pillar_ids in zip(psets, ids) if pset.valid_pillars]
        if self.ma is not None and live:
            attended = self.ma([T.constant(pset.points) for pset, _ in live],
                               [pillar_ids for _, pillar_ids in live],
                               [pil.pillar_centers(pset, grid) for pset, _ in live])

        def image(pset: pil.PillarRows, pillar_ids: np.ndarray) -> Tensor:
            attend = self.ma is not None and pset.valid_pillars
            rows = next(attended) if attend else T.constant(pset.points)
            pooled = self.pfn_forward(rows, pillar_ids, pset.valid_pillars, training)
            return T.scatter_to_image(pooled, pset.pillar_coords[:, 0], pset.pillar_coords[:, 1],
                                      grid.height, grid.width)

        return map(image, psets, ids)

    def frame_logits(self, psets: list[pil.PillarRows], grid: pil.GridConfig,
                     occ_channels: list, training: bool) -> Iterator[Tensor]:
        """Logits (num_classes, H, W) per frame of a chunk, lazily, from its
        point rows plus its normalized observability channel (None when the
        model has no occupancy input).

        Only the multi-attention LSTM runs in the call, over the chunk's
        frames together; every other op of a frame runs when the iterator
        reaches it, on whatever tape is then active, and each frame's logits
        are bitwise those of a chunk of one. So a training step can record the
        LSTM once on a tape of its own and each frame's rest on another."""
        if self.cfg.use_occupancy and any(occ is None for occ in occ_channels):
            raise ShapeError("model was built with use_occupancy but no channel given")

        def logits(image: Tensor, occ_channel: np.ndarray | None) -> Tensor:
            if self.cfg.use_occupancy:
                image = T.concat([image, T.constant(occ_channel[None])], axis=0)
            return self.unet(image, training)

        return map(logits, self.pseudo_images(psets, grid, training), occ_channels)

    def forward_pillars(self, pset: pil.PillarRows, grid: pil.GridConfig,
                        occ_channel: np.ndarray | None, training: bool) -> Tensor:
        """Logits (num_classes, H, W) of one frame: a chunk of one."""
        return next(self.frame_logits([pset], grid, [occ_channel], training))

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def state(self) -> dict[str, Tensor | np.ndarray]:
        """The whole model's state table: every trainable ``Tensor`` and every
        BatchNorm running-statistic array, named by dotted path."""
        children = {"pfn_bn": self.pfn_bn, "unet": self.unet}
        if self.ma is not None:
            children["ma"] = self.ma
        return {"pfn_weight": self.pfn_weight, **L.collect_state(**children)}

    def parameters(self) -> dict[str, Tensor]:
        """The ``Tensor`` entries of :meth:`state`, in its order."""
        return {k: v for k, v in self.state().items() if isinstance(v, Tensor)}

    def predict(self, logits: Tensor, supervised_indices: list[int]) -> np.ndarray:
        """(H, W) merged class indices from channel argmax."""
        chan = np.argmax(logits.data, axis=0)
        lookup = np.asarray(supervised_indices, dtype=np.int16)
        return lookup[chan]


def _checkpoint_entries(model: PillarSegNet) -> dict[str, np.ndarray]:
    """Checkpoint entry name -> the model's array: ``param.<name>`` for each
    ``Tensor`` of the state table, then ``buffer.<name>`` for the other entries."""
    state = model.state()
    entries = {f"param.{k}": v.data for k, v in state.items() if isinstance(v, Tensor)}
    entries.update({f"buffer.{k}": v for k, v in state.items() if not isinstance(v, Tensor)})
    return entries


def save_checkpoint(path, model: PillarSegNet) -> None:
    entries = _checkpoint_entries(model)
    container.write_container(path, {k: v.astype("<f4") for k, v in entries.items()})


def load_checkpoint(path, model: PillarSegNet) -> None:
    """Copy every checkpoint entry in place into the model's array of its name.
    An unknown entry, a missing entry, a shape mismatch, a non-finite value
    or a negative BatchNorm running variance is a ``FormatError``, raised
    before any entry is copied."""
    arrays = container.read_container(path)
    targets = _checkpoint_entries(model)
    if arrays.keys() != targets.keys():
        raise FormatError(f"checkpoint entries differ from the model's: unknown "
                          f"{sorted(arrays.keys() - targets.keys())[:3]}, missing "
                          f"{sorted(targets.keys() - arrays.keys())[:3]}")
    for name, target in targets.items():
        array = arrays[name]
        if array.shape != target.shape:
            raise FormatError(
                f"checkpoint shape {array.shape} != model shape {target.shape} for {name!r}")
        if not np.isfinite(array).all():
            raise FormatError(f"checkpoint entry {name!r} holds a non-finite value")
        if name.endswith(".running_var") and (array < 0).any():
            raise FormatError(f"checkpoint entry {name!r} holds a negative variance")
    for name, target in targets.items():
        target[...] = arrays[name]
