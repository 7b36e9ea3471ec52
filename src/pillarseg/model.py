"""PillarSegNet: pillar feature net -> scatter -> occupancy concat -> M-UNet.

The logits head has one channel per supervised class; the unlabeled class has
no channel, so the model always commits to a known class everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pillars as pil
from .attention import MultiAttentionFuse
from .errors import ConfigError, ShapeError
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
    use_occupancy: bool = True
    use_ma: bool = False
    ma_order: tuple[str, ...] = ("L", "G", "P")
    graph_hidden: int = 16
    feast_heads: int = 4
    fps_rate: float = 0.05
    bn_momentum: float = 0.9

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError("need at least one supervised class")
        if not self.unet_widths:
            raise ConfigError("unet_widths must name at least one block")


class MUNet:
    """UNet without the usual image-input stem: the encoder starts directly at
    the pseudo-image width. Down blocks halve the extent, up blocks restore it
    through skip concatenation; a 1x1 convolution emits the class logits."""

    def __init__(self, cin: int, widths: tuple[int, ...], num_classes: int,
                 rng: np.random.Generator, bn_momentum: float):
        self.downs: list[L.DownBlock] = []
        self.ups: list[L.UpBlock] = []
        prev = cin
        for w in widths:
            self.downs.append(L.DownBlock(prev, w, rng, bn_momentum))
            prev = w
        current = widths[-1]
        out_widths = [widths[0]] + list(widths[:-1])  # up block at level j emits w_{j-1}
        for skip_w, out_w in zip(reversed(widths), reversed(out_widths)):
            self.ups.append(L.UpBlock(current, skip_w, out_w, rng, bn_momentum))
            current = out_w
        self.head_weight = T.parameter(
            rng.normal(0.0, np.sqrt(2.0 / widths[0]), (num_classes, widths[0], 1, 1)))
        self.head_bias = T.parameter(np.zeros(num_classes))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        skips = []
        for down in self.downs:
            skip, x = down(x, training)
            skips.append(skip)
        for up, skip in zip(self.ups, reversed(skips)):
            x = up(x, skip, training)
        return T.conv2d(x, self.head_weight, self.head_bias)

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, block in enumerate(self.downs):
            out.update({f"down{i}.{k}": v for k, v in block.params().items()})
        for i, block in enumerate(self.ups):
            out.update({f"up{i}.{k}": v for k, v in block.params().items()})
        out["head.weight"] = self.head_weight
        out["head.bias"] = self.head_bias
        return out

    def bn_layers(self):
        for i, block in enumerate(self.downs + self.ups):
            kind = f"down{i}" if i < len(self.downs) else f"up{i - len(self.downs)}"
            for cname, conv in (("conv1", block.conv1), ("conv2", block.conv2)):
                yield f"{kind}.{cname}.bn", conv.bn


class PillarSegNet:
    """End-to-end top-view segmentation over an augmented pillar set."""

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
                fusion_hidden=cfg.fusion_hidden, order=cfg.ma_order,
            )
        self.pfn_affine = L.Affine(pil.AUGMENTED_CHANNELS, cfg.pfn_channels, rngs[1])
        self.pfn_bn = L.BatchNorm(cfg.pfn_channels, momentum=cfg.bn_momentum)
        unet_in = cfg.pfn_channels + (1 if cfg.use_occupancy else 0)
        self.unet = MUNet(unet_in, cfg.unet_widths, cfg.num_classes, rngs[2],
                          cfg.bn_momentum)

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def pfn_forward(self, aug_feats, mask: np.ndarray, training: bool) -> Tensor:
        """Shared affine+BN+ReLU per valid point, then a masked max per pillar.

        Pillars with zero valid points contribute zero vectors. Padded slots
        never enter the batch statistics.
        """
        aug_feats = T.as_tensor(aug_feats)
        p, n, c = aug_feats.data.shape
        idx = np.flatnonzero(mask.ravel())
        if idx.size == 0:
            return T.constant(np.zeros((p, self.cfg.pfn_channels)))
        flat = T.reshape(aug_feats, (p * n, c))
        pts = T.gather_rows(flat, idx)
        h = T.relu(self.pfn_bn(self.pfn_affine(pts), training))
        return T.segment_max(h, idx // n, p)

    def pseudo_images(self, psets: list[pil.PillarSet], grid: pil.GridConfig,
                      training: bool) -> list[Tensor]:
        """(pfn_channels, H, W) scatter of encoded pillars per frame; MA runs
        first, over the chunk's non-empty frames together, when enabled.
        Unaffected by the occupancy flag."""
        feats = [T.constant(pset.features) for pset in psets]
        live = [i for i, pset in enumerate(psets) if pset.valid_pillars]
        if self.ma is not None and live:
            centers = [pil.pillar_centers(psets[i], grid) for i in live]
            streams, _ = self.ma([feats[i] for i in live], [psets[i].mask for i in live],
                                 [c[:, :2] for c in centers], centers)
            for i, stream in zip(live, streams):
                feats[i] = stream
        images = []
        for pset, f in zip(psets, feats):
            if pset.valid_pillars == 0:
                images.append(T.constant(np.zeros((self.cfg.pfn_channels, grid.height,
                                                   grid.width))))
                continue
            pooled = self.pfn_forward(f, pset.mask, training)
            images.append(T.scatter_to_image(pooled, pset.pillar_coords[:, 0],
                                             pset.pillar_coords[:, 1], grid.height, grid.width))
        return images

    def forward_frames(self, psets: list[pil.PillarSet], grid: pil.GridConfig,
                       occ_channels: list, training: bool) -> list[Tensor]:
        """Logits (num_classes, H, W) per frame of a chunk, from its augmented
        pillar set plus its normalized observability channel (None when the
        model has no occupancy input). Only the multi-attention stages see the
        chunk's frames together; PFN, scatter and UNet run per frame, and each
        frame's logits are bitwise those of a chunk of one."""
        logits = []
        for image, occ_channel in zip(self.pseudo_images(psets, grid, training), occ_channels):
            if self.cfg.use_occupancy:
                if occ_channel is None:
                    raise ShapeError("model was built with use_occupancy but no channel given")
                image = T.concat([image, T.constant(occ_channel[None])], axis=0)
            logits.append(self.unet(image, training))
        return logits

    def forward_pillars(self, pset: pil.PillarSet, grid: pil.GridConfig,
                        occ_channel: np.ndarray | None, training: bool) -> Tensor:
        """Logits (num_classes, H, W) of one frame: a chunk of one."""
        return self.forward_frames([pset], grid, [occ_channel], training)[0]

    # ------------------------------------------------------------------
    # parameters and buffers
    # ------------------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out = L.collect_params(pfn_affine=self.pfn_affine, pfn_bn=self.pfn_bn,
                               unet=self.unet)
        if self.ma is not None:
            out.update({f"ma.{k}": v for k, v in self.ma.params().items()})
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in self.pfn_bn.state().items():
            out[f"pfn_bn.{name}"] = arr
        for prefix, bn in self.unet.bn_layers():
            for name, arr in bn.state().items():
                out[f"unet.{prefix}.{name}"] = arr
        return out

    def predict(self, logits: Tensor, supervised_indices: list[int]) -> np.ndarray:
        """(H, W) merged class indices from channel argmax."""
        chan = np.argmax(logits.data, axis=0)
        lookup = np.asarray(supervised_indices, dtype=np.int16)
        return lookup[chan]


def save_checkpoint(path, model: PillarSegNet) -> None:
    from .container import write_container

    arrays = {f"param.{k}": v.data.astype("<f4") for k, v in model.parameters().items()}
    arrays.update({f"buffer.{k}": v.astype("<f4") for k, v in model.buffers().items()})
    write_container(path, arrays)


def load_checkpoint(path, model: PillarSegNet) -> None:
    from .container import read_container
    from .errors import FormatError

    arrays = read_container(path)
    params = model.parameters()
    buffers = model.buffers()
    for key, arr in arrays.items():
        kind, _, name = key.partition(".")
        if kind == "param":
            if name not in params:
                raise FormatError(f"checkpoint names unknown parameter {name!r}")
            target = params[name]
            if target.data.shape != arr.shape:
                raise FormatError(
                    f"checkpoint shape {arr.shape} != model shape {target.data.shape} for {name!r}")
            target.data = arr.astype(target.data.dtype)
        elif kind == "buffer":
            if name not in buffers:
                raise FormatError(f"checkpoint names unknown buffer {name!r}")
            buffers[name][...] = arr
        else:
            raise FormatError(f"unknown checkpoint entry kind {kind!r}")
    missing = set(params) - {k.partition(".")[2] for k in arrays if k.startswith("param.")}
    if missing:
        raise FormatError(f"checkpoint is missing parameters: {sorted(missing)[:3]}...")
