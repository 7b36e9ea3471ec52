"""Scan/label/pose ingestion and synthetic labeled scenes.

File formats follow the common LiDAR benchmark conventions:

* scans: ``.bin`` with four little-endian float32 per point ``(x, y, z, r)``
* labels: ``.label`` with one little-endian uint32 per point, semantic class
  in the low 16 bits, instance id in the high 16 bits
* poses: text, 12 whitespace-separated floats per line (row-major 3x4)
* class maps: flat ``raw_id = name`` text, one pair per line
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .flat import Count, NonNegative, Positive, numeral, parse_flat, read_fields

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4
UNLABELED_NAME = "unlabeled"


@dataclass(frozen=True)
class PointCloud:
    """Ordered point samples: float32 ``xyz`` (N, 3) and reflectance (N,)."""

    xyz: np.ndarray
    reflectance: np.ndarray

    def __post_init__(self):
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise FormatError(f"xyz must be (N, 3), got {self.xyz.shape}")
        if self.reflectance.shape != (len(self.xyz),):
            raise FormatError("reflectance length does not match point count")

    def __len__(self) -> int:
        return len(self.xyz)


@dataclass(frozen=True)
class Pose:
    """Rigid transform into the shared reference frame: ``p_ref = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def orthonormality_error(self) -> float:
        r = self.rotation
        return float(np.linalg.norm(r @ r.T - np.eye(3)))

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        return xyz @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Frame:
    """One scan plus optional per-point merged classes and pose."""

    cloud: PointCloud
    classes: np.ndarray | None = None
    pose: Pose | None = None


def parse_point_cloud(data: bytes) -> PointCloud:
    """Decode a binary scan: 16-byte records of little-endian float32 (x, y, z, r)."""
    if len(data) % POINT_RECORD_BYTES != 0:
        raise FormatError(
            f"scan byte length {len(data)} is not a multiple of {POINT_RECORD_BYTES}"
        )
    flat = np.frombuffer(data, dtype="<f4")
    records = flat.reshape(-1, 4)
    bad = ~np.isfinite(records).all(axis=1)
    if bad.any():
        raise FormatError(f"non-finite value in point record {int(np.flatnonzero(bad)[0])}")
    return PointCloud(records[:, :3].copy(), records[:, 3].copy())


def serialize_point_cloud(cloud: PointCloud) -> bytes:
    """Inverse of :func:`parse_point_cloud`; raw class ids are not stored."""
    records = np.empty((len(cloud), 4), dtype="<f4")
    records[:, :3] = cloud.xyz
    records[:, 3] = cloud.reflectance
    return records.tobytes()


def parse_labels(data: bytes) -> np.ndarray:
    """Decode a label file into uint16 semantic class ids (instance bits discarded)."""
    if len(data) % LABEL_RECORD_BYTES != 0:
        raise FormatError(
            f"label byte length {len(data)} is not a multiple of {LABEL_RECORD_BYTES}"
        )
    raw = np.frombuffer(data, dtype="<u4")
    return (raw & 0xFFFF).astype(np.uint16)


def serialize_labels(raw_ids: np.ndarray) -> bytes:
    return np.asarray(raw_ids, dtype="<u4").tobytes()


def parse_poses(text: str) -> list[Pose]:
    """Parse a pose file: 12 finite floats per nonempty line, row-major 3x4.

    Rotation blocks deviating from orthonormality by more than 1e-3 (Frobenius)
    trigger a warning; beyond 1e-1, or with non-positive determinant, the line
    is rejected. An error of at most 1e-1 bounds every row norm by
    sqrt(1.1) < 1.05, so a rotation entry above 1.05 in magnitude is rejected
    first, before its products can overflow.
    """
    poses = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 12:
            raise FormatError(f"pose line {lineno}: expected 12 values, got {len(tokens)}")
        try:
            values = np.array([float(numeral(t)) for t in tokens], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"pose line {lineno}: {exc}") from exc
        if not np.isfinite(values).all():
            raise FormatError(f"pose line {lineno}: non-finite value")
        mat = values.reshape(3, 4)
        if np.abs(mat[:, :3]).max() > 1.05:
            raise FormatError(f"pose line {lineno}: rotation entry above 1.05 in magnitude")
        pose = Pose(mat[:, :3].copy(), mat[:, 3].copy())
        err = pose.orthonormality_error()
        if err > 1e-1:
            raise FormatError(f"pose line {lineno}: rotation non-orthonormal ({err:.3g})")
        if np.linalg.det(pose.rotation) <= 0:
            raise FormatError(f"pose line {lineno}: rotation determinant not positive")
        if err > 1e-3:
            warnings.warn(f"pose line {lineno}: rotation deviates from orthonormal ({err:.3g})")
        poses.append(pose)
    return poses


def serialize_poses(poses: list[Pose]) -> str:
    lines = []
    for pose in poses:
        mat = np.hstack([pose.rotation, pose.translation[:, None]])
        lines.append(" ".join(repr(float(v)) for v in mat.ravel()))
    return "\n".join(lines) + "\n"


class ClassMap:
    """Total mapping from raw 16-bit class ids to contiguous merged indices.

    The merged index set always contains an ``unlabeled`` class; raw ids not
    listed in the map fall back to it. Merged indices are assigned by first
    appearance of each class name.
    """

    def __init__(self, entries: dict[int, str]):
        names: list[str] = []
        for name in entries.values():
            if name not in names:
                names.append(name)
        if UNLABELED_NAME not in names:
            names.insert(0, UNLABELED_NAME)
        self.class_names = names
        self.unlabeled_index = names.index(UNLABELED_NAME)
        self._table = np.full(65536, self.unlabeled_index, dtype=np.uint16)
        for raw_id, name in entries.items():
            if not 0 <= raw_id < 65536:
                raise ConfigError(f"raw class id {raw_id} out of 16-bit range")
            self._table[raw_id] = names.index(name)

    @property
    def num_merged(self) -> int:
        return len(self.class_names)

    @property
    def num_supervised(self) -> int:
        return self.num_merged - 1

    @property
    def supervised_indices(self) -> list[int]:
        return [i for i in range(self.num_merged) if i != self.unlabeled_index]

    def index_of(self, name: str) -> int:
        if name not in self.class_names:
            raise ConfigError(f"class {name!r} is not a class of the class map")
        return self.class_names.index(name)

    def remap(self, raw_ids) -> np.ndarray:
        """Merged index for each raw id; unknown ids map to the unlabeled index."""
        return self._table[np.asarray(raw_ids, dtype=np.uint16)]

    @classmethod
    def parse(cls, text: str) -> "ClassMap":
        """``raw_id = name`` lines in the grammar of ``flat.parse_flat``; a
        later line for a raw id replaces its name."""
        entries: dict[int, str] = {}
        for key, names in parse_flat(text).items():
            try:
                raw_id = int(numeral(key))
            except ValueError as exc:
                raise FormatError(f"class map: bad raw id {key!r}") from exc
            if len(names) != 1:
                raise FormatError(f"class map: raw id {key} needs one class name, got {names}")
            entries[raw_id] = names[0]
        if set(entries.values()) <= {UNLABELED_NAME}:
            raise FormatError("class map is empty or names no class besides unlabeled")
        return cls(entries)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


_BOX_JITTER = (0.85, 1.15)  # per-frame scale range of each box dimension


@dataclass
class SceneSpec:
    """Synthetic scene description: a ground plane plus boxes and posts.

    Each field is the scene-file key of its name. Densities are points per
    square meter of surface: a surface of area A draws round(A * density)
    points, so a density of 0 draws none; a scene in which no surface can
    draw a point is rejected. Box and post placement is sampled
    uniformly inside the ground extent per frame.
    """

    ground: tuple[float, float, float, float]  # x_min x_max y_min y_max
    ground_density: NonNegative = 1.5  # 0: no ground
    ground_z_sigma: NonNegative = 0.02
    boxes: Count = 8
    box_size: tuple[Positive, Positive, Positive] = (1.8, 4.2, 1.6)  # w l h
    box_density: NonNegative = 12.0
    posts: Count = 8
    post_radius: Positive = 0.15
    post_height: NonNegative = 2.5
    post_density: NonNegative = 60.0
    ground_class: str = "ground"
    box_class: str = "vehicle"
    post_class: str = "object"

    def __post_init__(self):
        x0, x1, y0, y1 = self.ground
        room = min(x1 - x0, y1 - y0)
        if room < 0:
            raise ConfigError(f"ground extent max must not be below min, got {self.ground}")
        # the most points one surface of each kind can draw: the ground and a
        # post at their fixed areas, a box's largest face at its largest jitter
        w, l, h = (size * _BOX_JITTER[1] for size in self.box_size)
        most = [(x1 - x0) * (y1 - y0) * self.ground_density,
                self.boxes and max(w * l, w * h, l * h) * self.box_density,
                self.posts and 2 * math.pi * self.post_radius * self.post_height
                * self.post_density]
        if not any(round(n) for n in most):
            raise ConfigError("scene spec produces no surfaces: every surface rounds to 0 points")
        if (self.boxes and max(self.box_size[:2]) > room) or \
                (self.posts and 2 * self.post_radius > room):
            raise ConfigError(f"boxes or posts do not fit the ground extent {self.ground}")

    @classmethod
    def parse(cls, text: str) -> "SceneSpec":
        values = parse_flat(text)
        spec = read_fields(cls, values)
        if values:
            raise ConfigError(f"unknown scene key {next(iter(values))!r}")
        return spec


def _sample_ground(rng: np.random.Generator, spec: SceneSpec) -> np.ndarray:
    x0, x1, y0, y1 = spec.ground
    area = (x1 - x0) * (y1 - y0)
    n = int(round(area * spec.ground_density))
    pts = np.empty((n, 3))
    pts[:, 0] = rng.uniform(x0, x1, n)
    pts[:, 1] = rng.uniform(y0, y1, n)
    pts[:, 2] = rng.normal(0.0, spec.ground_z_sigma, n)
    return pts


def _sample_box(rng: np.random.Generator, cx, cy, yaw, w, l, h, density) -> np.ndarray:
    # top face plus the four sides; no bottom (never visible from above).
    faces = [
        (w * l, "top"),
        (w * h, "front"),
        (w * h, "back"),
        (l * h, "left"),
        (l * h, "right"),
    ]
    pts = []
    for area, face in faces:
        n = int(round(area * density))
        u = rng.uniform(-0.5, 0.5, n)
        v = rng.uniform(0.0, 1.0, n)
        if face == "top":
            local = np.column_stack([u * w, (v - 0.5) * l, np.full(n, h)])
        elif face == "front":
            local = np.column_stack([u * w, np.full(n, l / 2), v * h])
        elif face == "back":
            local = np.column_stack([u * w, np.full(n, -l / 2), v * h])
        elif face == "left":
            local = np.column_stack([np.full(n, -w / 2), u * l, v * h])
        else:
            local = np.column_stack([np.full(n, w / 2), u * l, v * h])
        pts.append(local)
    local = np.vstack(pts)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    world = local.copy()
    world[:, :2] = local[:, :2] @ rot.T + [cx, cy]
    return world


def _sample_post(rng: np.random.Generator, cx, cy, radius, height, density) -> np.ndarray:
    area = 2 * math.pi * radius * height
    n = int(round(area * density))
    theta = rng.uniform(0.0, 2 * math.pi, n)
    pts = np.empty((n, 3))
    pts[:, 0] = cx + radius * np.cos(theta)
    pts[:, 1] = cy + radius * np.sin(theta)
    pts[:, 2] = rng.uniform(0.0, height, n)
    return pts


def generate_synthetic_frame(
    seed: int, spec: SceneSpec, class_map: ClassMap
) -> tuple[PointCloud, np.ndarray]:
    """Deterministic labeled scene: returns (cloud, per-point merged class).

    The simulated sensor sits at the origin; every point carries the class of
    the surface it was sampled from.
    """
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = spec.ground
    chunks: list[np.ndarray] = []
    classes: list[np.ndarray] = []

    if spec.ground_density > 0:
        ground = _sample_ground(rng, spec)
        chunks.append(ground)
        classes.append(np.full(len(ground), class_map.index_of(spec.ground_class)))

    margin = max(spec.box_size[:2]) / 2
    for _ in range(spec.boxes):
        cx = rng.uniform(x0 + margin, x1 - margin)
        cy = rng.uniform(y0 + margin, y1 - margin)
        yaw = rng.uniform(-math.pi, math.pi)
        w, l, h = spec.box_size
        jitter = rng.uniform(*_BOX_JITTER, 3)
        box = _sample_box(rng, cx, cy, yaw, w * jitter[0], l * jitter[1], h * jitter[2], spec.box_density)
        chunks.append(box)
        classes.append(np.full(len(box), class_map.index_of(spec.box_class)))

    for _ in range(spec.posts):
        cx = rng.uniform(x0 + spec.post_radius, x1 - spec.post_radius)
        cy = rng.uniform(y0 + spec.post_radius, y1 - spec.post_radius)
        post = _sample_post(rng, cx, cy, spec.post_radius, spec.post_height, spec.post_density)
        chunks.append(post)
        classes.append(np.full(len(post), class_map.index_of(spec.post_class)))

    xyz = np.vstack(chunks).astype(np.float32)
    merged = np.concatenate(classes).astype(np.int64)
    reflectance = rng.uniform(0.0, 1.0, len(xyz)).astype(np.float32)
    return PointCloud(xyz, reflectance), merged
