"""Configurable noise-injecting mock predictor.

Stands in for the trained network: it returns the bundle's ground truth
perturbed per NoiseModel.  Each head draws from its own generator, the child
of SeedSequence([0x30C4, seed, bundle.seed]) at a fixed spawn key: (i, 0),
(i, 1) and (i, 2) for view i's depth, coords and mask flips, (n_views,) for
the relative poses and the similarity.  A head's standard draws do not depend
on the sigmas, so for a fixed seed its error is monotone in each sigma; a
view head whose sigma is 0 draws nothing and is bit-exact ground truth.

A Prediction pays only for what its caller reads.  The pose block is drawn up
front; a view's depth, coords and masks are drawn, perturbed and validated on
first access, each reading only its own bundle rasters.  So `eval-pose` makes
no pixel-sized draw, `eval-pointmap` draws each view's depth and coords, and
`compose-points --view i` draws view i's heads only.

Heatmaps are synthesized as Gaussian bumps at the true 2D keypoints (the
predicted bumps widen by the blur sigma).  Predicted and ground-truth
keypoint coordinates are both decoded from their heatmaps with the same
soft-argmax at its default temperature, so at zero noise the coordinate loss
is exactly zero while the decoding path stays exercised under noise.  The
predicted heatmap/keypoint head draws no random numbers, so a Prediction
builds it on first access and callers that never read it never pay for it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ..camera import CoordMap, DepthMap
from ..masks import PART_NAMES, MaskSet
from ..pnp import soft_argmax
from ..transforms import RigidTransform, Similarity, relative_pose, rotation_about_axis
from .bundle import SceneBundle


@dataclass(frozen=True)
class NoiseModel:
    depth_sigma: float = 0.0
    coord_sigma: float = 0.0
    translation_sigma: float = 0.0
    rotation_sigma: float = 0.0
    scale_sigma: float = 0.0
    heatmap_blur: float = 0.0
    mask_flip_rate: float = 0.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"noise parameter {name} must be finite and >= 0, got {value}")
        if self.mask_flip_rate > 1:
            raise ValueError(f"noise parameter mask_flip_rate is a probability, got {self.mask_flip_rate}")


_UNBUILT = object()


class LazyViews(Sequence):
    """Per-view entries, each built by its zero-argument builder on first access."""

    def __init__(self, builders):
        self._builders = list(builders)
        self._entries = [_UNBUILT] * len(self._builders)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i):
        i = operator.index(i)  # an integer, not a slice
        entry = self._entries[i]
        if entry is _UNBUILT:
            entry = self._entries[i] = self._builders[i]()
        return entry


@dataclass(frozen=True, eq=False)
class Prediction:
    """Everything the network head stack would emit for one scene."""

    depths: LazyViews
    coords: LazyViews
    masks: LazyViews
    rel_poses: tuple  # per view, view j -> view 0 (first entry identity)
    similarity: Similarity
    true_keypoints_2d: np.ndarray  # per view, (N_kp, 2) heatmap bump centers
    width: int
    height: int
    heatmap_sigma: float  # predicted bump width in px

    @cached_property
    def heatmaps(self) -> tuple:
        """Per view, H x W x N_kp Gaussian bumps, built on first access."""
        return tuple(
            synthesize_heatmaps(kp, self.width, self.height, self.heatmap_sigma)
            for kp in self.true_keypoints_2d
        )

    @cached_property
    def keypoints_2d(self) -> tuple:
        """Per view, (N_kp, 2) soft-argmax decodes of the heatmaps."""
        return tuple(soft_argmax(hm) for hm in self.heatmaps)


def synthesize_heatmaps(keypoints_2d, width, height, sigma) -> np.ndarray:
    """H x W x N_kp Gaussian bumps centered on sub-pixel keypoints."""
    kp = np.asarray(keypoints_2d, dtype=float).reshape(-1, 2)
    us = np.arange(width, dtype=float)
    vs = np.arange(height, dtype=float)
    du2 = (us[None, :] - kp[:, 0][:, None]) ** 2  # (N, W)
    dv2 = (vs[None, :] - kp[:, 1][:, None]) ** 2  # (N, H)
    hm = np.exp(-(dv2[:, :, None] + du2[:, None, :]) / (2.0 * sigma * sigma))
    return np.moveaxis(hm, 0, -1)


def _perturb_pose(pose: RigidTransform, t_sigma, r_sigma, rng) -> RigidTransform:
    # draws happen unconditionally to keep the stream layout sigma-independent
    dt = rng.standard_normal(3)
    axis = rng.standard_normal(3)
    angle = rng.standard_normal()
    rot = pose.rotation
    t = pose.translation
    if r_sigma > 0:
        norm = np.linalg.norm(axis)
        if norm > 0:
            rot = rot @ rotation_about_axis(axis / norm, angle * r_sigma)
    if t_sigma > 0:
        t = t + t_sigma * dt
    return RigidTransform(rot, t)


def _generator(entropy, key) -> np.random.Generator:
    """The generator of one head: the child of SeedSequence(entropy) at spawn key `key`."""
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))


def _noisy_depth(view, sigma, entropy, key) -> DepthMap:
    if sigma == 0:
        return view.depth
    eps = _generator(entropy, key).standard_normal(view.depth.values.shape)
    dv = view.depth.values + sigma * eps
    return DepthMap(np.where(view.depth.valid, dv, 0.0), view.depth.valid)


def _noisy_coords(view, sigma, entropy, key) -> CoordMap:
    if sigma == 0:
        return view.coords
    eps = _generator(entropy, key).standard_normal(view.coords.values.shape)
    return CoordMap(view.coords.values + sigma * eps)


def _flipped_masks(view, rate, entropy, key) -> MaskSet:
    """view.masks with each part plane flipped where its uniform draw is < rate."""
    if rate == 0:
        return view.masks
    flip = _generator(entropy, key).random(view.masks.shape + (3,)) < rate
    planes = (getattr(view.masks, part) for part in PART_NAMES)
    return MaskSet(*(np.where(flip[:, :, i], 1.0 - m, m) for i, m in enumerate(planes)))


def mock_predict(bundle: SceneBundle, noise: NoiseModel, seed: int) -> Prediction:
    """Deterministic prediction set for a bundle: pure in (bundle, noise, seed)."""
    entropy = [0x30C4, int(seed), bundle.seed]
    spec = bundle.spec

    depths, coords, masks = [], [], []  # per view, the builders of its entries
    for i, view in enumerate(bundle.views):
        depths.append(partial(_noisy_depth, view, noise.depth_sigma, entropy, (i, 0)))
        coords.append(partial(_noisy_coords, view, noise.coord_sigma, entropy, (i, 1)))
        masks.append(partial(_flipped_masks, view, noise.mask_flip_rate, entropy, (i, 2)))

    rng = _generator(entropy, (len(bundle.views),))
    rel_poses = [RigidTransform.identity()]
    for view in bundle.views[1:]:
        rel = relative_pose(bundle.views[0].pose_world, view.pose_world)
        rel_poses.append(
            _perturb_pose(rel, noise.translation_sigma, noise.rotation_sigma, rng)
        )

    sim_rigid = _perturb_pose(
        bundle.similarity.rigid, noise.translation_sigma, noise.rotation_sigma, rng
    )
    scale_eps = rng.standard_normal()
    scale = bundle.similarity.scale
    if noise.scale_sigma > 0:
        scale = scale * float(np.exp(noise.scale_sigma * scale_eps))
    similarity = Similarity(scale, sim_rigid)

    return Prediction(
        depths=LazyViews(depths),
        coords=LazyViews(coords),
        masks=LazyViews(masks),
        rel_poses=tuple(rel_poses),
        similarity=similarity,
        true_keypoints_2d=bundle.keypoints_2d,
        width=spec.width,
        height=spec.height,
        heatmap_sigma=spec.heatmap_sigma + noise.heatmap_blur,
    )


def ground_truth_heatmaps(bundle: SceneBundle) -> list[np.ndarray]:
    spec = bundle.spec
    return [
        synthesize_heatmaps(bundle.keypoints_2d[i], spec.width, spec.height, spec.heatmap_sigma)
        for i in range(len(bundle.views))
    ]
