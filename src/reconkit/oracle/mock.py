"""Configurable noise-injecting mock predictor.

Stands in for the trained network: it returns the bundle's ground truth
perturbed per NoiseModel.  Standard normal draws are made in a fixed order
independent of the sigma values and then scaled, so for a fixed seed the
injected error is monotone in each sigma; components with sigma = 0 skip
perturbation entirely and are bit-exact ground truth.

Heatmaps are synthesized as Gaussian bumps at the true 2D keypoints (the
predicted bumps widen by the blur sigma).  Predicted and ground-truth
keypoint coordinates are both decoded from their heatmaps with the same
soft-argmax at its default temperature, so at zero noise the coordinate loss
is exactly zero while the decoding path stays exercised under noise.  The
predicted heatmap/keypoint head draws no random numbers, so a Prediction
builds it on first access and callers that never read it never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class Prediction:
    """Everything the network head stack would emit for one scene."""

    depths: tuple
    coords: tuple
    masks: tuple
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


def mock_predict(bundle: SceneBundle, noise: NoiseModel, seed: int) -> Prediction:
    """Deterministic prediction set for a bundle: pure in (bundle, noise, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([0x30C4, int(seed), bundle.seed]))
    spec = bundle.spec

    depths, coords, masks = [], [], []
    for view in bundle.views:
        eps_d = rng.standard_normal(view.depth.values.shape)
        eps_c = rng.standard_normal(view.coords.values.shape)
        flips = rng.random(view.masks.shape + (3,))

        if noise.depth_sigma > 0:
            dv = view.depth.values + noise.depth_sigma * eps_d
            depths.append(DepthMap(np.where(view.depth.valid, dv, 0.0), view.depth.valid))
        else:
            depths.append(view.depth)
        if noise.coord_sigma > 0:
            coords.append(CoordMap(view.coords.values + noise.coord_sigma * eps_c))
        else:
            coords.append(view.coords)
        if noise.mask_flip_rate > 0:
            flip = flips < noise.mask_flip_rate
            planes = (getattr(view.masks, part) for part in PART_NAMES)
            masks.append(
                MaskSet(*(np.where(flip[:, :, k], 1.0 - m, m) for k, m in enumerate(planes)))
            )
        else:
            masks.append(view.masks)

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
        depths=tuple(depths),
        coords=tuple(coords),
        masks=tuple(masks),
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


def ground_truth_keypoints(bundle: SceneBundle) -> list[np.ndarray]:
    """Soft-argmax decodes of the ground-truth heatmaps (loss supervision)."""
    return [soft_argmax(hm) for hm in ground_truth_heatmaps(bundle)]
