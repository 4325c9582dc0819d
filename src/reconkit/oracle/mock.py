"""Configurable noise-injecting mock predictor.

Stands in for the trained network: it returns the bundle's ground truth
perturbed per NoiseModel.  Each head draws from its own generator, the child
of SeedSequence([0x30C4, seed, bundle.seed]) at a fixed spawn key: (i, 0),
(i, 1) and (i, 2) for view i's depth, coords and mask flips, (n_views,) for
the relative poses and the similarity.  A head's standard draws do not depend
on the sigmas, so for a fixed seed its error is monotone in each sigma.  One
rule, _head, makes each view head: at sigma 0 the bundle's own map, drawing
nothing, else that map perturbed from its generator.  The scale is the
bundle's times exp(scale_sigma * eps) at every sigma (exactly 1 at 0).  Draws
past the float range are inf, unwarned, for the prediction's checks to judge.

A Prediction pays only for what its caller reads.  The pose block is drawn up
front; each per-view head is one LazyViews(n, build), entry i made as build(i)
on first access and kept until pop(i) hands it over: view i's depth, coords
and masks are drawn, perturbed and validated, each reading only its own
bundle rasters, and its heatmaps and keypoints synthesized and decoded.  So
`eval-pose` makes no pixel-sized draw, `eval-pointmap` draws each view's
depth and coords once, and `compose-points --view i` view i's heads only.

Heatmaps are synthesized, each in one buffer, as Gaussian bumps of
HEATMAP_SIGMA px at the true 2D keypoints (the predicted bumps widen by the
blur sigma; the ground truth's, also a LazyViews, are made per view read).
Predicted and ground-truth keypoints are both decoded from their heatmaps
with the same soft-argmax at its default temperature, so at zero noise the
coordinate loss is exactly zero while the decoding path stays exercised
under noise.  The heatmap/keypoint head draws no random numbers; view i's
keypoints decode view i's cached heatmap, so no heatmap is built twice.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..camera import CoordMap, DepthMap, check_number
from ..masks import PART_NAMES, MaskSet
from ..pnp import soft_argmax
from ..transforms import RigidTransform, Similarity, rotation_about_axis
from .bundle import SceneBundle

HEATMAP_SIGMA = 3.0  # ground-truth heatmap bump width in px


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
            check_number(f"noise parameter {name}", value, lambda v: v >= 0, "finite and >= 0")
        if self.mask_flip_rate > 1:
            raise ValueError(f"noise parameter mask_flip_rate is a probability, got {self.mask_flip_rate}")


class LazyViews(Sequence):
    """n per-view entries, entry i made as build(i) on first access and kept until `pop(i)` hands it over."""

    def __init__(self, n: int, build):
        self._n, self._build, self._made = n, build, {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        i = range(self._n)[operator.index(i)]  # an integer, not a slice; -1 is entry n - 1
        if i not in self._made:
            self._made[i] = self._build(i)
        return self._made[i]

    def pop(self, i):
        """Entry i, made now if not yet, handed over and forgotten: a later [i] makes it again."""
        self[i]
        return self._made.pop(range(self._n)[i])


@dataclass(frozen=True, eq=False)
class Prediction:
    """Everything the network head stack would emit for one scene."""

    depths: LazyViews
    coords: LazyViews
    masks: LazyViews
    heatmaps: LazyViews  # per view, H x W x N_kp Gaussian bumps
    keypoints_2d: LazyViews  # per view, (N_kp, 2) soft-argmax decodes of the heatmaps
    rel_poses: tuple  # per view, view j -> view 0 (first entry identity)
    similarity: Similarity


def synthesize_heatmaps(keypoints_2d, width, height, sigma) -> np.ndarray:
    """H x W x N_kp Gaussian bumps centered on sub-pixel keypoints."""
    kp = np.asarray(keypoints_2d, dtype=float).reshape(-1, 2)
    us = np.arange(width, dtype=float)
    vs = np.arange(height, dtype=float)
    du2 = (us[None, :] - kp[:, 0][:, None]) ** 2  # (N, W)
    dv2 = (vs[None, :] - kp[:, 1][:, None]) ** 2  # (N, H)
    hm = np.add(dv2[:, :, None], du2[:, None, :])  # (N, H, W); then negated, divided by 2 sigma^2 and exp'd in place
    np.exp(np.divide(np.negative(hm, out=hm), 2.0 * sigma * sigma, out=hm), out=hm)
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


def _heatmap(bundle, i, sigma) -> np.ndarray:
    return synthesize_heatmaps(bundle.keypoints_2d[i], bundle.spec.width, bundle.spec.height, sigma)


def _generator(entropy, key) -> np.random.Generator:
    """The generator of one head: the child of SeedSequence(entropy) at spawn key `key`."""
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))


def _head(truth, sigma, entropy, key, perturb):
    """A view head: `truth` itself at sigma 0, drawing nothing; otherwise perturb(truth, sigma, generator at `key`)."""
    if sigma == 0:
        return truth
    with np.errstate(over="ignore"):  # a draw past the float range is inf, for the map's own checks to judge
        return perturb(truth, sigma, _generator(entropy, key))


def _noisy_depth(depth, sigma, rng) -> DepthMap:
    return DepthMap(np.where(depth.valid, depth.values + sigma * rng.standard_normal(depth.values.shape), 0.0))


def _noisy_coords(coords, sigma, rng) -> CoordMap:
    return CoordMap(coords.values + sigma * rng.standard_normal(coords.values.shape))


def _flipped_masks(masks, rate, rng) -> MaskSet:
    """masks with each part plane flipped where its uniform draw is < rate."""
    flip = rng.random(masks.shape + (3,)) < rate
    planes = (getattr(masks, part) for part in PART_NAMES)
    return MaskSet(*(np.where(flip[:, :, i], 1.0 - m, m) for i, m in enumerate(planes)))


def mock_predict(bundle: SceneBundle, noise: NoiseModel, seed: int) -> Prediction:
    """Deterministic prediction set for a bundle: pure in (bundle, noise, seed)."""
    entropy = [0x30C4, int(seed), bundle.seed]
    views = bundle.views
    n = len(views)
    rng = _generator(entropy, (n,))
    rel_poses = [RigidTransform.identity()]
    with np.errstate(over="ignore"):  # as in _head: a pose or scale past the float range is inf, and refused
        for rel in bundle.rel_poses[1:]:
            rel_poses.append(_perturb_pose(rel, noise.translation_sigma, noise.rotation_sigma, rng))
        sim_rigid = _perturb_pose(bundle.similarity.rigid, noise.translation_sigma, noise.rotation_sigma, rng)
        scale = bundle.similarity.scale * float(np.exp(noise.scale_sigma * rng.standard_normal()))  # exp(±0.0) is 1.0
    similarity = Similarity(scale, sim_rigid)

    sigma = HEATMAP_SIGMA + noise.heatmap_blur  # predicted bump width in px
    # each head's builder looks its helpers up in this module when it runs, so a patched name is seen
    heatmaps = LazyViews(n, lambda i: _heatmap(bundle, i, sigma))
    return Prediction(
        depths=LazyViews(n, lambda i: _head(views[i].depth, noise.depth_sigma, entropy, (i, 0), _noisy_depth)),
        coords=LazyViews(n, lambda i: _head(views[i].coords, noise.coord_sigma, entropy, (i, 1), _noisy_coords)),
        masks=LazyViews(n, lambda i: _head(views[i].masks, noise.mask_flip_rate, entropy, (i, 2), _flipped_masks)),
        heatmaps=heatmaps,
        keypoints_2d=LazyViews(n, lambda i: soft_argmax(heatmaps[i])),
        rel_poses=tuple(rel_poses),
        similarity=similarity,
    )


def ground_truth_heatmaps(bundle: SceneBundle) -> LazyViews:
    return LazyViews(len(bundle.views), lambda i: _heatmap(bundle, i, HEATMAP_SIGMA))
