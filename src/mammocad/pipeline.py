"""End-to-end stage wiring shared by the command-line entry points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .denoise import bm3d_denoise
from .enhance import median_filter, normalize, remove_artifacts, remove_pectoral
from .levelset import evolve, extract_mask
from .sfcm import sfcm_run, tumor_membership_map


@dataclass(frozen=True)
class PreprocessResult:
    denoised: np.ndarray
    enhanced: np.ndarray            # median + normalize + artifact removal
    final: np.ndarray               # after pectoral removal
    pectoral: np.ndarray


@dataclass(frozen=True)
class SegmentationResult:
    preprocess: PreprocessResult
    membership: np.ndarray          # tumor membership map
    phi: np.ndarray
    mask: np.ndarray
    sfcm_iterations: int
    levelset_iterations: int


def preprocess_image(image, config: PipelineConfig) -> PreprocessResult:
    denoised = bm3d_denoise(image, config.pipeline.sigma)
    filtered = median_filter(denoised, config.enhance.median_window)
    normalized = normalize(filtered, config.enhance.r1, config.enhance.r2)
    cleaned = remove_artifacts(normalized)
    final, pectoral = remove_pectoral(cleaned, config.enhance)
    return PreprocessResult(denoised=denoised, enhanced=cleaned,
                            final=final, pectoral=pectoral)


def segment_image(image, config: PipelineConfig) -> SegmentationResult:
    pre = preprocess_image(image, config)
    memberships, centers, sfcm_iters = sfcm_run(pre.final, config.sfcm)
    r_k = tumor_membership_map(memberships, centers, pre.final.shape)
    phi, ls_iters = evolve(r_k, pre.final, config.levelset)
    return SegmentationResult(
        preprocess=pre, membership=r_k, phi=phi, mask=extract_mask(phi),
        sfcm_iterations=sfcm_iters, levelset_iterations=ls_iters)
