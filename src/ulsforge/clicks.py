"""Deterministic in-lesion click sampling and shifted-VOI generation.

Sampled clicks simulate off-center user input: for each lesion the
crop is repeated around random in-mask voxels, yielding spatially
shifted views of the same lesion. Draws are keyed by
(seed_root, lesion_id, draw index), so any processing order or degree
of parallelism produces the same points.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rng import draw_index
from .errors import EmptyInstanceError
from .lesions import SAMPLED, ClickPoint, LesionInstance
from .voi import VOICfg, VOISample, crop_voi, isolate_central_lesion
from .volume import Volume3D

DEFAULT_AUGMENT_COUNT = 2


@dataclass(frozen=True)
class ClickPlan:
    """All click points for one lesion: the centroid plus k sampled."""

    lesion_id: str
    normal: ClickPoint
    augmented: tuple[ClickPoint, ...]
    seed_root: int
    k: int

    def all_clicks(self) -> list[ClickPoint]:
        return [self.normal, *self.augmented]

    def to_record(self) -> dict:
        return {
            "lesion_id": self.lesion_id,
            "seed_root": self.seed_root,
            "k": self.k,
            "normal": list(self.normal.pos),
            "augmented": [list(p.pos) for p in self.augmented],
        }


def sample_click_points(instance: LesionInstance, k: int, seed_root: int,
                        lesion_id: str) -> list[ClickPoint]:
    """Draw k in-lesion voxels, uniform with replacement.

    The stream is keyed by (seed_root, lesion_id, draw index); identical
    inputs give identical points on every platform.
    """
    if instance.size_vox < 1:
        raise EmptyInstanceError("cannot sample clicks from an empty instance")
    if k < 0:
        raise ValueError("k must be >= 0")
    voxels = instance.voxels if k else None  # built only when drawn from
    points = []
    for i in range(k):
        idx = draw_index(seed_root, "click:%s" % lesion_id, i, instance.size_vox)
        pos = tuple(int(v) for v in voxels[idx])
        points.append(ClickPoint(pos=pos, origin=SAMPLED, seed_root=seed_root, draw_index=i))
    return points


def build_click_plan(instance: LesionInstance, seed_root: int, lesion_id: str,
                     k: int = DEFAULT_AUGMENT_COUNT) -> ClickPlan:
    """The instance's center click followed by k sampled clicks."""
    return ClickPlan(
        lesion_id=lesion_id,
        normal=instance.center,
        augmented=tuple(sample_click_points(instance, k, seed_root, lesion_id)),
        seed_root=seed_root,
        k=k,
    )


def generate_shifted_samples(image: Volume3D, mask: Volume3D, instance: LesionInstance,
                             cfg: VOICfg, seed_root: int, k: int = DEFAULT_AUGMENT_COUNT,
                             lesion_id: str | None = None,
                             connectivity: int = 26) -> list[VOISample]:
    """Crop 1 + k shifted VOIs of one lesion: centroid first, then samples.

    Each sample's mask is reduced to the component containing its own
    local click, so every VOI carries exactly one lesion mask.
    """
    if lesion_id is None:
        lesion_id = "component-%d" % instance.label
    plan = build_click_plan(instance, seed_root, lesion_id, k=k)
    samples = []
    for click in plan.all_clicks():
        sample = crop_voi(image, mask, click, cfg)
        sample.mask = isolate_central_lesion(sample.mask, sample.local_click, connectivity)
        sample.lesion_id = lesion_id
        samples.append(sample)
    return samples
