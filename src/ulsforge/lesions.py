"""Lesion instances: 3-D connected components and center click-points.

Component ids are assigned in first-encounter order under the x-fastest
raster scan (x varies fastest, then y, then z), matching the on-disk
voxel order, so labeling is deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import WrongKindError
from .volume import Volume3D, VolumeKind

CONNECTIVITIES = (6, 18, 26)

# scipy's generate_binary_structure rank for each voxel neighborhood
_STRUCT_RANK = {6: 1, 18: 2, 26: 3}

CENTROID = "centroid"
SAMPLED = "sampled"


@dataclass(frozen=True)
class ClickPoint:
    """A voxel index designating a lesion, with its provenance."""

    pos: tuple[int, int, int]
    origin: str = CENTROID  # CENTROID or SAMPLED
    seed_root: int | None = None
    draw_index: int | None = None


@dataclass(eq=False)
class LesionInstance:
    """One connected lesion extracted from a labeled mask.

    ``voxels`` is an (n, 3) int array sorted lexicographically by
    (x, y, z); ``bbox`` corners are inclusive.
    """

    label: int
    voxels: np.ndarray = field(repr=False)
    bbox: tuple[tuple[int, int, int], tuple[int, int, int]]
    size_vox: int
    center: ClickPoint


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in CONNECTIVITIES:
        raise ValueError("connectivity must be one of %s, got %r" % (CONNECTIVITIES, connectivity))
    return ndimage.generate_binary_structure(3, _STRUCT_RANK[connectivity])


def _foreground_box(data: np.ndarray) -> tuple[slice, slice, slice]:
    """The smallest box that holds every nonzero voxel; the whole array if none is."""
    xy = data.any(axis=2)  # two passes over the volume: x and y spans from here, z below
    spans = [np.flatnonzero(xy.any(axis=1)), np.flatnonzero(xy.any(axis=0)),
             np.flatnonzero(data.any(axis=(0, 1)))]
    return tuple(slice(s[0], s[-1] + 1) if s.size else slice(0, None) for s in spans)


def label_components(mask: Volume3D, connectivity: int = 26) -> Volume3D:
    """Label connected foreground components of a binary mask.

    Voxels share an id iff connected under ``connectivity`` (6, 18, or
    26); background stays 0. Ids run 1..C in first-encounter order of
    the x-fastest scan.
    """
    if mask.kind is not VolumeKind.BINARY_MASK:
        raise WrongKindError("label_components expects a binary mask, got %s" % mask.kind.value)
    # scipy numbers components in its C-order scan; on the [z, y, x]
    # transpose that scan is the x-fastest scan of our [x, y, z] array.
    raw, _ = ndimage.label(np.ascontiguousarray(mask.data.T), structure=_structure(connectivity))
    raw.setflags(write=False)  # read-only: with_data keeps it without a copy
    return mask.with_data(raw.T, VolumeKind.LABELED_MASK)


def extract_instances(labeled: Volume3D) -> list[LesionInstance]:
    """One LesionInstance per distinct positive id, sorted by id."""
    if labeled.kind is not VolumeKind.LABELED_MASK:
        raise WrongKindError("extract_instances expects a labeled mask, got %s" % labeled.kind.value)
    ids = np.unique(labeled.data)
    instances = []
    for comp_id in (int(i) for i in ids if i > 0):
        voxels = np.argwhere(labeled.data == comp_id)  # C-order -> lexicographic (x, y, z)
        instances.append(_instance_from_voxels(comp_id, voxels))
    return instances


def _instance_from_voxels(comp_id: int, voxels: np.ndarray) -> LesionInstance:
    lo = tuple(int(v) for v in voxels.min(axis=0))
    hi = tuple(int(v) for v in voxels.max(axis=0))
    voxels = np.ascontiguousarray(voxels)
    voxels.setflags(write=False)
    return LesionInstance(
        label=comp_id,
        voxels=voxels,
        bbox=(lo, hi),
        size_vox=int(voxels.shape[0]),
        center=_center_from_voxels(voxels),
    )


def _center_from_voxels(voxels: np.ndarray) -> ClickPoint:
    centroid = voxels.mean(axis=0)
    rounded = np.floor(centroid + 0.5).astype(np.int64)  # round half up, per axis
    pos = tuple(int(v) for v in rounded)
    if not np.logical_and.reduce([voxels[:, a] == rounded[a] for a in range(3)]).any():  # by axis
        # snap to the in-mask voxel nearest the continuous centroid;
        # voxels are lexicographically sorted, so the first minimum wins ties
        d2 = ((voxels - centroid) ** 2).sum(axis=1)
        pos = tuple(int(v) for v in voxels[int(np.argmin(d2))])
    return ClickPoint(pos=pos, origin=CENTROID)
