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
from .volume import Volume3D, VolumeKind, _nonzero_spans

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

    ``mask`` is a read-only boolean array over the lesion's bounding box,
    x fastest; ``bbox`` corners are inclusive, and ``bbox[0]`` is the
    global index of ``mask[0, 0, 0]``.
    """

    label: int
    mask: np.ndarray = field(repr=False)
    bbox: tuple[tuple[int, int, int], tuple[int, int, int]]
    size_vox: int
    center: ClickPoint

    @property
    def voxels(self) -> np.ndarray:
        """The lesion's (n, 3) int64 global indices, sorted lexicographically by (x, y, z)."""
        return np.argwhere(self.mask) + np.array(self.bbox[0], dtype=np.int64)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in CONNECTIVITIES:
        raise ValueError("connectivity must be one of %s, got %r" % (CONNECTIVITIES, connectivity))
    return ndimage.generate_binary_structure(3, _STRUCT_RANK[connectivity])


def _foreground_box(data: np.ndarray) -> tuple[slice, slice, slice]:
    """The smallest box that holds every nonzero voxel; the whole array if none is."""
    return tuple(slice(s[0], s[-1] + 1) if s.size else slice(0, None) for s in _nonzero_spans(data))


def label_components(mask: Volume3D, connectivity: int = 26) -> Volume3D:
    """Label connected foreground components of a binary mask.

    Voxels share an id iff connected under ``connectivity`` (6, 18, or
    26); background stays 0. Ids run 1..C in first-encounter order of
    the x-fastest scan. No id exceeds the count of foreground voxels, so
    the ids are int16 when fewer than 2**15 voxels are foreground, int32
    otherwise.
    """
    if mask.kind is not VolumeKind.BINARY_MASK:
        raise WrongKindError("label_components expects a binary mask, got %s" % mask.kind.value)
    ids = np.int16 if np.count_nonzero(mask.data) < 2 ** 15 else np.int32
    # scipy numbers components in its C-order scan; on the [z, y, x]
    # transpose that scan is the x-fastest scan of our [x, y, z] array.
    raw, _ = ndimage.label(np.ascontiguousarray(mask.data.T), structure=_structure(connectivity),
                           output=ids)
    raw.setflags(write=False)  # read-only: with_data keeps it without a copy
    return mask.with_data(raw.T, VolumeKind.LABELED_MASK)


def extract_instances(labeled: Volume3D) -> list[LesionInstance]:
    """One LesionInstance per distinct positive id, sorted by id.

    Ids past the voxel count are renumbered 1..C first, since
    ``find_objects`` keeps a slot per id up to the largest.
    """
    if labeled.kind is not VolumeKind.LABELED_MASK:
        raise WrongKindError("extract_instances expects a labeled mask, got %s" % labeled.kind.value)
    data = labeled.data
    ids = range(int(data.max()) + 1)  # label_components' ids 1..C index themselves
    if ids[-1] > data.size:
        ids = np.union1d(0, data)  # sorted, 0 first: each id's rank is its new label
        data = np.searchsorted(ids, data)
    return [_instance_from_box(int(ids[i]), data[box] == i, tuple(b.start for b in box))
            for i, box in enumerate(ndimage.find_objects(data, max_label=len(ids) - 1), 1)
            if box is not None]


def _instance_from_box(comp_id: int, mask: np.ndarray, lo: tuple[int, ...]) -> LesionInstance:
    """The instance of ``mask``'s true voxels; ``mask[0, 0, 0]`` is global ``lo``.

    The mask is trimmed to the lesion's bounding box. The centroid is the
    exact integer sum of the coordinates, from the per-axis projections,
    divided once: ``voxels.mean(axis=0)`` bit for bit.
    """
    xy = np.count_nonzero(mask, axis=2)
    counts = [xy.sum(axis=1), xy.sum(axis=0), np.count_nonzero(mask, axis=(0, 1))]
    n = int(counts[2].sum())
    centroid = np.array([np.dot(np.arange(c.size) + l, c) for c, l in zip(counts, lo)], np.float64) / n
    spans = [np.flatnonzero(c) + l for c, l in zip(counts, lo)]  # the global indices that hold voxels
    bbox = tuple(tuple(int(s[end]) for s in spans) for end in (0, -1))
    mask = np.require(mask[tuple(slice(a - l, b - l + 1) for a, b, l in zip(*bbox, lo))],
                      dtype=bool, requirements="FO")  # a copy: no view keeps a larger box
    mask.setflags(write=False)
    pos = tuple(int(v) for v in np.floor(centroid + 0.5))  # round half up, per axis: inside the bbox
    instance = LesionInstance(label=comp_id, mask=mask, bbox=bbox, size_vox=n,
                              center=ClickPoint(pos=pos, origin=CENTROID))
    if not mask[tuple(p - l for p, l in zip(pos, bbox[0]))]:
        # snap to the in-mask voxel nearest the continuous centroid, in global
        # coordinates; voxels are lexicographically sorted, so the first minimum wins ties
        voxels = instance.voxels
        d2 = ((voxels - centroid) ** 2).sum(axis=1)
        instance.center = ClickPoint(pos=tuple(int(v) for v in voxels[int(np.argmin(d2))]), origin=CENTROID)
    return instance
