"""Fixed-size volume-of-interest cropping around click points.

The window along each axis is [c - s/2, c - s/2 + s) in global voxel
indices, where c is the click coordinate and s the (even) VOI size, so
the click always lands at local index s/2. Out-of-bounds voxels are
filled with the configured image pad value, or 0 in a mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClickNotOnMaskError, ClickOutOfVolumeError, DimsMismatchError
from .lesions import ClickPoint, _foreground_box, label_components
from .volume import Volume3D, VolumeKind, _check_pad, _overlap

DEFAULT_VOI_SIZE = (128, 128, 64)


@dataclass(frozen=True)
class VOICfg:
    """Crop geometry and the image's padding intensity.

    The image pad default is -1024 HU (air). Literal zero-padding is
    available by configuring ``pad_value_image=0``; whichever is used
    is recorded in run metadata. A mask always pads with 0.
    """

    size: tuple[int, int, int] = DEFAULT_VOI_SIZE
    pad_value_image: int = -1024

    def __post_init__(self):
        if len(self.size) != 3 or any(s < 2 or s % 2 for s in self.size):
            raise ValueError("VOI size components must be even and >= 2, got %s" % (self.size,))


@dataclass(eq=False)
class VOISample:
    """A cropped image/mask pair with its placement in the global frame."""

    image: Volume3D
    mask: Volume3D | None  # None when only the image was cropped
    offset: tuple[int, int, int]
    click: ClickPoint  # global coordinates
    lesion_id: str = ""

    def __post_init__(self):
        if self.mask is not None and self.image.dims != self.mask.dims:
            raise DimsMismatchError("VOI image dims %s != mask dims %s" % (self.image.dims, self.mask.dims))
        local = self.local_click
        if any(l < 0 or l >= s for l, s in zip(local, self.image.dims)):
            raise ClickOutOfVolumeError("click %s maps outside the VOI (offset %s, size %s)"
                                        % (self.click.pos, self.offset, self.image.dims))

    @property
    def local_click(self) -> tuple[int, int, int]:
        return tuple(int(c - o) for c, o in zip(self.click.pos, self.offset))


def _window_offset(click: ClickPoint, size: tuple[int, int, int]) -> tuple[int, int, int]:
    """The global index of the (0, 0, 0) corner of the click's window: c - s/2 per axis."""
    return tuple(int(c - s // 2) for c, s in zip(click.pos, size))


def _crop(data: np.ndarray, offset: tuple[int, ...], size: tuple[int, ...], pad: int) -> np.ndarray:
    """The window [offset, offset + size) of ``data``, padded with ``pad``,
    laid out in memory as ``data`` is, so the copy reads it in order; x
    fastest where ``data`` has at most one axis longer than 1, for either
    layout holds it. A pad that the dtype cannot hold raises PadValueError."""
    glob, local = _overlap(data.shape, offset, size)
    _check_pad(pad, data.dtype)
    strides = [st for st, n in zip(data.strides, data.shape) if n > 1]  # it may be one voxel thin
    order = "C" if len(strides) > 1 and strides[0] > strides[-1] else "F"
    out = np.full(size, pad, dtype=data.dtype, order=order)
    out[local] = data[glob]
    out.setflags(write=False)  # read-only: Volume3D keeps it without a copy
    return out


def crop_voi(image: Volume3D, mask: Volume3D | None, click: ClickPoint,
             cfg: VOICfg = VOICfg()) -> VOISample:
    """Crop a click-centered VOI from an image/mask pair.

    The offset (global index of the VOI's (0,0,0) corner) is
    c - s/2 per axis and may be negative; padded voxels take
    ``cfg.pad_value_image`` in the image and 0 in the mask. Without a
    mask only the image is cropped and the sample's mask is None.
    """
    if mask is not None and image.dims != mask.dims:
        raise DimsMismatchError("image dims %s != mask dims %s" % (image.dims, mask.dims))
    if any(c < 0 or c >= n for c, n in zip(click.pos, image.dims)):
        raise ClickOutOfVolumeError("click %s outside volume dims %s" % (click.pos, image.dims))
    offset = _window_offset(click, cfg.size)
    return VOISample(
        image=Volume3D(_crop(image.data, offset, cfg.size, cfg.pad_value_image),
                       spacing=image.spacing, kind=VolumeKind.INTENSITY),
        mask=None if mask is None else Volume3D(
            _crop(mask.data, offset, cfg.size, 0),
            spacing=mask.spacing, kind=VolumeKind.BINARY_MASK),
        offset=offset,
        click=click,
    )


def isolate_central_lesion(voi_mask: Volume3D, local_click: tuple[int, int, int],
                           connectivity: int = 26) -> Volume3D:
    """Keep only the connected component containing ``local_click``.

    Leaves one lesion mask per crop: every other foreground voxel is
    zeroed. Only the box that holds the VOI's foreground is labeled; no
    component leaves that box, so the clicked one is the same voxels as
    in the whole VOI. A background click raises ClickNotOnMaskError.
    """
    if any(c < 0 or c >= n for c, n in zip(local_click, voi_mask.dims)):
        raise ClickOutOfVolumeError("local click %s outside VOI dims %s" % (local_click, voi_mask.dims))
    if voi_mask.data[tuple(local_click)] == 0:
        raise ClickNotOnMaskError("click %s is background" % (local_click,))
    out = np.zeros(voi_mask.dims, dtype=np.uint8)
    box = _foreground_box(voi_mask.data)
    labeled = label_components(voi_mask.with_data(voi_mask.data[box]), connectivity).data
    out[box] = labeled == labeled[tuple(c - b.start for c, b in zip(local_click, box))]
    out.setflags(write=False)  # read-only: with_data keeps it without a copy
    return voi_mask.with_data(out, VolumeKind.BINARY_MASK)


def place_back(voi_mask: Volume3D, global_dims: tuple[int, int, int],
               offset: tuple[int, int, int]) -> Volume3D:
    """Embed a VOI-space mask into a zero global-dims mask.

    Voxels land at global index = local index + offset; anything
    falling outside the global bounds is discarded.
    """
    out = np.zeros(global_dims, dtype=voi_mask.data.dtype)
    glob, local = _overlap(global_dims, offset, voi_mask.dims)
    out[glob] = voi_mask.data[local]
    return Volume3D(out, spacing=voi_mask.spacing, kind=voi_mask.kind)
