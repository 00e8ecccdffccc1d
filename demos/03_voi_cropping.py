"""
Click-centered volumes of interest
==================================

Segmenters see a fixed-size crop around the click. The window along
each axis is [c - s/2, c - s/2 + s), so the click lands at local index
s/2; windows reaching outside the scan are padded (air for the image,
background for the mask). Predictions made inside a VOI are scored
where place_back puts them in the global frame.
"""

import numpy as np

from ulsforge import (
    ClickPoint,
    Volume3D,
    VOICfg,
    VolumeKind,
    crop_voi,
    isolate_central_lesion,
    place_back,
)

shape = (40, 40, 20)
image = np.full(shape, -1000, dtype=np.int16)
mask = np.zeros(shape, dtype=np.uint8)
image[6:10, 6:10, 8:12] = 80     # lesion A
mask[6:10, 6:10, 8:12] = 1
image[30:34, 30:34, 8:12] = 80   # unrelated lesion B
mask[30:34, 30:34, 8:12] = 1
ct = Volume3D(image)
gt = Volume3D(mask, kind=VolumeKind.BINARY_MASK)

cfg = VOICfg(size=(16, 16, 8))
print("VOI geometry:", cfg.size, "image pad", cfg.pad_value_image, "HU")

# an interior click: window fits, offset is the window's global corner
click = ClickPoint((8, 8, 10))
sample = crop_voi(ct, gt, click, cfg)
print("\ninterior click %s -> offset %s, local click %s"
      % (click.pos, sample.offset, sample.local_click))
print("  lesion voxels in crop:", int(sample.mask.data.sum()))

# a click at the scan corner: the window sticks out and gets padded
corner = ClickPoint((0, 0, 0))
padded = crop_voi(ct, gt, corner, cfg)
n_pad = int((padded.image.data == cfg.pad_value_image).sum())
print("corner click %s -> offset %s, %d padded voxels"
      % (corner.pos, padded.offset, n_pad))

# crops can catch bystander lesions; isolation keeps only the clicked one
wide = crop_voi(ct, gt, ClickPoint((19, 19, 10)), VOICfg(size=(40, 40, 10)))
before = int(wide.mask.data.sum())
isolated = isolate_central_lesion(wide.mask, (8, 8, 4), 26)
print("\nwide crop mask: %d voxels before isolation, %d after"
      % (before, int(isolated.data.sum())))

# place-back is the crop's inverse on the in-bounds region
restored = place_back(sample.mask, shape, sample.offset)
inside_window = mask.copy()
assert np.array_equal(restored.data[6:10, 6:10, 8:12],
                      inside_window[6:10, 6:10, 8:12])
print("place_back restored the lesion at its global position:",
      bool(restored.data[7, 7, 9]))
