"""
Click-shift robustness of a segmenter
=====================================

An interactive segmenter should give the same lesion mask wherever the
user clicks inside the lesion. That is measured by segmenting three
shifted crops of the same lesion (one centered on the centroid, two on
randomly sampled in-lesion voxels) and taking the mean pairwise Dice
of the placed-back predictions.
"""

import numpy as np

from ulsforge import (
    GrowParams,
    SegmenterRef,
    Volume3D,
    VOICfg,
    VolumeKind,
    dice,
    extract_instances,
    generate_shifted_samples,
    label_components,
    mean_pairwise_dice,
    place_back,
    segment,
)

shape = (48, 48, 32)
rng = np.random.default_rng(7)

image = np.full(shape, -1000, dtype=np.int16)
mask = np.zeros(shape, dtype=np.uint8)
grid = np.ogrid[0:shape[0], 0:shape[1], 0:shape[2]]
blob = sum((g - c) ** 2 for g, c in zip(grid, (24, 24, 16))) <= 16
image[blob] = 100
mask[blob] = 1

ct = Volume3D(image)
gt = Volume3D(mask, kind=VolumeKind.BINARY_MASK)
instance, = extract_instances(label_components(gt, 26))
print("lesion: %d voxels, centroid click %s" % (instance.size_vox, instance.center.pos))

# one centered crop plus two sampled-click crops, deterministic in the seed
cfg = VOICfg(size=(32, 32, 16))
samples = generate_shifted_samples(ct, gt, instance, cfg, seed_root=2024)
for s in samples:
    print("  %s click %s -> offset %s"
          % (s.click.origin, s.click.pos, s.offset))

# segment each shifted view and place the masks back into the scan frame
params = GrowParams(hu_window=(50, 150))
placed = []
for s in samples:
    result = segment(s.image, s.local_click, SegmenterRef.builtin(params))
    placed.append(place_back(result.mask, shape, s.offset))

print("\npairwise Dice:")
print("  normal vs aug1: %.4f" % dice(placed[0], placed[1]))
print("  normal vs aug2: %.4f" % dice(placed[0], placed[2]))
print("  aug1   vs aug2: %.4f" % dice(placed[1], placed[2]))
print("robustness score: %.4f" % mean_pairwise_dice(placed))
print("centered-click Dice vs ground truth: %.4f" % dice(placed[0], gt))

# the region grower is translation-equivariant, so interior lesions
# score exactly 1.0; a model sensitive to the crop placement would not
