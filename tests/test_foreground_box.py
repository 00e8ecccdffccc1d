"""Isolation and the builtin grower label only their foreground's box.

No component leaves the box that holds the foreground, so both must keep
exactly the voxels that labeling the whole VOI keeps. The oracles label
the whole VOI from first principles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import whole_voi_grow_oracle, whole_voi_isolation_oracle
from synth import BACKGROUND_HU, LESION_HU
from ulsforge import GrowParams, SegmenterRef, Volume3D, VolumeKind, isolate_central_lesion, segment
from ulsforge.lesions import CONNECTIVITIES

WINDOW = (50, 150)


def check_both(mask, click, connectivity, max_voxels):
    """Isolation of ``mask`` and the grow of its image at ``click``, checked against the oracles."""
    isolated = isolate_central_lesion(Volume3D(mask, kind=VolumeKind.BINARY_MASK), click, connectivity)
    assert isolated.data.dtype == np.uint8
    assert np.array_equal(isolated.data, whole_voi_isolation_oracle(mask, click, connectivity))

    image = Volume3D(np.where(mask != 0, LESION_HU, BACKGROUND_HU).astype(np.int16))
    res = segment(image, click, SegmenterRef.builtin(GrowParams(hu_window=WINDOW, connectivity=connectivity,
                                                                max_voxels=max_voxels)))
    expected, truncated = whole_voi_grow_oracle(mask != 0, click, connectivity, max_voxels)
    assert res.truncated == truncated
    assert res.mask.data.dtype == np.uint8
    assert np.array_equal(res.mask.data, expected)


def _edge_voxels(voxels):
    """Foreground voxels on a face of the foreground's box."""
    on_edge = ((voxels == voxels.min(axis=0)) | (voxels == voxels.max(axis=0))).any(axis=1)
    return voxels[on_edge]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(1, 10)] * 3),
       rng_seed=st.integers(0, 2 ** 16), fill=st.sampled_from([0.05, 0.2, 0.4, 0.7, 1.0]),
       connectivity=st.sampled_from(CONNECTIVITIES), on_edge=st.booleans())
def test_box_labeling_equals_whole_voi_labeling(data, shape, rng_seed, fill, connectivity, on_edge):
    """Foreground filling a random sub-box, which may reach the VOI's faces;
    the click is any foreground voxel or one on the foreground box's faces."""
    lo = [data.draw(st.integers(0, n - 1)) for n in shape]
    sub = tuple(slice(l, data.draw(st.integers(l + 1, n))) for l, n in zip(lo, shape))
    mask = np.zeros(shape, dtype=np.uint8)
    mask[sub] = np.random.default_rng(rng_seed).random(mask[sub].shape) < fill
    mask[tuple(lo)] = 1
    voxels = np.argwhere(mask)
    pool = _edge_voxels(voxels) if on_edge else voxels
    click = tuple(int(v) for v in pool[data.draw(st.integers(0, len(pool) - 1))])
    check_both(mask, click, connectivity, data.draw(st.integers(1, int(mask.sum()) + 1)))


def _single_voxel(at):
    mask = np.zeros((6, 5, 4), dtype=np.uint8)
    mask[at] = 1
    return mask, at


def _touches_every_face():
    """A cross through the VOI reaching all six faces, and a blob in a corner."""
    mask = np.zeros((7, 7, 5), dtype=np.uint8)
    mask[:, 3, 2] = mask[3, :, 2] = mask[3, 3, :] = 1
    mask[0, 0, 4] = mask[1, 0, 4] = 1
    return mask, (6, 3, 2)


def _diagonal_pieces():
    """Pieces that join at 26 or 18 but not at 6, beside a separate blob."""
    mask = np.zeros((8, 8, 6), dtype=np.uint8)
    mask[2, 2, 2] = mask[3, 3, 3] = 1  # corner contact: joined at 26 only
    mask[3, 4, 2] = 1  # edge contact with (3, 3, 3): joined at 18 and 26
    mask[3, 3, 4] = 1  # face contact with (3, 3, 3): joined at 6, 18 and 26
    mask[6:8, 6:8, 4:6] = 1
    return mask, (3, 3, 3)


def _click_on_the_box_corner():
    """Two components; the click is the lowest corner of the foreground's box."""
    mask = np.zeros((9, 8, 6), dtype=np.uint8)
    mask[2:5, 1:3, 1:4] = 1
    mask[6:8, 5:8, 3:6] = 1
    return mask, (2, 1, 1)


CASES = {
    "single voxel inside": _single_voxel((3, 2, 1)),
    "single voxel in a corner": _single_voxel((5, 0, 3)),
    "touches every face": _touches_every_face(),
    "diagonal pieces": _diagonal_pieces(),
    "click on the box corner": _click_on_the_box_corner(),
}


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_box_labeling_on_fixed_scenes(case, connectivity):
    mask, click = CASES[case]
    for max_voxels in (1, 2, int(mask.sum())):
        check_both(mask, click, connectivity, max_voxels)
