import inspect
import os
import signal
import time
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from adapters import (
    ALWAYS_FAIL,
    BAD_VALUES,
    CLICK_DOT,
    COPY_IMAGE_ASIDE,
    COPY_MASK,
    FORKS_SLEEPER,
    LOUD_COPY_MASK,
    SLEEPER,
    WRONG_DIMS,
    write_adapter,
)
from oracles import bfs_grow_oracle, component_voxel_sets, oracle_offsets, whole_voi_grow_oracle
from synth import BACKGROUND_HU, LESION_HU, ball
from ulsforge import (
    ClickPoint,
    GrowParams,
    SegmenterRef,
    VOICfg,
    Volume3D,
    VolumeKind,
    crop_voi,
    read_volume,
    segment,
    write_volume,
)
from ulsforge.errors import (
    BadMaskDimsError,
    BadMaskValuesError,
    ClickOutOfVolumeError,
    ProcessFailedError,
    SegmenterTimeoutError,
)
from ulsforge.lesions import CONNECTIVITIES
from ulsforge import segmenter
from ulsforge.segmenter import _BFS_BATCH, _FIRST_HALF_WIDTH, _grow_bfs, _neighbor_offsets, segment_box

WINDOW = (50, 150)


def lesion_image(shape=(16, 16, 16), center=(8, 8, 8), radius=3):
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    blob = ball(shape, center, radius)
    image[blob] = LESION_HU
    return Volume3D(image), blob


def test_grow_recovers_exact_component():
    image, blob = lesion_image()
    res = segment(image, (8, 8, 8), SegmenterRef.builtin(GrowParams(hu_window=WINDOW)))
    assert not res.truncated
    grown = {tuple(v) for v in np.argwhere(res.mask.data).tolist()}
    expected = next(s for s in component_voxel_sets(blob, 26) if (8, 8, 8) in s)
    assert grown == expected


def test_grow_respects_connectivity():
    image_arr = np.full((8, 8, 8), BACKGROUND_HU, dtype=np.int16)
    image_arr[2, 2, 2] = LESION_HU
    image_arr[3, 3, 3] = LESION_HU  # corner contact only
    image = Volume3D(image_arr)
    r26 = segment(image, (2, 2, 2), SegmenterRef.builtin(GrowParams(hu_window=WINDOW, connectivity=26)))
    r6 = segment(image, (2, 2, 2), SegmenterRef.builtin(GrowParams(hu_window=WINDOW, connectivity=6)))
    assert int(r26.mask.data.sum()) == 2
    assert int(r6.mask.data.sum()) == 1


def test_background_seed_yields_empty_mask():
    image, _ = lesion_image()
    res = segment(image, (0, 0, 0), SegmenterRef.builtin(GrowParams(hu_window=WINDOW)))
    assert not res.mask.data.any()
    assert not res.truncated
    with pytest.raises(ClickOutOfVolumeError):
        segment(image, (99, 0, 0), SegmenterRef.builtin(GrowParams(hu_window=WINDOW)))


def test_the_hu_window_bounds_are_inclusive():
    """A seed exactly at either bound grows, and voxels exactly at either bound are kept."""
    data = np.full((10, 8, 8), BACKGROUND_HU, dtype=np.int16)
    data[2:5, 2:5, 2:5] = WINDOW[0]
    data[5:7, 2:5, 2:5] = WINDOW[1]
    expected = (data != BACKGROUND_HU).astype(np.uint8)
    ref = SegmenterRef.builtin(GrowParams(hu_window=WINDOW))
    for seed in ((3, 3, 3), (6, 3, 3)):  # at the low bound, at the high bound
        assert np.array_equal(segment(Volume3D(data), seed, ref).mask.data, expected)


def test_truncation_cap_is_deterministic():
    image_arr = np.full((8, 8, 8), BACKGROUND_HU, dtype=np.int16)
    image_arr[2:5, 2:5, 2:5] = LESION_HU  # 27 voxels
    image = Volume3D(image_arr)
    params = GrowParams(hu_window=WINDOW, max_voxels=8)
    res = segment(image, (3, 3, 3), SegmenterRef.builtin(params))
    assert res.truncated
    assert int(res.mask.data.sum()) == 8
    again = segment(image, (3, 3, 3), SegmenterRef.builtin(params))
    assert np.array_equal(res.mask.data, again.mask.data)


def test_truncation_follows_lexicographic_bfs_order():
    # row of 3 lesion voxels, cap 2: BFS visits (-1,0,0) before (+1,0,0)
    image_arr = np.full((9, 3, 3), BACKGROUND_HU, dtype=np.int16)
    image_arr[4:7, 1, 1] = LESION_HU
    image = Volume3D(image_arr)
    res = segment(image, (5, 1, 1), SegmenterRef.builtin(GrowParams(hu_window=WINDOW, max_voxels=2)))
    kept = {tuple(v) for v in np.argwhere(res.mask.data).tolist()}
    assert kept == {(4, 1, 1), (5, 1, 1)}


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_grow_neighbourhood_is_the_labeling_neighbourhood(connectivity):
    # the truncated BFS visits exactly the labeling's neighbours, lexicographically
    assert _neighbor_offsets(connectivity) == sorted(oracle_offsets(connectivity))


def grow_both(in_window, seed, connectivity, max_voxels):
    """The grower's and the deque oracle's truncated grow, checked equal."""
    grown = _grow_bfs(in_window, seed, GrowParams(connectivity=connectivity,
                                                  max_voxels=max_voxels))
    expected = bfs_grow_oracle(in_window, seed, connectivity, max_voxels)
    assert grown.dtype == np.uint8 and grown.shape == in_window.shape
    assert np.array_equal(grown, expected)
    return grown


def random_window(shape, fill, rng_seed):
    return np.random.default_rng(rng_seed).random(shape) < fill


def structure(connectivity):
    return ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])


def seed_component(in_window, seed, connectivity):
    labeled, _ = ndimage.label(in_window, structure(connectivity))
    return labeled == labeled[seed]


def serpentine(shape=(9, 9, 3)):
    """A one-voxel-wide path: rows along x joined at alternating ends, in one z slice."""
    path = np.zeros(shape, dtype=bool)
    nx, ny, _ = shape
    for y in range(0, ny, 2):
        path[:, y, 1] = True
        if y + 1 < ny:
            path[nx - 1 if y % 4 == 0 else 0, y + 1, 1] = True
    return path


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
@pytest.mark.parametrize("shape, fill, seed, max_voxels", [
    ((40, 40, 40), 0.9, (20, 20, 20), 1500),
    ((40, 12, 10), 0.6, (20, 6, 5), 4800),
    ((24, 20, 16), 1.0, (11, 10, 8), 2000),
    ((10, 9, 8), 1.0, (0, 0, 0), 720),
])
def test_truncated_grow_equals_the_deque_oracle(connectivity, shape, fill, seed, max_voxels):
    in_window = random_window(shape, fill, rng_seed=sum(shape))
    in_window[seed] = True
    grown = grow_both(in_window, seed, connectivity, max_voxels)
    assert grown.sum() <= max_voxels


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
def test_truncated_grow_from_each_face_and_a_corner(connectivity):
    shape = (10, 9, 8)
    in_window = random_window(shape, 0.9, rng_seed=connectivity)
    seeds = [(0, 4, 4), (9, 4, 4), (5, 0, 4), (5, 8, 4), (5, 4, 0), (5, 4, 7), (9, 8, 7)]
    for seed in seeds:
        in_window[seed] = True
    for seed in seeds:
        grow_both(in_window, seed, connectivity, max_voxels=300)
        grow_both(in_window, seed, connectivity, max_voxels=in_window.size)


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
def test_truncated_grow_cuts_a_layer_in_its_discovery_order(connectivity):
    in_window = np.ones((12, 11, 10), dtype=bool)
    seed = (6, 5, 5)
    reached = np.zeros_like(in_window)
    reached[seed] = True
    sizes = [1]
    for _ in range(2):
        reached = ndimage.binary_dilation(reached, structure(connectivity)) & in_window
        sizes.append(int(reached.sum()))
    cap = (sizes[1] + sizes[2]) // 2
    assert sizes[1] < cap < sizes[2]  # the cap lands inside the second layer
    grown = grow_both(in_window, seed, connectivity, cap)
    assert int(grown.sum()) == cap
    assert np.argwhere(grow_both(in_window, seed, connectivity, 1)).tolist() == [list(seed)]


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
@pytest.mark.parametrize("layer", [3, 5, 7])
@pytest.mark.parametrize("fill, seed", [(1.0, (10, 9, 8)), (0.97, (6, 12, 5))])
def test_truncated_grow_of_a_dense_blob_cuts_inside_a_layer(connectivity, layer, fill, seed):
    """A filled ball: most of a layer's candidates repeat a voxel that another
    parent found first, and the cap falls inside the layer, at seeded points."""
    shape = (21, 19, 17)
    in_window = ball(shape, (10, 9, 8), 8) & random_window(shape, fill, rng_seed=layer)
    in_window[seed] = True
    before = reached = np.zeros_like(in_window)
    reached[seed] = True
    for _ in range(layer - 1):  # reached: the voxels up to the layer before
        before, reached = reached, ndimage.binary_dilation(reached, structure(connectivity)) & in_window
    new = ndimage.binary_dilation(reached, structure(connectivity)) & in_window & ~reached
    frontier = reached & ~before
    hits = ndimage.correlate(frontier.astype(int), structure(connectivity).astype(int),
                             mode="constant")[new]  # each new voxel's parents
    assert new.any() and hits.sum() > 2 * new.sum()  # most candidates are repeats
    rng = np.random.default_rng(layer * connectivity)
    for cut in sorted(rng.integers(1, int(new.sum()), size=3)):
        grow_both(in_window, seed, connectivity, int(reached.sum()) + int(cut))


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
def test_cap_equal_to_the_component_is_not_truncated(connectivity):
    in_window = random_window((14, 12, 10), 0.6, rng_seed=connectivity)
    seed = (7, 6, 5)
    in_window[seed] = True
    image = Volume3D(np.where(in_window, LESION_HU, BACKGROUND_HU).astype(np.int16))
    component = seed_component(in_window, seed, connectivity)
    size = int(component.sum())
    exact = segment(image, seed, SegmenterRef.builtin(GrowParams(hu_window=WINDOW,
                                                                 connectivity=connectivity,
                                                                 max_voxels=size)))
    assert not exact.truncated
    assert np.array_equal(exact.mask.data, component)
    assert np.array_equal(grow_both(in_window, seed, connectivity, size), component)
    if size > 1:
        cut = segment(image, seed, SegmenterRef.builtin(GrowParams(hu_window=WINDOW,
                                                                   connectivity=connectivity,
                                                                   max_voxels=size - 1)))
        assert cut.truncated
        assert np.array_equal(cut.mask.data,
                              bfs_grow_oracle(in_window, seed, connectivity, size - 1))


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
def test_truncated_grow_along_a_serpentine_path(connectivity):
    path = serpentine()
    length = int(path.sum())
    for seed, cap in [((0, 0, 1), length), ((4, 4, 1), length), ((4, 4, 1), 11),
                      ((8, 8, 1), 2)]:
        grown = grow_both(path, seed, connectivity, cap)
        assert int(grown.sum()) == cap


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(1, 12)] * 3),
       rng_seed=st.integers(0, 2 ** 16), fill=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
       connectivity=st.sampled_from(CONNECTIVITIES))
def test_truncated_grow_property(data, shape, rng_seed, fill, connectivity):
    """Any window, seed and cap: the grow is the deque's; uncapped, it is the component."""
    in_window = random_window(shape, fill, rng_seed)
    seed = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    in_window[seed] = True
    grow_both(in_window, seed, connectivity, data.draw(st.integers(1, in_window.size)))

    component = seed_component(in_window, seed, connectivity)
    assert np.array_equal(grow_both(in_window, seed, connectivity, in_window.size), component)
    image = Volume3D(np.where(in_window, LESION_HU, BACKGROUND_HU).astype(np.int16))
    res = segment(image, seed, SegmenterRef.builtin(GrowParams(hu_window=WINDOW,
                                                               connectivity=connectivity,
                                                               max_voxels=in_window.size)))
    assert not res.truncated
    assert np.array_equal(res.mask.data, component)


@pytest.mark.parametrize("connectivity", CONNECTIVITIES)
def test_a_truncated_grow_cut_in_any_batch_of_a_layer_is_the_deques(connectivity, monkeypatch):
    """Parents expanded five at a time: every cap inside the third layer
    falls at some point of some batch, most of them past its first."""
    monkeypatch.setattr(segmenter, "_BFS_BATCH", 5)
    in_window = random_window((13, 12, 11), 0.9, rng_seed=connectivity)
    seed = (6, 6, 5)
    in_window[seed] = True
    reached, sizes = np.zeros_like(in_window), []
    reached[seed] = True
    for _ in range(3):
        reached = ndimage.binary_dilation(reached, structure(connectivity)) & in_window
        sizes.append(int(reached.sum()))
    assert sizes[1] - sizes[0] > 3 * 5  # the third layer's parents fill more than three batches
    for cap in range(sizes[1] + 1, sizes[2] + 1):
        assert int(grow_both(in_window, seed, connectivity, cap).sum()) == cap


def test_a_truncated_grow_whose_layers_exceed_one_batch_is_the_deques():
    """At the real batch size: a filled block whose eighth layer has more
    parents than one batch holds, cut near that layer's end."""
    in_window = np.ones((21, 21, 21), dtype=bool)
    seed = (10, 10, 10)
    assert 15 ** 3 - 13 ** 3 > _BFS_BATCH  # the voxels of layer 7, the parents of layer 8
    grow_both(in_window, seed, 26, 17 ** 3 - 10)


def oversized_voi(shape=(128, 128, 64), radii=(66, 36, 13)):
    """An in-window elliptic cylinder wider than its VOI, centered in it, as
    the benchmark's oversized lesion: (image, its in-window voxels)."""
    center = tuple(n // 2 for n in shape)
    x, y, z = np.ogrid[tuple(slice(0, n) for n in shape)]
    cylinder = ((((x - center[0]) / radii[0]) ** 2 + ((y - center[1]) / radii[1]) ** 2 <= 1)
                & (abs(z - center[2]) <= radii[2]))
    return Volume3D(np.where(cylinder, LESION_HU, BACKGROUND_HU).astype(np.int16)), cylinder


def test_a_truncated_grow_walks_only_its_components_box(monkeypatch):
    """The breadth-first walk gets the component cut to its own box, not
    the in-window voxels of the whole VOI its labeling widened to."""
    image, cylinder = oversized_voi()
    walked = []
    grow = segmenter._grow_bfs

    def spy(in_window, seed, params):
        walked.append(in_window.shape)
        return grow(in_window, seed, params)

    monkeypatch.setattr(segmenter, "_grow_bfs", spy)
    res = segment_box(image, tuple(n // 2 for n in image.dims),
                      SegmenterRef.builtin(GrowParams(hu_window=WINDOW, max_voxels=163840)))
    component_box = tuple(int(n) for n in np.ptp(np.argwhere(cylinder), axis=0) + 1)
    assert res.truncated and int(res.mask.data.sum()) == 163840
    assert len(walked) == 1 and all(w <= c for w, c in zip(walked[0], component_box)), walked


def test_a_truncated_grow_peaks_below_half_the_whole_voi_walk():
    """One truncated grow of a 200k-voxel lesion in a 128x128x64 VOI peaks
    below 4 MB under tracemalloc; walking the whole VOI at once took 8.1 MB."""
    image, _ = oversized_voi()
    center = tuple(n // 2 for n in image.dims)
    ref = SegmenterRef.builtin(GrowParams(hu_window=WINDOW, max_voxels=163840))
    tracemalloc.start()
    try:
        res = segment_box(image, center, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    assert res.truncated and int(res.mask.data.sum()) == 163840


def test_a_truncated_grow_that_widens_to_a_large_voi_holds_one_array_of_it():
    """A radius-42 ball centred in a 256x256x128 int16 VOI widens the grow's
    box to the whole VOI. The window is thresholded a z-slice at a time into
    one 8.4 MB array, which is cut to the in-window voxels' box before
    labeling: one truncated grow peaks below 10 MB under tracemalloc, where
    two arrays of the VOI took 16.9 MB."""
    shape = (256, 256, 128)
    center = tuple(n // 2 for n in shape)
    image = Volume3D(np.where(ball(shape, center, 42), LESION_HU, BACKGROUND_HU).astype(np.int16))
    ref = SegmenterRef.builtin(GrowParams(hu_window=WINDOW))
    tracemalloc.start()
    try:
        res = segment_box(image, center, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert res.truncated and int(res.mask.data.sum()) == ref.grow_params.max_voxels


def mark_runs(in_window, start, moves):
    """Mark a one-voxel path from ``start``: one straight run per (axis, signed
    length) move, each stopped at the VOI's face."""
    pos = list(start)
    for axis, length in moves:
        step = 1 if length > 0 else -1
        for _ in range(abs(length)):
            if not 0 <= pos[axis] + step < in_window.shape[axis]:
                break
            pos[axis] += step
            in_window[tuple(pos)] = True


def first_box(seed, shape):
    """The box the grower thresholds first, around the seed."""
    return tuple(slice(max(0, c - _FIRST_HALF_WIDTH), min(n, c + _FIRST_HALF_WIDTH + 1))
                 for c, n in zip(seed, shape))


MOVE = st.tuples(st.integers(0, 2), st.integers(-30, 30))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["one face", "snake", "faces", "truncated"]),
       shape=st.tuples(*[st.integers(2 * _FIRST_HALF_WIDTH + 2, 2 * _FIRST_HALF_WIDTH + 8)] * 3),
       rng_seed=st.integers(0, 2 ** 16), noise=st.sampled_from([0.0, 0.03, 0.08]),
       connectivity=st.sampled_from(CONNECTIVITIES))
def test_grow_past_its_first_box_equals_the_whole_voi_grow(data, kind, shape, rng_seed, noise,
                                                           connectivity):
    """VOIs wider than the grower's first box: components that leave it
    through one face, snakes that leave and come back, components that
    reach the VOI's faces, and truncated grows that reach past the box."""
    rng = np.random.default_rng(rng_seed)
    in_window = rng.random(shape) < (0.0 if kind == "truncated" else noise)
    axis, side = data.draw(st.integers(0, 2)), data.draw(st.sampled_from([-1, 1]))
    reach = _FIRST_HALF_WIDTH + 2  # a run this long from the seed ends two voxels out of the first box
    seed = [data.draw(st.integers(0, n - 1)) for n in shape]
    seed[axis] = data.draw(st.integers(reach, shape[axis] - 1) if side < 0
                           else st.integers(0, shape[axis] - 1 - reach))  # the box's side is inside
    seed = tuple(seed)
    in_window[seed] = True
    leave = (axis, side * (reach + data.draw(st.integers(0, 12))))
    if kind == "one face":  # a slab, thinner than the box, out of one of its faces
        lo = [c - data.draw(st.integers(0, 3)) for c in seed]
        hi = [c + data.draw(st.integers(1, 4)) for c in seed]
        ends = sorted((seed[axis], seed[axis] + leave[1]))
        lo[axis], hi[axis] = ends[0], ends[1] + 1
        part = tuple(slice(max(0, l), h) for l, h in zip(lo, hi))
        in_window[part] |= rng.random(in_window[part].shape) < 0.8
        mark_runs(in_window, seed, [leave])
    elif kind == "faces":  # a cross through the seed to all six faces of the VOI
        for a, n in enumerate(shape):
            mark_runs(in_window, seed, [(a, -n)])
            mark_runs(in_window, seed, [(a, n)])
        mark_runs(in_window, seed, data.draw(st.lists(MOVE, max_size=4)))
    else:  # out of the box, then runs that may turn back into it
        back = (axis, -leave[1] - side * data.draw(st.integers(0, 2 * _FIRST_HALF_WIDTH)))
        mark_runs(in_window, seed, [leave, *data.draw(st.lists(MOVE, min_size=1, max_size=4)), back])
    cap = in_window.size
    if kind == "truncated":  # more voxels than the component has in the first box
        component = bfs_grow_oracle(in_window, seed, connectivity, in_window.size)
        in_box = int(component[first_box(seed, shape)].sum())
        cap = data.draw(st.integers(in_box + 1, int(component.sum()) - 1))
    image = Volume3D(np.where(in_window, LESION_HU, BACKGROUND_HU).astype(np.int16))
    res = segment(image, seed, SegmenterRef.builtin(GrowParams(hu_window=WINDOW, connectivity=connectivity,
                                                               max_voxels=cap)))
    expected, truncated = whole_voi_grow_oracle(in_window, seed, connectivity, cap)
    assert truncated == (kind == "truncated")
    assert res.truncated == truncated
    assert np.array_equal(res.mask.data, expected)
    outside = expected.copy()
    outside[first_box(seed, shape)] = 0
    assert outside.any()  # the grow reached past the first box


def test_the_grower_labels_a_small_lesion_not_its_voi(monkeypatch):
    """A lesion about 20 voxels wide in a 256x256x128 VOI, with other
    in-window voxels far from it: what is labeled is about its box."""
    shape, center = (256, 256, 128), (100, 140, 60)
    lesion = ball(shape, center, 10)
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    image[lesion] = LESION_HU
    image[200:230, 20:40, 100:120] = LESION_HU  # another in-window blob, far away
    sizes = []
    label = segmenter.ndimage.label

    def counted(input, *args, **kwargs):
        sizes.append(np.asarray(input).size)
        return label(input, *args, **kwargs)

    monkeypatch.setattr(segmenter.ndimage, "label", counted)
    res = segment(Volume3D(image), center, SegmenterRef.builtin(GrowParams(hu_window=WINDOW)))
    assert np.array_equal(res.mask.data, lesion)
    box = np.prod(np.ptp(np.argwhere(lesion), axis=0) + 1)
    assert 0 < sum(sizes) <= 2 * box


def test_translation_equivariance_on_interior_content():
    rng = np.random.default_rng(6)
    shape = (20, 20, 20)
    pattern = (rng.random((6, 6, 6)) < 0.5).astype(np.int16) * LESION_HU
    pattern += (pattern == 0) * BACKGROUND_HU
    pattern[3, 3, 3] = LESION_HU  # ensure a valid seed
    for shift in ((0, 0, 0), (2, 1, 3), (5, 5, 0)):
        base = np.full(shape, BACKGROUND_HU, dtype=np.int16)
        ox, oy, oz = (4 + s for s in shift)
        base[ox:ox + 6, oy:oy + 6, oz:oz + 6] = pattern
        res = segment(Volume3D(base), (ox + 3, oy + 3, oz + 3),
                      SegmenterRef.builtin(GrowParams(hu_window=WINDOW)))
        voxels = np.argwhere(res.mask.data) - np.array([ox, oy, oz])
        if shift == (0, 0, 0):
            reference = {tuple(v) for v in voxels.tolist()}
        else:
            assert {tuple(v) for v in voxels.tolist()} == reference


def test_grow_params_validation():
    with pytest.raises(ValueError):
        GrowParams(hu_window=(10, -10))
    with pytest.raises(ValueError):
        GrowParams(hu_window=(float("nan"), 10))
    with pytest.raises(ValueError):
        GrowParams(max_voxels=0)
    with pytest.raises(ValueError):
        GrowParams(connectivity=4)


@pytest.mark.parametrize("max_voxels", [100.0, np.float64(100), True, False, np.bool_(True), "100"],
                         ids=["float", "numpy-float", "True", "False", "numpy-bool", "str"])
def test_a_cap_that_is_not_an_integer_is_refused(max_voxels):
    with pytest.raises(ValueError, match="max_voxels must be an integer"):
        GrowParams(max_voxels=max_voxels)


@pytest.mark.parametrize("max_voxels", [8, np.int64(8), np.int32(8), np.uint16(8)],
                         ids=["int", "int64", "int32", "uint16"])
def test_a_cap_of_any_integer_type_truncates_alike(max_voxels):
    image_arr = np.full((8, 8, 8), BACKGROUND_HU, dtype=np.int16)
    image_arr[2:5, 2:5, 2:5] = LESION_HU  # 27 voxels
    res = segment(Volume3D(image_arr), (3, 3, 3),
                  SegmenterRef.builtin(GrowParams(hu_window=WINDOW, max_voxels=max_voxels)))
    assert res.truncated
    assert np.array_equal(res.mask.data, bfs_grow_oracle(image_arr == LESION_HU, (3, 3, 3), 26, 8))


def test_every_public_segmenter_function_takes_any_kind():
    """A kind is its type alone: each public function of the module takes a
    ``SegmenterRef``, so none is tied to one kind."""
    public = [f for name, f in vars(segmenter).items() if inspect.isfunction(f)
              and f.__module__ == segmenter.__name__ and not name.startswith("_")]
    assert public
    for f in public:
        hints = typing.get_type_hints(f)
        assert any(hints.get(p) is SegmenterRef for p in inspect.signature(f).parameters), f.__name__


def test_segmenter_ref_validation():
    with pytest.raises(ValueError):
        SegmenterRef.external("cmd {image} {x} {y} {output}")  # {z} missing
    ref = SegmenterRef.builtin()
    assert ref.grow_params is not None
    assert ref.model_id.startswith("builtin-grow")


@pytest.mark.parametrize("timeout_s", [float("nan"), 0.0, -1.0])
def test_segmenter_ref_rejects_a_timeout_that_is_not_positive(timeout_s):
    with pytest.raises(ValueError):
        SegmenterRef.external("cmd {image} {x} {y} {z} {output}", timeout_s=timeout_s)
    assert SegmenterRef.external("cmd {image} {x} {y} {z} {output}",
                                 timeout_s=float("inf")).timeout_s == float("inf")


def test_external_copy_adapter_returns_reference_mask(tmp_path):
    image, blob = lesion_image(shape=(10, 10, 6), center=(5, 5, 3), radius=2)
    gt = Volume3D(blob.astype(np.uint8), kind=VolumeKind.BINARY_MASK)
    gt_path = tmp_path / "gt.nii.gz"
    write_volume(gt, gt_path)
    command = write_adapter(tmp_path, COPY_MASK) + " " + str(gt_path)
    res = segment(image, (5, 5, 3), SegmenterRef.external(command))
    assert np.array_equal(res.mask.data, gt.data)
    assert res.mask.kind is VolumeKind.BINARY_MASK


def test_external_model_reads_the_voi_crop_as_gzip_nifti(tmp_path):
    image, blob = lesion_image(shape=(20, 18, 10), center=(12, 7, 4), radius=3)
    mask = Volume3D(blob.astype(np.uint8), kind=VolumeKind.BINARY_MASK)
    voi = crop_voi(image, mask, ClickPoint((12, 7, 4)), VOICfg(size=(16, 16, 8)))
    copy = tmp_path / "input-copy.nii.gz"
    command = write_adapter(tmp_path, COPY_IMAGE_ASIDE) + " " + str(copy)
    SegmenterRef.external(command).segment(voi.image, (8, 8, 4))
    assert copy.read_bytes()[:2] == b"\x1f\x8b"
    assert read_volume(copy) == voi.image


def test_external_click_passed_as_decimal_indices(tmp_path):
    image, _ = lesion_image(shape=(10, 10, 6), center=(5, 5, 3), radius=2)
    command = write_adapter(tmp_path, CLICK_DOT)
    res = segment(image, (7, 2, 4), SegmenterRef.external(command))
    assert res.mask.data[7, 2, 4] == 1
    assert int(res.mask.data.sum()) == 1


def test_external_failure_modes(tmp_path):
    image, _ = lesion_image(shape=(8, 8, 4), center=(4, 4, 2), radius=1)
    click = (4, 4, 2)
    with pytest.raises(ProcessFailedError) as err:
        SegmenterRef.external(write_adapter(tmp_path, ALWAYS_FAIL)).segment(image, click)
    assert "synthetic failure" in str(err.value)
    with pytest.raises(BadMaskDimsError):
        SegmenterRef.external(write_adapter(tmp_path, WRONG_DIMS)).segment(image, click)
    with pytest.raises(BadMaskValuesError):
        SegmenterRef.external(write_adapter(tmp_path, BAD_VALUES)).segment(image, click)
    with pytest.raises(SegmenterTimeoutError):
        SegmenterRef.external(write_adapter(tmp_path, SLEEPER), timeout_s=1.0).segment(image, click)


@pytest.mark.parametrize("values, message", [
    (np.array([0, 1, 2], dtype=np.uint8), "mask values outside {0, 1}: [0 1 2]"),
    (np.array([0, 0.5], dtype=np.float32), "mask values outside {0, 1}: [0.  0.5]"),
    (np.array([2], dtype=np.uint8), "mask values outside {0, 1}: [1 2]"),
    (np.array([0, 1, np.nan], dtype=np.float32), "mask values outside {0, 1}: [ 0.  1. nan]"),
    (np.array([np.inf], dtype=np.float32), "mask values outside {0, 1}: [ 1. inf]"),
])
def test_external_mask_values_outside_zero_one_are_rejected(tmp_path, values, message):
    """A stray 2, a fractional float, a NaN and an inf are all caught, named by
    the mask's distinct values. The mask is 0 around ``values`` where they
    hold a 0, else 1, so the message names a 0 only where the mask holds one."""
    image, _ = lesion_image(shape=(8, 8, 4), center=(4, 4, 2), radius=1)
    out = np.full(image.dims, 0 if (values == 0).any() else 1, dtype=values.dtype)
    out[:values.size, 0, 0] = values
    mask_path = tmp_path / "mask.nii.gz"
    write_volume(Volume3D(out), mask_path)
    command = write_adapter(tmp_path, COPY_MASK) + " " + str(mask_path)
    with pytest.raises(BadMaskValuesError) as err:
        SegmenterRef.external(command).segment(image, (4, 4, 2))
    assert str(err.value) == message


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32])
def test_external_mask_of_zeros_and_ones_in_any_dtype_is_accepted(tmp_path, dtype):
    image, blob = lesion_image(shape=(8, 8, 4), center=(4, 4, 2), radius=1)
    mask_path = tmp_path / "mask.nii.gz"
    write_volume(Volume3D(blob.astype(dtype)), mask_path)
    command = write_adapter(tmp_path, COPY_MASK) + " " + str(mask_path)
    res = segment(image, (4, 4, 2), SegmenterRef.external(command))
    assert res.mask.data.dtype == np.uint8
    assert np.array_equal(res.mask.data, blob.astype(np.uint8))


def test_the_exec_round_trip_holds_less_than_its_voi(tmp_path):
    """The VOI goes to the model and its mask comes back a run of z-slices
    at a time, never as a whole copy: one call's peak stays below the VOI
    image's own size, and the mask comes back as the box of its voxels."""
    rng = np.random.default_rng(5)
    image = Volume3D(rng.integers(-1000, 1000, size=(128, 128, 64)).astype(np.int16))
    blob = np.zeros(image.dims, dtype=np.uint8)
    blob[40:80, 50:90, 20:40] = 1
    mask_path = tmp_path / "mask.nii.gz"
    write_volume(Volume3D(blob, kind=VolumeKind.BINARY_MASK), mask_path)
    ref = SegmenterRef.external(write_adapter(tmp_path, COPY_MASK) + " " + str(mask_path))
    tracemalloc.start()
    try:
        res = segment_box(image, (60, 70, 30), ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < image.data.nbytes, peak
    assert res.corner == (40, 50, 20)
    assert res.mask.dims == (40, 40, 20) and res.mask.data.all()


def test_an_exec_models_stdout_is_not_held(tmp_path):
    """A model that writes 64 MB to stdout before its mask: the call's peak
    under tracemalloc is within 5 MB of a quiet model's, and the mask is read."""
    image, blob = lesion_image(shape=(8, 8, 4), center=(4, 4, 2), radius=1)
    mask_path = tmp_path / "mask.nii.gz"
    write_volume(Volume3D(blob.astype(np.uint8), kind=VolumeKind.BINARY_MASK), mask_path)
    peaks = []
    for name, body in (("quiet.py", COPY_MASK), ("loud.py", LOUD_COPY_MASK)):
        ref = SegmenterRef.external(write_adapter(tmp_path, body, name) + " " + str(mask_path))
        tracemalloc.start()
        try:
            res = segment(image, (4, 4, 2), ref)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(res.mask.data, blob)
    assert peaks[1] - peaks[0] < 5_000_000, peaks


def _process_state(pid):
    """The State letter from /proc/<pid>/status, or None once the pid is gone."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("State:"):
                    return line.split()[1]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_external_timeout_kills_forked_workers(tmp_path):
    image, _ = lesion_image(shape=(8, 8, 4), center=(4, 4, 2), radius=1)
    pidfile = tmp_path / "worker.pid"
    command = write_adapter(tmp_path, FORKS_SLEEPER) + " " + str(pidfile)
    with pytest.raises(SegmenterTimeoutError):
        SegmenterRef.external(command, timeout_s=1.0).segment(image, (4, 4, 2))
    pid = int(pidfile.read_text())
    try:
        deadline = time.monotonic() + 5.0
        while _process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _process_state(pid) in (None, "Z")
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
