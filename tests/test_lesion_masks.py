"""Lesions kept as boolean masks of their bounding boxes.

A loaded lesion is its box mask, not a list of coordinates. The
properties check that every kind of manifest entry gets the voxels, box,
size and center that the coordinate-list formulas give on the label map,
and that the whole-volume mask ``resolve_lesion`` builds from the box, and
its windows, equal a voxel-by-voxel scatter of those coordinates. The pins
check what a load keeps.
"""

import tempfile
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ulsforge.pipeline as pl
from oracles import flood_fill_components, instance_oracle, label_voxels, scatter_window
from synth import ball
from ulsforge import ManifestEntry, VOICfg, Volume3D, write_volume
from ulsforge.errors import AmbiguousLesionError, ClickNotOnMaskError, EmptyInstanceError
from ulsforge.voi import _crop

SHAPE_LABEL = 11  # the value of the drawn ring, U or pair


def _off_center_shape(kind, shape, rng):
    """Voxels of a lesion whose centroid lies off it, or None if it does not fit.

    A square ring and a pair two voxels apart put the centroid in their gap,
    at equal distance from several voxels; a U puts it between its arms.
    """
    if kind == "pair":
        if shape[0] < 3:
            return None
        y, z = (int(rng.integers(n)) for n in shape[1:])
        return np.array([[0, y, z], [2, y, z]])
    if shape[0] < 3 or shape[1] < 3:
        return None
    r = int(rng.integers(1, (min(shape[:2]) - 1) // 2 + 1))
    cx, cy = (int(rng.integers(r, n - r)) for n in shape[:2])
    z = int(rng.integers(shape[2]))
    d = np.arange(-r, r + 1)
    dx, dy = (a.ravel() for a in np.meshgrid(d, d, indexing="ij"))
    keep = np.maximum(abs(dx), abs(dy)) == r
    if kind == "u":
        keep &= dy > -r  # open side: the U's centroid still falls in its gap
    return np.stack([cx + dx[keep], cy + dy[keep], np.full(keep.sum(), z)], axis=1)


def _windows(dims, center, size):
    """Windows around ``center`` and hanging off each face of the volume."""
    centered = [c - s // 2 for c, s in zip(center, size)]
    yield tuple(centered)
    for axis in range(3):
        for start in (-(size[axis] // 2), dims[axis] - size[axis] // 2):
            yield tuple(start if a == axis else centered[a] for a in range(3))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), seed=st.integers(0, 2 ** 16),
       values=st.sampled_from([("uint8", (1, 2, 7)), ("int16", (-3, 5, -200)),
                               ("float32", (1.0, 2.0, 2.5, -4.0))]),
       fill=st.sampled_from([0.0, 0.05, 0.3, 0.9]), faces=st.booleans(),
       kind=st.sampled_from([None, "ring", "u", "pair"]),
       size=st.tuples(*[st.sampled_from([2, 4, 6])] * 3),
       connectivity=st.sampled_from((6, 18, 26)))
def test_box_masks_give_the_coordinate_list_instances(shape, seed, values, fill, faces, kind,
                                                      size, connectivity):
    dtype, labels_used = values
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(shape) < fill, rng.choice(labels_used, size=shape), 0)
    if faces:  # a labeled voxel on each of the six faces
        for axis in range(3):
            for end in (0, shape[axis] - 1):
                pos = [int(rng.integers(n)) for n in shape]
                pos[axis] = end
                labels[tuple(pos)] = rng.choice(labels_used)
    drawn = None if kind is None else _off_center_shape(kind, shape, rng)
    if drawn is not None:
        labels[tuple(drawn.T)] = SHAPE_LABEL
    labels = labels.astype(dtype)
    components = flood_fill_components(labels != 0, connectivity)
    foreground = label_voxels(labels != 0, True)
    clicks = [tuple(int(v) for v in foreground[i])
              for i in rng.permutation(len(foreground))[:3]] + [(0, 0, 0)]
    if drawn is not None:
        clicks.append(tuple(int(v) for v in drawn[0]))
    kinds = ([{"component_label": v} for v in (1, 2, -3, 5, 9, -4, SHAPE_LABEL)]
             + [{"click": c} for c in clicks] + [{}])
    with tempfile.TemporaryDirectory() as tmp:
        img, msk = "%s/img.nii" % tmp, "%s/mask.nii" % tmp
        write_volume(Volume3D(np.zeros(shape, np.int16)), img)
        write_volume(Volume3D(labels), msk)
        entries = [ManifestEntry(lesion_id="v%d" % i, patient_id="p", image_path=img,
                                 mask_path=msk, **extra) for i, extra in enumerate(kinds)]
        loader = pl.ScanLoader(entries, connectivity, VOICfg(size=size))
        for entry in entries:
            if entry.component_label is not None:
                expected = label_voxels(labels, entry.component_label)
            elif entry.click is not None:
                expected = label_voxels(components, components[entry.click] or -1)
            else:
                expected = label_voxels(components, 1 if components.max() == 1 else -1)
            try:
                lesion = loader.lesion(entry)
            except (EmptyInstanceError, ClickNotOnMaskError, AmbiguousLesionError):
                assert expected.shape[0] == 0
                continue
            instance = lesion.instance
            voxels = instance.voxels
            assert voxels.dtype == expected.dtype
            assert np.array_equal(voxels, expected)
            assert (instance.bbox, instance.size_vox, instance.center.pos) == instance_oracle(expected)
            lo, hi = instance.bbox
            assert instance.mask.shape == tuple(h - l + 1 for l, h in zip(lo, hi))
            _, whole, reference = pl.resolve_lesion(entry, connectivity)
            assert np.array_equal(reference.voxels, voxels)
            assert np.array_equal(whole.data, scatter_window(expected, shape, (0, 0, 0), shape, 0))
            for offset in _windows(shape, instance.center.pos, size):
                window = _crop(whole.data, offset, size, 0)
                assert np.array_equal(window, scatter_window(expected, shape, offset, size, 0))


def _arrays_in(obj, seen):
    """Every numpy array reachable from ``obj`` through attributes and containers."""
    if id(obj) in seen or isinstance(obj, type):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in _arrays_in(item, seen)]


def _large_lesion_scan(tmp_path, shape=(96, 80, 48), suffix=".nii"):
    mask = np.zeros(shape, dtype=np.uint8)
    mask[ball(shape, (40, 40, 24), 18)] = 1
    mask[90, 5, 3] = 1  # a second, one-voxel lesion
    img, msk = tmp_path / ("img" + suffix), tmp_path / ("mask" + suffix)
    write_volume(Volume3D(np.zeros(shape, np.int16)), img)
    write_volume(Volume3D(mask), msk)
    return [ManifestEntry(lesion_id=lid, patient_id="p", image_path=str(img), mask_path=str(msk),
                          **extra)
            for lid, extra in (("big", {"click": (40, 40, 24)}), ("small", {"click": (90, 5, 3)}),
                               ("label", {"component_label": 1}))]


def test_loaded_lesions_are_read_only_box_masks(tmp_path):
    entries = _large_lesion_scan(tmp_path)
    scan = pl._load_scan(entries, 26, VOICfg(size=(32, 32, 16)))
    for entry in entries:
        instance = scan[entry.lesion_id].instance
        lo, hi = instance.bbox
        assert instance.mask.dtype == np.bool_
        assert not instance.mask.flags.writeable
        assert instance.mask.flags.f_contiguous  # x fastest
        assert instance.mask.shape == tuple(h - l + 1 for l, h in zip(lo, hi))
        assert int(instance.mask.sum()) == instance.size_vox
    assert scan["big"].instance.bbox == ((22, 22, 6), (58, 58, 42))
    assert scan["small"].instance.mask.shape == (1, 1, 1)


def test_scan_keeps_no_coordinate_list(tmp_path):
    scan = pl._load_scan(_large_lesion_scan(tmp_path), 26, VOICfg(size=(32, 32, 16)))
    arrays = _arrays_in(scan, set())
    assert arrays  # each lesion's image box and mask
    assert not [a.shape for a in arrays if a.ndim == 2 and a.shape[1] == 3]
    assert all(a.ndim == 3 for a in arrays)


def test_a_load_keeps_the_image_and_the_lesion_boxes(tmp_path):
    cases = [((96, 80, 48), ".nii", (128, 128, 64)),  # a window larger than the volume, padded
             ((96, 80, 48), ".nii", (32, 32, 16)),
             ((240, 200, 96), ".nii.gz", (16, 16, 8))]  # a box of 0.04 % of the image
    for i, (shape, suffix, size) in enumerate(cases):
        (tmp_path / str(i)).mkdir()
        entries = _large_lesion_scan(tmp_path / str(i), shape, suffix)[:1]
        cfg = VOICfg(size=size)
        pl._load_scan(entries, 26, cfg)  # first calls import and cache what they need
        tracemalloc.start()
        try:
            scan = pl._load_scan(entries, 26, cfg)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lesion = scan[entries[0].lesion_id]
        instance = lesion.instance
        # 20,000 voxels of the lesion; as int64 coordinates they would take 480 KB
        assert instance.size_vox > 20_000
        image = lesion.voxels  # k = 0: the one window of the center click, padded
        assert image.shape == size and image.dtype == np.int16
        assert kept <= image.nbytes + instance.mask.nbytes + 16_384
        if suffix == ".nii.gz":
            assert image.nbytes * 30 < np.prod(shape) * 2
