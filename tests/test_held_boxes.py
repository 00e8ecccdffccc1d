"""A run holds boxes, not volumes or whole VOIs.

The mask is read a run of z-slices at a time into its foreground box; the
ground truth and every prediction are kept as the box of their voxels; an
image box, the union of a lesion's click-plan windows, lives as long as the
last lesion that holds it; and labels take
int16 where they fit. The properties check that each box is the cut of
what the whole-volume or whole-VOI path gives. The pins check what is
held, with ``tracemalloc`` and ``weakref``.
"""

import json
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import ulsforge.pipeline as pl
from oracles import instance_from_voxels, loaded_lesion
from synth import BACKGROUND_HU, GROW_WINDOW, LESION_HU, make_case
from ulsforge import (
    GrowParams,
    ManifestEntry,
    SegmentationResult,
    SegmenterRef,
    VOICfg,
    Volume3D,
    VolumeKind,
    crop_voi,
    isolate_central_lesion,
    label_components,
    read_volume,
    segment,
    write_volume,
)
from ulsforge import volume as vol_module
from ulsforge.cli import main
from ulsforge.errors import UlsforgeError
from ulsforge.clicks import ClickPlan
from ulsforge.lesions import ClickPoint, _foreground_box
from ulsforge.segmenter import segment_box
from ulsforge.volume import _NiftiFile

GROW_ARGS = ["--segmenter", "builtin", "--hu-window", "50:150"]

SLABS = (1, 7, 64, 1 << 21)  # bytes per slab: a slice at a time, or every slice at once


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 11)] * 3), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from(("uint8", "int16", "float32")), compress=st.booleans(),
       fill=st.sampled_from([0.0, 0.01, 0.2]), special=st.sampled_from([None, np.nan, np.inf, -0.0]),
       slab=st.sampled_from(SLABS))
def test_the_mask_reader_keeps_the_foreground_box_of_read_volume(shape, seed, dtype, compress, fill,
                                                                 special, slab):
    rng = np.random.default_rng(seed)
    data = np.where(rng.random(shape) < fill, rng.integers(1, 9, size=shape), 0).astype(dtype)
    if special is not None and dtype == "float32":
        data[tuple(int(rng.integers(n)) for n in shape)] = special
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(vol_module, "_SLAB", slab):
        path = Path(tmp) / "m.nii"
        write_volume(Volume3D(data), path, compress=compress)
        whole = read_volume(path).data
        with _NiftiFile(path) as f:
            lo, values, bad = f.read_foreground()
    assert bad == data.size - np.count_nonzero(np.isfinite(data))
    assert values.dtype == data.dtype and values.flags.f_contiguous and not values.flags.writeable
    if np.count_nonzero(whole):
        box = _foreground_box(whole)
        assert lo == tuple(b.start for b in box)
        assert np.array_equal(values, whole[box], equal_nan=True)
    else:  # no foreground: one zero voxel
        assert (lo, values.shape, values.any()) == ((0, 0, 0), (1, 1, 1), False)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(2, 9)] * 3), seed=st.integers(0, 2 ** 16),
       compress=st.booleans(), fault=st.sampled_from(["cut", "flip"]), slab=st.sampled_from(SLABS))
def test_a_faulty_mask_gives_the_error_of_read_volume(data, shape, seed, compress, fault, slab):
    values = (np.random.default_rng(seed).random(shape) < 0.3).astype(np.uint8)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(vol_module, "_SLAB", slab):
        path = Path(tmp) / "m.nii"
        write_volume(Volume3D(values), path, compress=compress)
        blob = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(blob) - 1))
        if fault == "cut":
            del blob[at:]
        else:
            blob[at] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        try:
            expected = read_volume(path).data
        except (UlsforgeError, OSError) as exc:
            expected = (type(exc), str(exc))
        try:
            with _NiftiFile(path) as f:
                lo, got, _ = f.read_foreground()
        except (UlsforgeError, OSError) as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert not isinstance(expected, tuple), expected
            if expected.any():
                box = _foreground_box(expected)
                assert lo == tuple(b.start for b in box) and np.array_equal(got, expected[box])


def test_reading_a_small_masks_foreground_holds_a_256_kib_slab(tmp_path):
    """A 128x128x64 uint8 mask, as an ``exec:`` model writes one, whose
    foreground box is 32 KB: reading that box peaks below 0.8 MB under
    tracemalloc (the 256 KiB slab buffer, one 32 KiB step of gzip input and
    zlib's state), where a 2 MiB slab buffer, the whole 1 MB mask, made it 1.40 MB."""
    shape = (128, 128, 64)
    mask = np.zeros(shape, dtype=np.uint8)
    mask[48:80, 48:80, 16:48] = 1
    path = tmp_path / "mask.nii.gz"
    write_volume(Volume3D(mask), path)
    with _NiftiFile(path) as f:
        f.read_foreground()  # first calls import and cache what they need
    tracemalloc.start()
    try:
        with _NiftiFile(path) as f:
            lo, values, _ = f.read_foreground()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000, peak
    assert lo == (48, 48, 16) and values.shape == (32, 32, 32) and values.all()


def test_a_scan_load_holds_far_less_than_its_decoded_mask(tmp_path):
    shape = (512, 512, 32)  # an 8.4 MB uint8 mask
    centers = ((100, 300, 16), (130, 320, 20))
    img, msk = make_case(tmp_path, "big", shape=shape, centers=centers)
    entries = [ManifestEntry(lesion_id="l%d" % i, patient_id="p", image_path=str(img),
                             mask_path=str(msk), click=c) for i, c in enumerate(centers)]
    cfg = VOICfg(size=(16, 16, 8))
    pl._load_scan(entries, 26, cfg)  # first calls import and cache what they need
    tracemalloc.start()
    try:
        scan = pl._load_scan(entries, 26, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(not isinstance(found, tuple) for found in scan.values())
    # one slab buffer of 256 KiB, the runs' foreground boxes and the image boxes;
    # a whole decoded mask alone would be 8.4 MB
    mask_bytes = int(np.prod(shape))
    assert peak < mask_bytes // 2, peak


def _voi_sized_blocks(voxels):
    """Live numpy blocks of exactly ``voxels`` bytes: uint8 or bool arrays of a VOI's size."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return [t.size for t in snapshot.traces if t.size == voxels]


def test_a_lesion_holds_no_voi_sized_mask_once_segmented(tmp_path):
    img, msk = make_case(tmp_path, "one", shape=(64, 64, 40), centers=((30, 30, 20),), radius=4)
    entry = ManifestEntry(lesion_id="l", patient_id="p", image_path=str(img), mask_path=str(msk))
    cfg = VOICfg(size=(48, 48, 32))
    voxels = int(np.prod(cfg.size))
    seg = SegmenterRef.builtin(GrowParams(hu_window=GROW_WINDOW))
    held = []
    real = pl.segment

    def counting(voi_image, local_click, ref):
        result = real(voi_image, local_click, ref)
        held.append(_voi_sized_blocks(voxels))
        return result

    loader = pl.ScanLoader([entry], 26, cfg, seed_root=4, k=2)
    with mock.patch.object(pl, "segment", counting):
        tracemalloc.start()
        try:
            record = pl._eval_one(entry, loader.lesion(entry), seg, "m", 4)
        finally:
            tracemalloc.stop()
    assert (record.dice, record.robustness, record.flags) == (1.0, 1.0, frozenset())
    assert held == [[], [], []]  # three segments, and no VOI-sized mask after any of them


def test_label_ids_are_int16_below_2_to_the_15_foreground_voxels():
    small = np.zeros((9, 8, 7), dtype=np.uint8)
    small[::2, ::2, ::2] = 1
    labeled = label_components(Volume3D(small, kind=VolumeKind.BINARY_MASK)).data
    assert labeled.dtype == np.int16
    ids, _ = ndimage.label(np.ascontiguousarray(small.T), structure=np.ones((3, 3, 3)))
    assert np.array_equal(labeled, ids.T)

    grid = np.zeros((64, 64, 64), dtype=np.uint8)
    grid[::2, ::2, ::2] = 1  # 32,768 isolated voxels: ids up to 2**15 need int32
    labeled = label_components(Volume3D(grid, kind=VolumeKind.BINARY_MASK)).data
    assert labeled.dtype == np.int32 and labeled.max() == 2 ** 15
    x, y, z = np.meshgrid(*[np.arange(32)] * 3, indexing="ij")
    assert np.array_equal(labeled[::2, ::2, ::2], 1 + x + 32 * y + 1024 * z)  # x-fastest ids
    assert np.count_nonzero(labeled) == 2 ** 15


def test_a_window_off_the_face_keeps_the_truth_to_the_lesion_box():
    # a U on the x = 0 face: its arms meet at x = 5, outside a window 4 voxels wide
    shape = (12, 12, 6)
    lesion = np.zeros(shape, dtype=bool)
    lesion[0:6, 2, 2] = lesion[0:6, 8, 2] = lesion[5, 2:9, 2] = True
    image = Volume3D(np.where(lesion, LESION_HU, BACKGROUND_HU).astype(np.int16))
    mask = Volume3D(lesion.astype(np.uint8), kind=VolumeKind.BINARY_MASK)
    instance = instance_from_voxels(1, np.argwhere(lesion))
    click = ClickPoint((0, 2, 2))  # the window is x -2..1: two columns of padding
    cfg = VOICfg(size=(4, 16, 4))
    plan = ClickPlan(lesion_id="u", normal=click, augmented=(), seed_root=0, k=0)
    lesion = loaded_lesion(image, mask.spacing, instance, plan, cfg, 26)
    corner, truth = lesion.truth(click)
    crop = crop_voi(image, mask, click, cfg)
    whole = isolate_central_lesion(crop.mask, crop.local_click, 26)
    start = tuple(c - o for c, o in zip(corner, crop.offset))
    assert np.array_equal(truth.data, whole.data[tuple(slice(s, s + n) for s, n in zip(start, truth.dims))])
    assert np.count_nonzero(truth.data) == np.count_nonzero(whole.data)
    assert lesion.voi(click).mask == whole
    # the padding is 0: the truth is one arm, in the lesion's box clipped to the window
    assert (corner, truth.dims, int(whole.data[2:, 14].sum())) == ((0, 2, 2), (2, 7, 1), 0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 10)] * 3), seed=st.integers(0, 2 ** 16),
       fill=st.sampled_from([0.1, 0.5, 0.9]), max_voxels=st.sampled_from([1, 5, 10_000]),
       connectivity=st.sampled_from([6, 18, 26]))
def test_a_boxed_prediction_pastes_back_into_the_whole_voi_mask(shape, seed, fill, max_voxels,
                                                                 connectivity):
    rng = np.random.default_rng(seed)
    image = Volume3D(np.where(rng.random(shape) < fill, LESION_HU, BACKGROUND_HU).astype(np.int16))
    click = tuple(int(rng.integers(n)) for n in shape)
    params = GrowParams(hu_window=GROW_WINDOW, connectivity=connectivity, max_voxels=max_voxels)
    whole = segment(image, click, SegmenterRef.builtin(params))
    threshold = ThresholdSegmenter()
    for ref, expected in ((SegmenterRef.builtin(params), whole),
                          (threshold, threshold.segment(image, click))):
        assert segment(image, click, ref).mask == expected.mask
        boxed = segment_box(image, click, ref)
        assert boxed.truncated == expected.truncated
        data = expected.mask.data
        if data.any():
            box = _foreground_box(data)
            assert boxed.corner == tuple(b.start for b in box)
            assert np.array_equal(boxed.mask.data, data[box])
        else:
            assert boxed.mask.dims == (1, 1, 1) and not boxed.mask.data.any()
        assert not boxed.mask.data.flags.writeable


class ThresholdSegmenter:
    """A kind that gives a whole-VOI mask: every voxel of the lesion's intensity."""

    kind = "threshold"
    model_id = "threshold"

    def segment(self, voi_image, local_click):
        return SegmentationResult(voi_image.with_data((voi_image.data == LESION_HU).astype(np.uint8),
                                                      VolumeKind.BINARY_MASK))


def test_a_scan_forgets_an_image_box_once_its_last_lesion_took_it(tmp_path):
    centers = ((10, 10, 8), (38, 38, 24))  # far apart: one image box each
    img, msk = make_case(tmp_path, "two", centers=centers)
    entries = [ManifestEntry(lesion_id=lid, patient_id="p", image_path=str(img), mask_path=str(msk),
                             click=c)
               for lid, c in (("a", centers[0]), ("a-again", centers[0]), ("b", centers[1]))]
    cfg = VOICfg(size=(16, 16, 8))
    loader = pl.ScanLoader(entries, 26, cfg, workers=1)  # k = 0: each plan is its center click
    key = (str(img), str(msk))
    lesions = {}
    for entry in entries:
        lesion = lesions[entry.lesion_id] = loader.lesion(entry)
        assert lesion.plan.all_clicks() == [lesion.instance.center]
        assert lesion.corner == tuple(c - s // 2 for c, s in zip(lesion.instance.center.pos, cfg.size))
        assert lesion.voxels.shape == cfg.size
        held = loader._scans.get(key, {})
        assert list(held) == [e.lesion_id for e in entries][len(lesions):]  # the entries still to take
    assert not loader._scans  # the scan is dropped with its last lesion
    assert lesions["a"].voxels is lesions["a-again"].voxels  # one box, shared
    assert lesions["b"].voxels is not lesions["a"].voxels
    box = weakref.ref(lesions["a"].voxels)
    del lesions["a"]
    assert box() is not None  # "a-again" still holds it
    del lesions["a-again"]
    assert box() is None


@pytest.mark.parametrize("command", [
    ["eval", "--workers", "1", *GROW_ARGS], ["eval", "--workers", "2", *GROW_ARGS],
    ["robustness", "--k", "2", "--workers", "1", *GROW_ARGS],
    ["robustness", "--k", "2", "--workers", "2", *GROW_ARGS], ["extract", "--augment", "2"]])
def test_no_command_builds_a_volume_from_a_writable_array(tmp_path, command):
    """A volume built from a writable array copies it; the masks a command
    cuts, isolates, places back or writes are read-only arrays, kept as they are."""
    img, msk = make_case(tmp_path, "two", centers=((24, 24, 16), (1, 24, 16)))  # one at x = 0
    entries = [{"lesion_id": lesion_id, "patient_id": "p", "image_path": img.name,
                "mask_path": msk.name, "click": click}
               for lesion_id, click in (("inner", [24, 24, 16]), ("face", [1, 24, 16]))]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"entries": entries}))
    copied, post_init = [], Volume3D.__post_init__

    def counting(self):
        if np.asarray(self.data).flags.writeable:  # the caller of the volume's __init__
            copied.append(sys._getframe(2).f_code.co_name)
        post_init(self)

    with mock.patch.object(Volume3D, "__post_init__", counting):
        assert main([*command, "--manifest", str(manifest), "--voi", "16x16x8",
                     "--out", str(tmp_path / "out")]) == 0
    assert copied == []
    if command[0] == "extract":  # three pairs of each lesion, none failed
        rows = json.loads((tmp_path / "out" / "index.json").read_text())["samples"]
        assert len(rows) == 6 and not any("error" in row for row in rows)
    else:
        assert [r.error for r in pl.read_records_csv(tmp_path / "out" / "records.csv")] == [None] * 2
