"""A scan keeps of its image only each lesion's click-plan VOIs.

A load builds each lesion's click plan and keeps one box of the image: the
union of the plan's windows, not clipped to the volume and holding the
image pad wherever it leaves it. The properties check that every plan crop
is a read-only view of that box and the crop of the whole image, offset,
dtype and padding included; that the box reader gives slices of
``read_volume`` for plain and gzip files, however its slabs fall, padded
where a box leaves the volume; and that a faulty file gives the same error
whatever boxes are asked for. The pins check that a window larger than the
load's fails loudly, that a k = 0 lesion holds exactly one VOI, that a pad
the image cannot hold fails each lesion after the image's and the entry's
own faults, and that ``extract`` with a VOI larger than the default writes
the whole image's crops.
"""

import gzip
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulsforge.pipeline as pl
from synth import ball, make_case
from ulsforge import ManifestEntry, VOICfg, Volume3D, crop_voi, generate_shifted_samples, read_volume
from ulsforge import volume as vol_module
from ulsforge import write_volume
from ulsforge.cli import main
from ulsforge.clicks import build_click_plan
from ulsforge.errors import EmptyInstanceError, PadValueError, UlsforgeError
from ulsforge.volume import _NiftiFile

DTYPES = ("uint8", "int16", "int32", "float32")
SLABS = (1, 7, 64, 1 << 21)  # bytes per slab: a slice at a time, or every slice at once
STEPS = (1, 3, 64, 1 << 15)  # compressed bytes per gzip read: a magic split at every byte, or none


def _image(shape, dtype, rng):
    return (rng.integers(-500, 500, size=shape) if dtype != "uint8"
            else rng.integers(0, 256, size=shape)).astype(dtype)


def _write(path, data, spacing=(0.8, 0.7, 2.5)):
    write_volume(Volume3D(data, spacing), path)
    return str(path)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 13)] * 3), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from(DTYPES), suffix=st.sampled_from([".nii", ".nii.gz"]),
       size=st.tuples(*[st.sampled_from([2, 4, 6, 10, 30])] * 3), pad=st.sampled_from([-1024, 0, 7]),
       corner=st.tuples(*[st.sampled_from([0, -1, None])] * 3), fill=st.sampled_from([0.02, 0.2]),
       slab=st.sampled_from(SLABS), k=st.sampled_from([0, 2]), seed_root=st.integers(0, 99))
def test_a_crop_from_the_lesion_box_is_the_crop_of_the_whole_image(
        shape, seed, dtype, suffix, size, pad, corner, fill, slab, k, seed_root):
    """Lesions on faces, edges and corners, VOIs larger than the volume, odd dims, k = 0 and 2."""
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(shape) < fill, rng.integers(1, 3, size=shape), 0).astype(np.uint8)
    labels[tuple(int(rng.integers(n)) if c is None else c for c, n in zip(corner, shape))] = 1
    cfg = VOICfg(size=size, pad_value_image=max(pad, 0) if dtype == "uint8" else pad)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(vol_module, "_SLAB", slab):
        img = _write(Path(tmp) / ("img" + suffix), _image(shape, dtype, rng))
        msk = _write(Path(tmp) / ("msk" + suffix), labels)
        entries = [ManifestEntry(lesion_id="l%d" % v, patient_id="p", image_path=img, mask_path=msk,
                                 component_label=v) for v in (1, 2)]
        scan = pl._load_scan(entries, 26, cfg, seed_root, k)
        whole = read_volume(img)
    for entry in entries:
        try:
            lesion = pl._found(scan[entry.lesion_id])
        except UlsforgeError:  # label 2 may be absent
            continue
        assert lesion.plan == build_click_plan(lesion.instance, seed_root, entry.lesion_id, k=k)
        assert not lesion.voxels.flags.writeable
        for click in lesion.plan.all_clicks():
            got, want = lesion.crop(click, cfg), crop_voi(whole, None, click, cfg)
            assert got.offset == want.offset
            assert (got.image.spacing, got.image.kind, got.image.header_meta) == \
                (want.image.spacing, want.image.kind, None)
            a, b = got.image.data, want.image.data
            assert a.dtype == b.dtype and a.shape == b.shape == size
            assert not a.flags.writeable and np.shares_memory(a, lesion.voxels)  # a view, padded too
            assert np.array_equal(a, b)
        if k == 0:  # the one window of the center click
            assert lesion.voxels.nbytes == math.prod(size) * lesion.voxels.itemsize


def _boxes(data, dims):
    """Boxes drawn around ``dims``: none, some, the whole volume among them,
    boxes inside it, and boxes that hang off its faces or miss it."""
    boxes = []
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["whole", "inside", "around"]))
        if kind == "whole":
            boxes.append(((0, 0, 0), dims))
            continue
        lo = tuple(data.draw(st.integers(0, n - 1) if kind == "inside" else st.integers(-n, n))
                   for n in dims)
        hi = tuple(data.draw(st.integers(l + 1, n) if kind == "inside" else st.integers(l + 1, l + 2 * n))
                   for l, n in zip(lo, dims))
        boxes.append((lo, hi))
    return boxes


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(1, 11)] * 3), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from(DTYPES), suffix=st.sampled_from([".nii", ".nii.gz"]),
       slab=st.sampled_from(SLABS), pad=st.sampled_from([0, 7, 200]))
def test_boxes_are_slices_of_read_volume(data, shape, seed, dtype, suffix, slab, pad):
    """Padded with ``pad`` where they leave the volume."""
    values = _image(shape, dtype, np.random.default_rng(seed))
    boxes = _boxes(data, shape)
    margin = 2 * max(shape)
    padded = np.pad(values, margin, constant_values=pad)  # the volume inside a sea of pad
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(vol_module, "_SLAB", slab):
        path = _write(Path(tmp) / ("v" + suffix), values)
        whole = read_volume(path)
        with _NiftiFile(path) as f:
            assert (f.dims, f.dtype, f.spacing, f.header) == \
                (whole.dims, whole.data.dtype, whole.spacing, whole.header_meta)
            arrays = f.read_boxes(boxes, pad)
    assert np.array_equal(whole.data, values) and whole.data.flags.f_contiguous
    assert len(arrays) == len(boxes)
    for (lo, hi), array in zip(boxes, arrays):
        assert array.dtype == values.dtype
        assert array.flags.f_contiguous and not array.flags.writeable
        assert np.array_equal(array, padded[tuple(slice(l + margin, h + margin) for l, h in zip(lo, hi))])


def _outcome(path, fractions):
    """The boxes at ``fractions`` of the header's dims, read; or the error's class and text."""
    try:
        with _NiftiFile(path) as f:
            boxes = [tuple(tuple(int(r * n) for r, n in zip(rs, f.dims)) for rs in fr) for fr in fractions]
            boxes = [(lo, tuple(max(l + 1, h) for l, h in zip(lo, hi))) for lo, hi in boxes]
            return [a.tobytes(order="F") for a in f.read_boxes(boxes)], boxes
    except (UlsforgeError, OSError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(2, 9)] * 3), seed=st.integers(0, 2 ** 16),
       dtype=st.sampled_from(DTYPES), compress=st.booleans(), fault=st.sampled_from(["cut", "flip"]),
       slab=st.sampled_from(SLABS), step=st.sampled_from(STEPS))
def test_a_faulty_file_gives_one_error_whatever_boxes_are_read(data, shape, seed, dtype, compress,
                                                               fault, slab, step):
    """Whatever gzip step the boxes are read at, too."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(vol_module, "_SLAB", slab):
        path = Path(tmp) / "v.nii"
        write_volume(Volume3D(_image(shape, dtype, np.random.default_rng(seed))), path,
                     compress=compress)
        blob = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(blob) - 1))
        if fault == "cut":
            del blob[at:]
        else:
            blob[at] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        fraction = st.tuples(*[st.floats(0, 0.99)] * 3)
        some = [data.draw(st.tuples(fraction, fraction)) for _ in range(data.draw(st.integers(1, 3)))]
        try:
            whole = read_volume(path)  # at the 32 KiB step; the boxes at the drawn one
        except (UlsforgeError, OSError) as exc:
            whole, expected = None, (type(exc), str(exc))
        with mock.patch.object(vol_module, "_STEP", step):
            if whole is None:
                assert _outcome(path, []) == expected
                assert _outcome(path, some) == expected
                assert _outcome(path, [((0, 0, 0), (1, 1, 1))]) == expected  # the whole volume
            else:
                arrays, boxes = _outcome(path, some)
                assert arrays == [whole.data[tuple(map(slice, *b))].tobytes(order="F") for b in boxes]


def test_a_box_for_a_smaller_voi_fails_loudly(tmp_path):
    img, msk = make_case(tmp_path, "edge", shape=(96, 40, 24), centers=((90, 20, 12),))
    entry = ManifestEntry(lesion_id="e", patient_id="p", image_path=str(img), mask_path=str(msk))
    lesion = pl._found(pl._load_scan([entry], 26, VOICfg(size=(16, 16, 8)))["e"])
    center = lesion.instance.center
    whole = read_volume(img)
    small, large = VOICfg(size=(8, 8, 4)), VOICfg(size=(64, 16, 8))
    assert lesion.corner[0] == 82  # the box is the one 16x16x8 window, x 82..97
    assert lesion.crop(center, small).image == crop_voi(whole, None, center, small).image
    # the large window reaches x = 58, inside the volume but 24 voxels outside the box
    with pytest.raises(ValueError, match="reaches outside the box"):
        lesion.crop(center, large)
    with pytest.raises(ValueError, match="reaches outside the box"):
        lesion.voi(center, large, 26)


def test_extract_with_a_voi_larger_than_the_default_writes_the_whole_image_crops(tmp_path):
    """A lesion near a face of a volume longer than the default VOI: its
    windows reach past the box a default-sized load would keep."""
    shape = (300, 40, 24)
    mask = np.zeros(shape, dtype=np.uint8)
    mask[ball(shape, (292, 20, 12), 4)] = 1
    rng = np.random.default_rng(5)
    image = rng.integers(-1000, 300, size=shape).astype(np.int16)
    _write(tmp_path / "i.nii.gz", image)
    _write(tmp_path / "m.nii.gz", mask)
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"entries": [{"lesion_id": "edge", "patient_id": "p", '
                        '"image_path": "i.nii.gz", "mask_path": "m.nii.gz"}]}')
    out = tmp_path / "vois"
    assert main(["extract", "--manifest", str(manifest), "--voi", "256x48x32", "--augment", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    entry = ManifestEntry(lesion_id="edge", patient_id="p", image_path=str(tmp_path / "i.nii.gz"),
                          mask_path=str(tmp_path / "m.nii.gz"))
    _, lesion_mask, instance = pl.resolve_lesion(entry, 26)
    samples = generate_shifted_samples(read_volume(tmp_path / "i.nii.gz"), lesion_mask, instance,
                                       VOICfg(size=(256, 48, 32)), 4, k=2, lesion_id="edge")
    assert min(s.offset[0] for s in samples) < 292 - 4 - 64  # past a default-sized box
    expected = tmp_path / "expected.nii"
    for stem, sample in zip(["edge", "edge_aug1", "edge_aug2"], samples):
        for part, vol in (("img", sample.image), ("mask", sample.mask)):
            write_volume(vol, expected)
            written = gzip.decompress((out / ("%s_%s.nii.gz" % (stem, part))).read_bytes())
            assert written == expected.read_bytes(), (stem, part)


def _two_lesion_scan(tmp_path, dtype):
    """A lesion whose 8x8x4 windows stay inside the volume and one on its x
    face, as entries, and the image's path."""
    shape = (40, 30, 20)
    labels = np.zeros(shape, dtype=np.uint8)
    labels[ball(shape, (20, 15, 10), 2)] = 1
    labels[ball(shape, (1, 15, 10), 1)] = 2
    img = _write(tmp_path / "img.nii.gz", _image(shape, dtype, np.random.default_rng(3)))
    msk = _write(tmp_path / "msk.nii.gz", labels)
    return [ManifestEntry(lesion_id="l%d" % v, patient_id="p", image_path=img, mask_path=msk,
                          component_label=v) for v in (1, 2)], img


def test_a_crop_is_a_view_of_the_box_inside_the_volume_and_where_it_leaves_it(tmp_path):
    entries, img = _two_lesion_scan(tmp_path, "int16")
    cfg = VOICfg(size=(8, 8, 4))
    scan = pl._load_scan(entries, 26, cfg)
    whole = read_volume(img)
    inner, edge = (scan[e.lesion_id] for e in entries)
    for lesion in (inner, edge):
        crop = lesion.crop(lesion.instance.center, cfg)
        assert not crop.image.data.flags.writeable
        assert np.shares_memory(crop.image.data, lesion.voxels)
        assert crop.image == crop_voi(whole, None, lesion.instance.center, cfg).image
        assert lesion.voxels.nbytes == math.prod(cfg.size) * 2  # k = 0: exactly one VOI
    padded = edge.crop(edge.instance.center, cfg)
    assert padded.offset[0] == edge.corner[0] < 0
    assert (padded.image.data[:-padded.offset[0]] == cfg.pad_value_image).all()


def test_a_pad_the_image_dtype_cannot_hold_fails_each_lesion_after_the_image_and_its_own_faults(
        tmp_path):
    entries, img = _two_lesion_scan(tmp_path, "uint8")
    absent = ManifestEntry(lesion_id="l3", patient_id="p", image_path=img,
                           mask_path=entries[0].mask_path, component_label=3)
    entries.append(absent)
    scan = pl._load_scan(entries, 26, VOICfg(size=(8, 8, 4)))
    pad_fault = (PadValueError, ("pad value -1024 does not fit the volume's dtype uint8",))
    # a window inside the volume and one that leaves it fail alike; the absent label keeps its own error
    assert scan["l1"] == scan["l2"] == pad_fault
    assert scan["l3"][0] is EmptyInstanceError
    with pytest.raises(PadValueError):
        pl._found(scan["l1"])
    fits = pl._load_scan(entries, 26, VOICfg(size=(8, 8, 4), pad_value_image=0))
    assert not isinstance(fits["l1"], tuple) and not isinstance(fits["l2"], tuple)
    blob = Path(img).read_bytes()
    Path(img).write_bytes(blob[:len(blob) // 2])  # a fault of the image wins over the pad
    try:
        read_volume(img)
    except (UlsforgeError, OSError) as exc:
        fault = (type(exc), exc.args)
    assert pl._load_scan(entries, 26, VOICfg(size=(8, 8, 4))) == dict.fromkeys(["l1", "l2", "l3"], fault)
