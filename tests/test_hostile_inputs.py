"""Hostile inputs end as flagged records or exact scores, never an aborted run."""

import gzip
import json

import numpy as np
import pytest

import ulsforge.pipeline as pl
from synth import BACKGROUND_HU, GROW_WINDOW, LESION_HU, ball, make_manifest
from ulsforge import (
    GrowParams,
    Manifest,
    ManifestEntry,
    SegmenterRef,
    VOICfg,
    Volume3D,
    VolumeKind,
    load_manifest,
    read_records_csv,
    read_volume,
    run_dice_eval,
    run_robustness_eval,
    write_volume,
)
from ulsforge.cli import main
from ulsforge.errors import (
    BadHeaderError,
    BadMagicError,
    BadMaskValuesError,
    ManifestParseError,
    TruncatedDataError,
    UnsupportedScalingError,
)

BUILTIN = SegmenterRef.builtin(GrowParams(hu_window=GROW_WINDOW))


def truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def flip_byte(path, pos):
    raw = bytearray(path.read_bytes())
    raw[pos] ^= 0xFF
    path.write_bytes(bytes(raw))


# byte 10 opens the deflate stream, right after the 10-byte gzip header;
# byte 2 is the gzip compression method
@pytest.mark.parametrize("corrupt, error", [
    (truncate, TruncatedDataError),
    (lambda p: flip_byte(p, 10), BadMagicError),
    (lambda p: flip_byte(p, 2), BadMagicError),
], ids=["truncated", "deflate-bit-flip", "bad-method"])
def test_corrupt_gzip_raises_toolkit_errors(tmp_path, corrupt, error):
    path = tmp_path / "vol.nii.gz"
    write_volume(Volume3D(np.arange(512, dtype=np.int16).reshape(8, 8, 8)), path)
    corrupt(path)
    with pytest.raises(error, match="gzip"):
        read_volume(path)


def test_eval_survives_corrupt_gzip_volumes(tmp_path):
    path = make_manifest(tmp_path, 3)
    entries = json.loads(path.read_text())["entries"]
    truncate(tmp_path / entries[0]["image_path"])
    flip_byte(tmp_path / entries[1]["image_path"], 10)
    out = tmp_path / "run"
    rc = main(["eval", "--manifest", str(path), "--voi", "32x32x16",
               "--segmenter", "builtin", "--hu-window", "50:150", "--out", str(out)])
    assert rc == 0
    records = read_records_csv(out / "records.csv")
    assert [r.lesion_id for r in records] == ["les000", "les001", "les002"]
    for r in records[:2]:
        assert r.flags == frozenset({pl.FLAG_ERROR})
        assert "gzip" in r.error
    assert records[2].flags == frozenset()
    assert records[2].dice == 1.0


def set_scaling(path, slope, inter):
    """Rewrite a NIfTI-1 file uncompressed with scl_slope, scl_inter (bytes 112:120) set."""
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    path.write_bytes(raw[:112] + np.array([slope, inter], dtype="<f4").tobytes() + raw[120:])


# a zero or non-finite slope means unscaled, whatever the intercept
@pytest.mark.parametrize("slope, inter, scaled", [
    (1.0, 0.0, False),
    (0.0, 0.0, False),
    (0.0, -1024.0, False),
    (float("nan"), float("nan"), False),
    (1.0, -1024.0, True),
    (2.0, 0.0, True),
    (0.5, 10.0, True),
    (-1.0, 0.0, True),
])
def test_scaled_intensities_rejected(tmp_path, slope, inter, scaled):
    path = tmp_path / "vol.nii"
    data = np.arange(512, dtype=np.int16).reshape(8, 8, 8)
    write_volume(Volume3D(data), path)
    set_scaling(path, slope, inter)
    if scaled:
        with pytest.raises(UnsupportedScalingError, match="scl_slope"):
            read_volume(path)
    else:
        assert np.array_equal(read_volume(path).data, data)


def test_eval_survives_scaled_volume(tmp_path):
    path = make_manifest(tmp_path, 3)
    entries = json.loads(path.read_text())["entries"]
    set_scaling(tmp_path / entries[1]["image_path"], 1.0, -1024.0)
    out = tmp_path / "run"
    rc = main(["eval", "--manifest", str(path), "--voi", "32x32x16",
               "--segmenter", "builtin", "--hu-window", "50:150", "--out", str(out)])
    assert rc == 0
    records = read_records_csv(out / "records.csv")
    assert [r.flags for r in records] == [frozenset(), frozenset({pl.FLAG_ERROR}), frozenset()]
    assert "scl_slope" in records[1].error
    assert records[0].dice == records[2].dice == 1.0


def test_a_pad_value_the_image_dtype_cannot_hold_flags_each_entry(tmp_path):
    # the default image pad, -1024 HU, does not fit a uint8 image, even where no voxel is padded
    shape = (20, 20, 10)
    lesion = ball(shape, (10, 10, 5), 2)
    write_volume(Volume3D(np.where(lesion, 120, 10).astype(np.uint8)), tmp_path / "img.nii.gz")
    write_volume(Volume3D(lesion.astype(np.uint8)), tmp_path / "mask.nii.gz")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"lesion_id": "l", "patient_id": "p", "image_path": "img.nii.gz", "mask_path": "mask.nii.gz"}]}))
    message = "pad value -1024 does not fit the volume's dtype uint8"
    for command in (["eval"], ["robustness", "--k", "2"]):
        out = tmp_path / command[0]
        assert main([*command, "--manifest", str(manifest), "--voi", "8x8x4", "--segmenter", "builtin",
                     "--hu-window", "100:150", "--out", str(out)]) == 0
        record, = read_records_csv(out / "records.csv")
        assert (record.flags, record.error) == (frozenset({pl.FLAG_ERROR}), message)
    out = tmp_path / "extract"
    assert main(["extract", "--manifest", str(manifest), "--voi", "8x8x4", "--out", str(out)]) == 0
    assert json.loads((out / "index.json").read_text())["samples"] == [{"lesion_id": "l", "error": message}]


def touching_labels_case(tmp_path):
    """Labels 1 and 2 share a face; only label 1 lies in the grow window."""
    shape = (40, 40, 24)
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    labels = np.zeros(shape, dtype=np.uint8)
    one = ball(shape, (16, 20, 12), 4)
    two = ball(shape, (24, 20, 12), 4) & ~one
    image[one] = LESION_HU
    image[two] = 300
    labels[one] = 1
    labels[two] = 2
    img_path = tmp_path / "touch_img.nii.gz"
    mask_path = tmp_path / "touch_mask.nii.gz"
    write_volume(Volume3D(image), img_path)
    write_volume(Volume3D(labels, kind=VolumeKind.LABELED_MASK), mask_path)
    entry = ManifestEntry(lesion_id="one", patient_id="p", image_path=str(img_path),
                          mask_path=str(mask_path), component_label=1)
    return Manifest([entry]), int(one.sum())


def test_touching_labels_do_not_merge(tmp_path):
    manifest, n_one = touching_labels_case(tmp_path)
    image, mask, instance = pl.resolve_lesion(manifest.entries[0], 26)
    assert int(mask.data.sum()) == instance.size_vox == n_one
    cfg = VOICfg(size=(32, 32, 16))
    record = run_dice_eval(manifest, BUILTIN, cfg)[0]
    assert record.flags == frozenset()
    assert record.dice == 1.0
    record = run_robustness_eval(manifest, BUILTIN, cfg, seed_root=3)[0]
    assert (record.dice, record.robustness) == (1.0, 1.0)


def set_f4(path, pos, value):
    """Rewrite a NIfTI-1 file uncompressed with the float32 header field at ``pos`` set."""
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    path.write_bytes(raw[:pos] + np.array(value, dtype="<f4").tobytes() + raw[pos + 4:])


# NIfTI-1 byte offsets: pixdim[1] at 80, vox_offset at 108
@pytest.mark.parametrize("pos", [80, 108], ids=["pixdim", "vox_offset"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "+inf", "-inf"])
def test_non_finite_header_floats_rejected(tmp_path, pos, value):
    path = tmp_path / "vol.nii"
    write_volume(Volume3D(np.arange(512, dtype=np.int16).reshape(8, 8, 8)), path)
    set_f4(path, pos, value)
    with pytest.raises(BadHeaderError):
        read_volume(path)


def test_eval_survives_non_finite_vox_offset(tmp_path):
    path = make_manifest(tmp_path, 3)
    entries = json.loads(path.read_text())["entries"]
    set_f4(tmp_path / entries[1]["image_path"], 108, float("nan"))
    out = tmp_path / "run"
    rc = main(["eval", "--manifest", str(path), "--voi", "32x32x16",
               "--segmenter", "builtin", "--hu-window", "50:150", "--out", str(out)])
    assert rc == 0
    records = read_records_csv(out / "records.csv")
    assert [r.flags for r in records] == [frozenset(), frozenset({pl.FLAG_ERROR}), frozenset()]
    assert "vox_offset" in records[1].error


def non_finite_mask_case(tmp_path, stray):
    """A float32 mask with a 27-voxel cube lesion and ``stray`` written over it."""
    image = np.full((24, 24, 12), BACKGROUND_HU, dtype=np.int16)
    mask = np.zeros(image.shape, dtype=np.float32)
    image[8:11, 8:11, 4:7] = LESION_HU
    mask[8:11, 8:11, 4:7] = 1.0
    stray(mask)
    img_path, mask_path = tmp_path / "img.nii.gz", tmp_path / "mask.nii.gz"
    write_volume(Volume3D(image), img_path)
    write_volume(Volume3D(mask), mask_path)
    entries = [ManifestEntry(lesion_id=lid, patient_id="p", image_path=str(img_path),
                             mask_path=str(mask_path), **extra)
               for lid, extra in (("alone", {}), ("clicked", {"click": (9, 9, 5)}),
                                  ("labeled", {"component_label": 1}))]
    return Manifest(entries)


def _set(index, value):
    def stray(mask):
        mask[index] = value
    return stray


@pytest.mark.parametrize("stray, n_bad", [
    (_set((20, 20, 10), np.nan), 1),  # once it made an unclicked entry "ambiguous"
    (_set((slice(8, 11), slice(8, 11), slice(4, 7)), np.nan), 27),  # once it scored 1.0
    (_set(((1, 20), (1, 20), (1, 10)), (np.inf, -np.inf)), 2),
], ids=["stray-nan", "all-nan", "inf"])
def test_non_finite_mask_voxels_fail_every_entry_of_the_scan(tmp_path, stray, n_bad):
    manifest = non_finite_mask_case(tmp_path, stray)
    mask_path = manifest.entries[0].mask_path
    for entry in manifest.entries:
        with pytest.raises(BadMaskValuesError, match="%d non-finite" % n_bad) as info:
            pl.resolve_lesion(entry, 26)
        assert mask_path in str(info.value)
    records = run_robustness_eval(manifest, BUILTIN, VOICfg(size=(16, 16, 8)), workers=2)
    assert [r.flags for r in records] == [frozenset({pl.FLAG_ERROR})] * 3
    assert len({r.error for r in records}) == 1
    assert "%s has %d non-finite voxels" % (mask_path, n_bad) in records[0].error


def test_finite_float_masks_still_load(tmp_path):
    manifest = non_finite_mask_case(tmp_path, _set((20, 20, 10), 0.0))
    records = run_dice_eval(manifest, BUILTIN, VOICfg(size=(16, 16, 8)))
    assert [(r.dice, r.flags) for r in records] == [(1.0, frozenset())] * 3


@pytest.mark.parametrize("entries", [
    lambda e: [e["lesion_id"]],
    lambda e: [dict(e, click=5)],
    lambda e: [dict(e, click=[1, 2, None])],
    lambda e: [dict(e, component_label=[1])],
    lambda e: 5,
    lambda e: [dict(e, click="123")],
    lambda e: [dict(e, click=[1.7, 2, 3])],
    lambda e: [dict(e, component_label=1.7)],
    lambda e: [dict(e, component_label=True)],
    lambda e: [dict(e, component_label=0)],
    lambda e: [dict(e, click=["1", "2", "3"])],
    lambda e: [dict(e, lesion_id=None)],
    lambda e: [dict(e, lesion_id=True)],
    lambda e: [dict(e, lesion_id=[1])],
    lambda e: [dict(e, lesion_id="")],
    lambda e: [dict(e, patient_id=None)],
    lambda e: [dict(e, patient_id=False)],
    lambda e: [dict(e, patient_id=1.5)],
    lambda e: [dict(e, patient_id={"id": 1})],
    lambda e: [dict(e, image_path=None)],
    lambda e: [dict(e, mask_path=["m.nii.gz"])],
    lambda e: [dict(e, dataset=True)],
    lambda e: [dict(e, location=[1])],
], ids=["string-entry", "int-click", "null-in-click", "list-component-label", "int-entries",
        "string-click", "float-in-click", "float-component-label", "bool-component-label",
        "zero-component-label",
        "strings-in-click", "null-lesion-id", "bool-lesion-id", "list-lesion-id",
        "empty-lesion-id", "null-patient-id", "bool-patient-id", "float-patient-id",
        "object-patient-id", "null-image-path", "list-mask-path", "bool-dataset",
        "list-location"])
def test_malformed_manifest_values_rejected(tmp_path, capsys, entries):
    path = make_manifest(tmp_path, 1)
    valid = json.loads(path.read_text())["entries"][0]
    path.write_text(json.dumps({"entries": entries(valid)}))
    with pytest.raises(ManifestParseError):
        load_manifest(path)
    assert main(["validate", "--manifest", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_csv_integer_strings_still_load(tmp_path):
    path = make_manifest(tmp_path, 1)
    e = json.loads(path.read_text())["entries"][0]
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("lesion_id,patient_id,image_path,mask_path,component_label,"
                        "click_x,click_y,click_z\n%s,%s,%s,%s,1,3,4,5\n"
                        % (e["lesion_id"], e["patient_id"], e["image_path"], e["mask_path"]))
    entry = load_manifest(csv_path).entries[0]
    assert (entry.component_label, entry.click) == (1, (3, 4, 5))


def test_csv_partial_click_rejected(tmp_path):
    path = make_manifest(tmp_path, 1)
    e = json.loads(path.read_text())["entries"][0]
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("lesion_id,patient_id,image_path,mask_path,click_x,click_y,click_z\n"
                        "%s,%s,%s,%s,3,4,\n"
                        % (e["lesion_id"], e["patient_id"], e["image_path"], e["mask_path"]))
    with pytest.raises(ManifestParseError, match=e["lesion_id"]):
        load_manifest(csv_path)
