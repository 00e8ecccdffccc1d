import codecs
import gc
import gzip
import json
import os
import sys
import tempfile
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import ulsforge.pipeline as pl
from adapters import COPY_MASK, EMPTY_MASK, WRONG_DIMS, write_adapter
from oracles import flood_fill_components, instance_from_voxels, label_voxels, loaded_lesion
from synth import BACKGROUND_HU, GROW_WINDOW, LESION_HU, ball, make_case, make_manifest
from ulsforge import (
    EvalRecord,
    GrowParams,
    Manifest,
    ManifestEntry,
    SegmentationResult,
    SegmenterRef,
    VOICfg,
    Volume3D,
    VolumeKind,
    aggregate_by_location,
    build_click_plan,
    compare_models,
    crop_voi,
    dice,
    emit_report,
    isolate_central_lesion,
    load_manifest,
    mean_pairwise_dice,
    place_back,
    read_records_csv,
    read_report,
    read_volume,
    run_dice_eval,
    run_metadata,
    run_robustness_eval,
    save_manifest,
    segment,
    split_patients,
    write_records_csv,
    write_volume,
)
from ulsforge.cli import main
from ulsforge.errors import (
    AmbiguousLesionError,
    BadMagicError,
    BadMaskValuesError,
    ClickNotOnMaskError,
    ClickOutOfVolumeError,
    DimsMismatchError,
    DuplicateLesionIdError,
    EmptyInstanceError,
    EmptyRecordsError,
    ManifestParseError,
    MissingFileError,
    NoPatientsError,
    PairingMismatchError,
    TruncatedDataError,
    UlsforgeError,
)

BUILTIN = SegmenterRef.builtin(GrowParams(hu_window=GROW_WINDOW))
SMALL_CFG = VOICfg(size=(32, 32, 16))


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_load_manifest_json(tmp_path):
    path = make_manifest(tmp_path, 4, lesions_per_patient=2)
    manifest = load_manifest(path)
    assert len(manifest.entries) == 4
    assert manifest.patients() == ["pat000", "pat001"]
    assert manifest.datasets() == ["synthetic"]
    img, msk = make_case(tmp_path, "c0")  # integer ids read as their decimal text, as in a CSV
    (tmp_path / "ints.json").write_text(json.dumps({"entries": [
        {"lesion_id": 7, "patient_id": 12, "image_path": img.name, "mask_path": msk.name}]}))
    entry, = load_manifest(tmp_path / "ints.json").entries
    assert (entry.lesion_id, entry.patient_id) == ("7", "12")


def test_the_overall_location_is_refused_in_a_manifest(tmp_path):
    path = make_manifest(tmp_path, 2)
    doc = json.loads(path.read_text())
    doc["entries"][1]["location"] = "(all)"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestParseError, match=r"entry '%s': location '\(all\)' is reserved"
                       % doc["entries"][1]["lesion_id"]):
        load_manifest(path)


def test_empty_manifest_is_valid(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": []}))
    assert load_manifest(path).entries == []


def test_duplicate_lesion_id_rejected(tmp_path):
    img, msk = make_case(tmp_path, "c0")
    entry = {"lesion_id": "dup", "patient_id": "p", "image_path": img.name,
             "mask_path": msk.name}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [entry, dict(entry)]}))
    with pytest.raises(DuplicateLesionIdError):
        load_manifest(path)


def test_missing_files_listed_exhaustively(tmp_path):
    img, msk = make_case(tmp_path, "c0")
    entries = [
        {"lesion_id": "a", "patient_id": "p", "image_path": img.name,
         "mask_path": "gone_mask.nii.gz"},
        {"lesion_id": "b", "patient_id": "p", "image_path": "gone_img.nii.gz",
         "mask_path": msk.name},
    ]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": entries}))
    with pytest.raises(MissingFileError) as err:
        load_manifest(path)
    assert len(err.value.missing) == 2


def test_csv_import(tmp_path):
    img, msk = make_case(tmp_path, "c0")
    csv_path = tmp_path / "m.csv"
    text = ("lesion_id,patient_id,dataset,location,image_path,mask_path,click_x,click_y,click_z\n"
            "l1,p1,setA,liver,%s,%s,24,24,16\n" % (img.name, msk.name))
    csv_path.write_text(text)
    manifest = load_manifest(csv_path)
    assert manifest.entries[0].click == (24, 24, 16)
    assert manifest.entries[0].dataset == "setA"
    # a byte-order mark, as Excel's "CSV UTF-8" writes one, reads as none, in CSV and JSON
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert load_manifest(tmp_path / "bom.csv") == manifest
    save_manifest(manifest, tmp_path / "m.json")
    (tmp_path / "bom.json").write_bytes(codecs.BOM_UTF8 + (tmp_path / "m.json").read_bytes())
    assert load_manifest(tmp_path / "bom.json") == manifest


def test_table_style_row_counts(tmp_path):
    # a manifest listing thousands of lesion rows for one dataset loads 1:1
    img, msk = make_case(tmp_path, "c0")
    entries = [
        {"lesion_id": "l%05d" % i, "patient_id": "p%04d" % (i // 3),
         "dataset": "whole-body", "image_path": img.name, "mask_path": msk.name}
        for i in range(5737)
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"entries": entries}))
    manifest = load_manifest(path)
    assert sum(1 for e in manifest.entries if e.dataset == "whole-body") == 5737


def test_save_load_roundtrip(tmp_path):
    path = make_manifest(tmp_path, 3)
    manifest = load_manifest(path)
    out = tmp_path / "copy.json"
    save_manifest(manifest, out)
    again = load_manifest(out)
    assert [e.lesion_id for e in again.entries] == [e.lesion_id for e in manifest.entries]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def entries_for_patients(tmp_path, lesions_per_patient):
    img, msk = make_case(tmp_path, "c0")
    entries = []
    for p, n in enumerate(lesions_per_patient):
        for j in range(n):
            entries.append(ManifestEntry(
                lesion_id="p%d-l%d" % (p, j), patient_id="pat%d" % p,
                image_path=str(img), mask_path=str(msk)))
    return Manifest(entries)


def test_split_fraction_arithmetic(tmp_path):
    manifest = entries_for_patients(tmp_path, [1] * 10)
    train, test = split_patients(manifest, 0.2, seed=1)
    assert len(test.patients()) == 2
    assert len(train.patients()) == 8


def test_split_never_separates_a_patient(tmp_path):
    manifest = entries_for_patients(tmp_path, [5, 1, 2, 3, 4])
    train, test = split_patients(manifest, 0.4, seed=3)
    train_p = set(train.patients())
    test_p = set(test.patients())
    assert not train_p & test_p
    assert train_p | test_p == set(manifest.patients())
    all_ids = {e.lesion_id for e in manifest.entries}
    assert {e.lesion_id for e in train.entries} | {e.lesion_id for e in test.entries} == all_ids
    for side in (train, test):
        for e in side.entries:
            assert e.patient_id in (set(side.patients()))


def test_split_deterministic(tmp_path):
    manifest = entries_for_patients(tmp_path, [2] * 7)
    a = split_patients(manifest, 0.3, seed=42)
    b = split_patients(manifest, 0.3, seed=42)
    assert [e.lesion_id for e in a[1].entries] == [e.lesion_id for e in b[1].entries]
    c = split_patients(manifest, 0.3, seed=43)
    assert ([e.lesion_id for e in a[1].entries]
            != [e.lesion_id for e in c[1].entries])


def test_split_guards(tmp_path):
    with pytest.raises(NoPatientsError):
        split_patients(Manifest([]), 0.2, 0)
    manifest = entries_for_patients(tmp_path, [1, 1])
    with pytest.raises(ValueError):
        split_patients(manifest, 1.0, 0)


def test_split_refuses_a_test_fraction_of_zero(tmp_path):
    """The fraction lies in the open interval (0, 1): no patient for the test side is no split."""
    with pytest.raises(ValueError, match=r"test_fraction must be in \(0, 1\), got 0.0"):
        split_patients(entries_for_patients(tmp_path, [1, 1]), 0.0, 0)


# ---------------------------------------------------------------------------
# evaluation runs
# ---------------------------------------------------------------------------


def test_builtin_dice_run_is_perfect(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 5))
    records = run_dice_eval(manifest, BUILTIN, SMALL_CFG)
    assert len(records) == 5
    assert [r.lesion_id for r in records] == sorted(r.lesion_id for r in records)
    for r in records:
        assert r.dice == 1.0
        assert r.flags == frozenset()
        assert r.robustness is None


def _cube_entry(tmp_path, z0):
    """A 20x18x12 int16 scan and its mask, with a 4x4x4 lesion at z0 to z0 + 4."""
    image = np.full((20, 18, 12), BACKGROUND_HU, dtype=np.int16)
    image[8:12, 7:11, z0:z0 + 4] = LESION_HU
    img, msk = tmp_path / "cube_image.nii.gz", tmp_path / "cube_mask.nii.gz"
    write_volume(Volume3D(image), img)
    write_volume(Volume3D((image == LESION_HU).astype(np.uint8), kind=VolumeKind.BINARY_MASK), msk)
    return ManifestEntry(lesion_id="cube", patient_id="p", image_path=str(img), mask_path=str(msk))


@pytest.mark.parametrize("max_voxels, flags, expected", [(8, {pl.FLAG_TRUNCATED}, 2 * 8 / (8 + 64)),
                                                        (64, set(), 1.0)])
def test_a_grow_cut_at_max_voxels_is_flagged_truncated(tmp_path, max_voxels, flags, expected):
    entry = _cube_entry(tmp_path, z0=4)  # inside the 8x8x4 VOI of its centroid
    seg = SegmenterRef.builtin(GrowParams(hu_window=GROW_WINDOW, max_voxels=max_voxels))
    record, = run_dice_eval(Manifest([entry]), seg, VOICfg(size=(8, 8, 4)))
    assert record.flags == flags and not record.error
    assert record.dice == expected


def test_a_gzip_image_one_slice_short_fails_as_read_volume_does(tmp_path):
    entry = _cube_entry(tmp_path, z0=8)  # the 8x8x4 VOI's image box reaches the last slice
    img = tmp_path / "cube_image.nii.gz"
    img.write_bytes(gzip.compress(gzip.decompress(img.read_bytes())[:-20 * 18 * 2]))  # a valid stream
    with pytest.raises(TruncatedDataError) as info:
        read_volume(img)
    assert str(info.value).endswith("expected 8640 data bytes, found 7920")
    record, = run_dice_eval(Manifest([entry]), BUILTIN, VOICfg(size=(8, 8, 4)))
    assert record.error == str(info.value)


@pytest.mark.parametrize("case, error, message", [
    ("dims", DimsMismatchError, r"image dims \(40, 48, 32\) != mask dims \(48, 48, 32\)"),
    ("absent-label", EmptyInstanceError, "component_label 5 not present in "),
    ("empty-mask", EmptyInstanceError, "empty_mask.nii.gz is empty"),
    ("click-outside", ClickOutOfVolumeError, r"recorded click \(48, 0, 0\) outside volume dims"),
    ("click-background", ClickNotOnMaskError, r"recorded click \(0, 0, 0\) is background in "),
    ("ambiguous", AmbiguousLesionError,
     "has 2 components; set component_label or click to disambiguate"),
    ("truncated-image-gone-mask", TruncatedDataError, "broken_image.nii.gz: gzip stream ends early"),
    ("corrupt-image-nan-mask", BadMagicError, "broken_image.nii.gz: corrupt gzip stream"),
    ("short-plain-image-dims", TruncatedDataError, r"short\.nii: expected 122880 data bytes, found"),
    ("gone-image", FileNotFoundError, r"No such file or directory: .*gone\.nii"),
])
def test_resolve_lesion_error_classes(tmp_path, case, error, message):
    """The reference raises each fault, and a run's record of the entry names it alike."""
    two = [str(p) for p in make_case(tmp_path, "two", centers=((12, 12, 8), (36, 36, 24)))]
    empty = [str(p) for p in make_case(tmp_path, "empty", centers=())]
    small_image = str(make_case(tmp_path, "small", shape=(40, 48, 32))[0])
    broken = make_case(tmp_path, "broken")
    faults = {"truncated-image-gone-mask": ("truncated", "gone"), "corrupt-image-nan-mask": ("crc", "nan")}
    if case in faults:
        _break_image(broken[0], faults[case][0])
        _break_mask(broken[1], faults[case][1])
    short = tmp_path / "short.nii"  # plain, 40x48x32, 100 bytes short
    write_volume(read_volume(small_image), short)
    short.write_bytes(short.read_bytes()[:-100])
    paths = {"dims": (small_image, two[1]), "empty-mask": tuple(empty),
             "short-plain-image-dims": (str(short), two[1]),
             "gone-image": (str(tmp_path / "gone.nii"), two[1]),
             **dict.fromkeys(faults, tuple(map(str, broken)))}.get(case, tuple(two))
    extra = {"absent-label": {"component_label": 5}, "click-outside": {"click": (48, 0, 0)},
             "click-background": {"click": (0, 0, 0)}}.get(case, {})
    entry = ManifestEntry(lesion_id="x", patient_id="p", image_path=paths[0],
                          mask_path=paths[1], **extra)
    with pytest.raises(error, match=message) as info:
        pl.resolve_lesion(entry, 26)
    assert type(info.value) is error
    record, = run_dice_eval(Manifest([entry]), BUILTIN, SMALL_CFG)
    assert record.error == " ".join(str(info.value).split())


def test_copy_adapter_echoes_ground_truth(tmp_path):
    # adapter copies its own input VOI mask: crop the GT with the same click
    manifest = load_manifest(make_manifest(tmp_path, 2))
    records = {}
    for entry in manifest.entries:
        image, mask, instance = pl.resolve_lesion(entry, 26)
        from ulsforge import crop_voi, isolate_central_lesion, write_volume
        voi = crop_voi(image, mask, instance.center, SMALL_CFG)
        gt_local = isolate_central_lesion(voi.mask, voi.local_click, 26)
        gt_path = tmp_path / ("%s_gtvoi.nii.gz" % entry.lesion_id)
        write_volume(gt_local, gt_path)
        command = write_adapter(tmp_path, COPY_MASK,
                                name="copy_%s.py" % entry.lesion_id) + " " + str(gt_path)
        single = Manifest([entry])
        recs = run_dice_eval(single, SegmenterRef.external(command), SMALL_CFG)
        records[entry.lesion_id] = recs[0]
    assert all(r.dice == 1.0 for r in records.values())


def test_empty_adapter_zero_dice_with_flag(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 2))
    command = write_adapter(tmp_path, EMPTY_MASK)
    records = run_dice_eval(manifest, SegmenterRef.external(command), SMALL_CFG)
    for r in records:
        assert r.dice == 0.0
        assert pl.FLAG_EMPTY_PREDICTION in r.flags


def test_malformed_adapter_yields_flagged_records(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 3))
    command = write_adapter(tmp_path, WRONG_DIMS)
    records = run_dice_eval(manifest, SegmenterRef.external(command), SMALL_CFG)
    assert len(records) == len(manifest.entries)
    for r in records:
        assert pl.FLAG_ERROR in r.flags
        assert "dims" in r.error
        assert r.dice == 0.0


@dataclass(frozen=True)
class ThresholdSegmenter:
    """A third kind of segmenter, known only to this test: every voxel at or above ``floor``.

    It has the shape of ``SegmenterRef`` and nothing from the segmenter module.
    """

    kind = "threshold"
    floor: float

    @property
    def model_id(self):
        return "threshold[%g]" % self.floor

    def segment(self, voi_image, local_click):
        mask = (voi_image.data >= self.floor).astype(np.uint8)
        return SegmentationResult(voi_image.with_data(mask, VolumeKind.BINARY_MASK))


def test_a_new_segmenter_kind_runs_without_changes_to_the_pipeline(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 3))
    seg = ThresholdSegmenter(floor=LESION_HU)
    records = run_dice_eval(manifest, seg, SMALL_CFG)
    assert [(r.model_id, r.dice, r.flags) for r in records] == \
        [("threshold[%g]" % LESION_HU, 1.0, frozenset())] * 3
    assert run_metadata(seg, SMALL_CFG, 26)["model_id"] == "threshold[%g]" % LESION_HU
    records = run_dice_eval(manifest, ThresholdSegmenter(floor=LESION_HU + 1), SMALL_CFG)
    assert all(r.dice == 0.0 and pl.FLAG_EMPTY_PREDICTION in r.flags for r in records)


def test_builtin_robustness_is_perfect_for_interior_lesions(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 4))
    records = run_robustness_eval(manifest, BUILTIN, SMALL_CFG, seed_root=7)
    assert len(records) == 4
    for r in records:
        assert r.dice == 1.0
        assert r.robustness == 1.0
        assert r.seed_root == 7


def test_robustness_issues_three_segmentations_per_lesion(tmp_path, monkeypatch):
    manifest = load_manifest(make_manifest(tmp_path, 3))
    calls = []
    real = pl.segment

    def counting(voi_image, local_click, ref):
        calls.append(local_click)
        return real(voi_image, local_click, ref)

    monkeypatch.setattr(pl, "segment", counting)
    run_robustness_eval(manifest, BUILTIN, SMALL_CFG, seed_root=0, k=2, workers=1)
    assert len(calls) == 3 * len(manifest.entries)


def test_empty_adapter_robustness_is_one_by_convention(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 2))
    command = write_adapter(tmp_path, EMPTY_MASK)
    records = run_robustness_eval(manifest, SegmenterRef.external(command),
                                  SMALL_CFG, seed_root=0)
    for r in records:
        assert r.robustness == 1.0  # empty-vs-empty convention
        assert r.dice == 0.0
        assert pl.FLAG_EMPTY_PREDICTION in r.flags


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("message, error", [("", "MemoryError"),
                                            ("Unable to allocate 2.00 GiB", "Unable to allocate 2.00 GiB")])
def test_a_lesion_that_runs_out_of_memory_fails_alone(tmp_path, monkeypatch, workers, message, error):
    """A MemoryError while segmenting one lesion is that lesion's error
    record; the run exits 0 and every other record is an unpatched run's."""
    manifest = make_manifest(tmp_path, 4)
    argv = ["eval", "--manifest", str(manifest), "--voi", "32x32x16", "--workers", str(workers),
            "--segmenter", "builtin", "--hu-window", "50:150"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    current = threading.local()  # the lesion each worker thread is scoring
    take, real = pl.ScanLoader.lesion, pl.segment

    def taken(loader, entry):
        current.lesion_id = entry.lesion_id
        return take(loader, entry)

    def segment_or_fail(voi_image, local_click, ref):
        if current.lesion_id == "les002":
            raise MemoryError(message)
        return real(voi_image, local_click, ref)

    monkeypatch.setattr(pl.ScanLoader, "lesion", taken)
    monkeypatch.setattr(pl, "segment", segment_or_fail)
    assert main([*argv, "--out", str(tmp_path / "failed")]) == 0
    plain = read_records_csv(tmp_path / "plain" / "records.csv")
    failed = read_records_csv(tmp_path / "failed" / "records.csv")
    assert [r.lesion_id for r in failed] == [r.lesion_id for r in plain]
    for a, b in zip(plain, failed):
        if b.lesion_id == "les002":
            assert b.error == error and b.flags == frozenset({pl.FLAG_ERROR}) and b.dice == 0.0
        else:
            assert b == a


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("image", ["intact", "truncated"])
def test_a_scan_whose_load_runs_out_of_memory_is_read_once(tmp_path, monkeypatch, workers, image):
    """Three lesions of one scan whose mask search runs out of memory: the
    scan is read once, and each lesion's record is that MemoryError, or the
    image's own fault, which wins."""
    centers = ((10, 10, 8), (24, 24, 16), (36, 36, 24))
    img, msk = make_case(tmp_path, "three", centers=centers)
    if image == "truncated":
        img.write_bytes(img.read_bytes()[:-100])
    entries = [ManifestEntry(lesion_id="l%d" % i, patient_id="p", image_path=str(img),
                             mask_path=str(msk), click=c) for i, c in enumerate(centers)]
    calls = []

    def out_of_memory(*args):
        calls.append(args)
        raise MemoryError("Unable to allocate 1.00 GiB")

    monkeypatch.setattr(pl, "_find_lesions", out_of_memory)
    records = run_dice_eval(Manifest(entries), BUILTIN, SMALL_CFG, workers=workers)
    error = ("Unable to allocate 1.00 GiB" if image == "intact"
             else "%s: gzip stream ends early" % img)
    assert [(r.lesion_id, r.error, r.flags) for r in records] == [
        ("l%d" % i, error, frozenset({pl.FLAG_ERROR})) for i in range(3)]
    assert len(calls) == 1


def test_run_determinism_across_worker_counts(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 6, lesions_per_patient=2))
    a = run_robustness_eval(manifest, BUILTIN, SMALL_CFG, seed_root=99, workers=1)
    b = run_robustness_eval(manifest, BUILTIN, SMALL_CFG, seed_root=99, workers=4)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_records_csv(a, path_a)
    write_records_csv(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_worker_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("ULSFORGE_WORKERS", "1")
    assert pl._effective_workers(8) == 1
    monkeypatch.delenv("ULSFORGE_WORKERS")
    assert pl._effective_workers(3) == 3


@pytest.mark.parametrize("value", ["0", "-1", "abc", ""])
def test_a_worker_cap_that_is_not_a_positive_integer_raises(monkeypatch, value):
    monkeypatch.setenv("ULSFORGE_WORKERS", value)
    with pytest.raises(ValueError, match="ULSFORGE_WORKERS must be a positive integer"):
        pl._effective_workers(3)


def test_each_scan_loads_once_at_every_worker_count(tmp_path, monkeypatch):
    shape = (48, 48, 32)
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    labels = np.zeros(shape, dtype=np.uint8)
    for label, (center, radius) in enumerate([((12, 12, 8), 4), ((19, 12, 8), 3),
                                              ((34, 34, 22), 4)], 1):  # labels 1 and 2 touch
        blob = ball(shape, center, radius)
        image[blob] = LESION_HU
        labels[blob] = label
    scan = (str(tmp_path / "labeled_image.nii.gz"), str(tmp_path / "labeled_mask.nii.gz"))
    write_volume(Volume3D(image), scan[0])
    write_volume(Volume3D(labels), scan[1])
    single = tuple(str(p) for p in make_case(tmp_path, "single"))
    broken = make_case(tmp_path, "broken")
    raw = broken[0].read_bytes()
    broken[0].write_bytes(raw[:len(raw) // 2])
    broken = tuple(str(p) for p in broken)
    mismatched = make_case(tmp_path, "mismatched")  # its mask is one slice short
    write_volume(Volume3D(np.zeros((48, 48, 31), np.uint8), kind=VolumeKind.BINARY_MASK), mismatched[1])
    mismatched = tuple(str(p) for p in mismatched)
    nan_mask = make_case(tmp_path, "nan")  # a float32 mask with one NaN voxel
    values = read_volume(nan_mask[1]).data.astype(np.float32)
    values[0, 0, 0] = np.nan
    write_volume(Volume3D(values), nan_mask[1])
    nan_mask = tuple(str(p) for p in nan_mask)
    gone = tuple(str(p) for p in make_case(tmp_path, "gone"))  # its image is deleted below
    cases = [
        ("l-click", scan, {"click": (12, 12, 8)}, True),
        ("l-label1", scan, {"component_label": 1}, True),
        ("l-background", scan, {"click": (0, 0, 0)}, False),
        ("l-label3", scan, {"component_label": 3}, True),
        ("l-absent", scan, {"component_label": 7}, False),
        ("l-ambiguous", scan, {}, False),
        ("l-click3", scan, {"click": (34, 34, 22)}, True),
        ("s-only", single, {}, True),
        ("s-label", single, {"component_label": 1}, True),
        ("t-a", broken, {"click": (24, 24, 16)}, False),
        ("t-b", broken, {}, False),
        ("d-a", mismatched, {}, False),
        ("d-b", mismatched, {"component_label": 1}, False),
        ("n-a", nan_mask, {}, False),
        ("n-b", nan_mask, {"click": (24, 24, 16)}, False),
        ("g-a", gone, {}, False),
        ("g-b", gone, {"component_label": 1}, False),
    ]
    manifest = Manifest([ManifestEntry(lesion_id=lid, patient_id="p", image_path=paths[0],
                                       mask_path=paths[1], **extra)
                         for lid, paths, extra, _ in cases])
    os.remove(gone[0])  # Manifest checks no file
    errors = {"d": "image dims (48, 48, 32) != mask dims (48, 48, 31)",
              "n": "mask %s has 1 non-finite voxels (NaN or infinite)" % nan_mask[1],
              "g": "[Errno 2] No such file or directory: '%s'" % gone[0]}
    for prefix, kind in (("d", DimsMismatchError), ("n", BadMaskValuesError), ("g", FileNotFoundError)):
        entry = next(e for e in manifest.entries if e.lesion_id.startswith(prefix))
        with pytest.raises(kind) as info:
            pl.resolve_lesion(entry, 26)
        assert str(info.value) == errors[prefix]
    reads, labeled = [], []  # (path, step) in the order the load takes them; labeled dims
    real_label = pl.label_components

    class Reader(pl._NiftiFile):  # a file: its header read when opened, its payload once
        def __init__(self, path):
            reads.append((path, "open"))
            super().__init__(path)

        def read_boxes(self, boxes, pad=0):  # the image's payload, into boxes
            reads.append((str(self.path), "boxes"))
            return super().read_boxes(boxes, pad)

        def read_foreground(self):  # the mask's payload, into its foreground box
            reads.append((str(self.path), "mask"))
            return super().read_foreground()

    monkeypatch.setattr(pl, "_NiftiFile", Reader)
    monkeypatch.setattr(pl, "label_components",
                        lambda mask, c: labeled.append(mask.dims) or real_label(mask, c))
    csv_bytes = []
    interval = sys.getswitchinterval()
    for workers in (1, 4):
        reads.clear()
        labeled.clear()
        sys.setswitchinterval(1e-6)  # interleave the workers as often as the interpreter can
        try:
            with ThreadPoolExecutor(1) as pool:
                records = pool.submit(run_robustness_eval, manifest, BUILTIN, SMALL_CFG,
                                      seed_root=3, workers=workers).result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        # a scan is read once however its load ends: the image opened, then the mask opened
        # and read, then the image's payload read or, after a fault of the mask, checked; a
        # gone image's mask is never opened
        for img, msk in (scan, single, broken, mismatched, nan_mask):
            assert [r for r in reads if r[0] in (img, msk)] == [
                (img, "open"), (msk, "open"), (msk, "mask"), (img, "boxes")]
        assert [r for r in reads if r[0] in gone] == [(gone[0], "open")]
        assert len(reads) == 4 * 5 + 1
        # one foreground-box labeling per scan with an unlabeled entry whose mask reads and
        # checks, the broken image's too: its mask is read before its payload
        assert len(labeled) == 3
        ok = {lid: good for lid, _, _, good in cases}
        assert {r.lesion_id: pl.FLAG_ERROR not in r.flags for r in records} == ok
        assert {r.lesion_id: r.error for r in records if r.lesion_id[0] in errors} == {
            lid: errors[lid[0]] for lid in ok if lid[0] in errors}
        path = tmp_path / ("records_%d.csv" % workers)
        write_records_csv(records, path)
        csv_bytes.append(path.read_bytes())
    assert csv_bytes[0] == csv_bytes[1]


def test_interleaved_manifest_holds_about_one_scan_per_worker(tmp_path, monkeypatch):
    # six scans of three lesions each, listed round-robin: no two lesions of a scan are adjacent
    centers = ((10, 10, 8), (30, 30, 20))
    scans = [tuple(str(p) for p in make_case(tmp_path, "s%d" % s, centers=centers))
             for s in range(6)]
    entries = [ManifestEntry(lesion_id="s%d-%d" % (s, i), patient_id="p", image_path=img,
                             mask_path=msk, click=click)
               for i, click in enumerate(centers + ((0, 0, 0),))  # a background click fails
               for s, (img, msk) in enumerate(scans)]
    held, peak = [], []  # weak references to each scan's image boxes; scans held after each read

    class Image(pl._NiftiFile):
        def read_boxes(self, boxes, pad=0):
            arrays = super().read_boxes(boxes, pad)
            held.append([weakref.ref(a) for a in arrays])
            peak.append(sum(any(ref() is not None for ref in refs) for refs in held))
            return arrays

    monkeypatch.setattr(pl, "_NiftiFile", Image)
    manifest_path = tmp_path / "interleaved.json"
    save_manifest(Manifest(entries), manifest_path)
    gc.disable()  # a scan must be freed by reference counting, not by a later collection
    try:
        for workers in (1, 3):
            held.clear()
            peak.clear()
            records = run_robustness_eval(Manifest(entries), BUILTIN, SMALL_CFG, seed_root=1,
                                          workers=workers)
            assert len(peak) == len(scans) and max(peak) <= workers + 1
            assert sum(pl.FLAG_ERROR in r.flags for r in records) == len(scans)
        held.clear()
        peak.clear()
        out = tmp_path / "voi"
        assert main(["extract", "--manifest", str(manifest_path), "--voi", "32x32x16",
                     "--out", str(out)]) == 0
        assert len(peak) == len(scans) and max(peak) <= 2
    finally:
        gc.enable()
    index = json.loads((out / "index.json").read_text())
    assert [row["lesion_id"] for row in index["samples"]] == [e.lesion_id for e in entries]


def test_two_workers_read_two_scans_at_once(tmp_path, monkeypatch):
    # two lesions per scan, listed scan by scan: the second worker must not wait on the first scan
    monkeypatch.delenv("ULSFORGE_WORKERS", raising=False)
    centers = ((10, 10, 8), (30, 30, 20))
    scans = [tuple(str(p) for p in make_case(tmp_path, "s%d" % s, centers=centers))
             for s in range(2)]
    entries = [ManifestEntry(lesion_id="s%d-%d" % (s, i), patient_id="p", image_path=img,
                             mask_path=msk, click=click)
               for s, (img, msk) in enumerate(scans) for i, click in enumerate(centers)]
    both_reading, passed = threading.Barrier(2, timeout=20), []

    class Reader(pl._NiftiFile):  # each load opens its image, then its mask
        def __init__(self, path):
            both_reading.wait()  # raises BrokenBarrierError unless the other scan is being read
            passed.append(path)
            super().__init__(path)

    monkeypatch.setattr(pl, "_NiftiFile", Reader)
    records = run_robustness_eval(Manifest(entries), BUILTIN, SMALL_CFG, seed_root=2, workers=2)
    assert sorted(passed) == sorted(path for scan in scans for path in scan)
    assert [(r.lesion_id, r.dice, r.robustness) for r in records] == \
        [(e.lesion_id, 1.0, 1.0) for e in entries]


def _break_image(path, fault):
    """Give the gzip image at ``path`` one fault; the file is gone for "gone"."""
    raw = path.read_bytes()
    plain = gzip.decompress(raw)
    broken = {
        "truncated": lambda: raw[:len(raw) // 2],  # the gzip stream ends early
        "crc": lambda: raw[:-8] + bytes(b ^ 0xFF for b in raw[-8:-4]) + raw[-4:],  # a fault past the payload
        "short-payload": lambda: gzip.compress(plain[:-100], mtime=0),  # a whole stream, too few bytes
        "datatype": lambda: gzip.compress(plain[:70] + b"\x40\x00" + plain[72:], mtime=0),  # float64
        "bad-header-truncated": lambda: gzip.compress(b"\x00" * 352 + plain[352:], mtime=0)[:100],
    }
    if fault == "gone":
        os.remove(path)
    else:
        path.write_bytes(broken[fault]())


def _break_mask(path, fault):
    """Give the mask at ``path`` one fault; the file is gone for "gone"."""
    if fault == "gone":
        os.remove(path)
    elif fault == "truncated":
        path.write_bytes(path.read_bytes()[:200])
    else:
        values = read_volume(path).data
        if fault == "nan":
            values = values.astype(np.float32)
            values[0, 0, 0] = np.nan
        else:  # "short": one slice fewer than the image
            values = values[:, :, :-1]
        write_volume(Volume3D(values), path)


@pytest.mark.parametrize("image_fault", ["truncated", "crc", "short-payload", "datatype",
                                         "bad-header-truncated", "gone"])
def test_a_fault_of_the_image_wins_over_any_fault_of_its_mask(tmp_path, monkeypatch, image_fault):
    mask_faults = ["nan", "short", "truncated", "gone"]
    pairs = {f: make_case(tmp_path, f, centers=((24, 24, 16), (8, 8, 8))) for f in mask_faults}
    expected = {}
    for fault, (img, msk) in pairs.items():
        _break_image(img, image_fault)
        with pytest.raises((UlsforgeError, OSError)) as info:
            read_volume(img)
        expected[fault] = (type(info.value), str(info.value))
        _break_mask(msk, fault)
    entries = [ManifestEntry(lesion_id="%s-%s" % (fault, how), patient_id="p", image_path=str(img),
                             mask_path=str(msk), **extra)
               for fault, (img, msk) in pairs.items()
               for how, extra in (("click", {"click": (24, 24, 16)}), ("label", {"component_label": 1}),
                                  ("none", {}))]
    reads = Counter()

    class Reader(pl._NiftiFile):
        def __init__(self, path):
            reads.update([str(path)])
            super().__init__(path)

    monkeypatch.setattr(pl, "_NiftiFile", Reader)
    for workers in (1, 2):
        records = run_robustness_eval(Manifest(entries), BUILTIN, SMALL_CFG, seed_root=1,
                                      workers=workers)
        assert {r.lesion_id: r.error for r in records} == {
            e.lesion_id: expected[e.lesion_id.split("-")[0]][1] for e in entries}
    for entry in entries:
        with pytest.raises((UlsforgeError, OSError)) as info:
            pl.resolve_lesion(entry, 26)
        assert (type(info.value), str(info.value)) == expected[entry.lesion_id.split("-")[0]]
    assert reads.keys() >= {str(img) for img, _ in pairs.values()}  # every load opens through here
    if image_fault == "gone":  # the image is opened first, so its mask is never opened
        assert not reads.keys() & {str(msk) for _, msk in pairs.values()}


def global_frame_scores(image, mask, instance, lesion_id, seg, cfg, seed_root, k,
                        connectivity=26):
    """(dice, robustness) with every mask placed back into the whole volume."""
    preds = []
    for click in build_click_plan(instance, seed_root, lesion_id, k=k).all_clicks():
        voi = crop_voi(image, mask, click, cfg)
        if not preds:
            gt = place_back(isolate_central_lesion(voi.mask, voi.local_click, connectivity),
                            image.dims, voi.offset)
        pred = segment(voi.image, voi.local_click, seg).mask
        preds.append(place_back(pred, image.dims, voi.offset))
    return dice(preds[0], gt), mean_pairwise_dice(preds) if k else None


def test_voi_box_scores_equal_global_frame_scores(tmp_path):
    # the window holds the -1024 pad, so every prediction covers padded voxels
    seg = SegmenterRef.builtin(GrowParams(hu_window=(-1100, 200)))
    centers = ((2, 3, 2), (45, 44, 30), (24, 1, 16))
    img, msk = (str(p) for p in make_case(tmp_path, "edges", centers=centers))
    entries = [ManifestEntry(lesion_id="e%d" % i, patient_id="p", image_path=img,
                             mask_path=msk, click=c) for i, c in enumerate(centers)]

    def global_frame(entry, cfg, seed_root, k):
        image, mask, instance = pl.resolve_lesion(entry, 26)
        return global_frame_scores(image, mask, instance, entry.lesion_id, seg, cfg, seed_root, k)

    runs = [(run_dice_eval(Manifest(entries), seg, SMALL_CFG), None, 0),
            (run_robustness_eval(Manifest(entries), seg, SMALL_CFG, seed_root=5), 5, 2)]
    for records, seed_root, k in runs:
        assert all(not r.flags for r in records)
        assert [(r.dice, r.robustness) for r in records] == \
            [global_frame(e, SMALL_CFG, seed_root, k) for e in entries]


@seed(20240607)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(2, 14)] * 3),
       size=st.tuples(*[st.sampled_from([2, 4, 6, 10])] * 3), rng_seed=st.integers(0, 2 ** 16),
       fill=st.sampled_from([0.05, 0.3, 0.9]),
       hu_window=st.sampled_from([(-1100, 200), GROW_WINDOW]), k=st.integers(0, 3),
       connectivity=st.sampled_from([6, 18, 26]))
def test_voi_frame_scores_equal_global_frame_scores_property(
        data, shape, size, rng_seed, fill, hu_window, k, connectivity):
    """Any lesion voxel set and VOI size: the record's scores, counted in the
    VOIs, are the scores of the masks placed back into the volume.

    Scattered lesions give windows that hang off faces or miss each other;
    background clicks give empty predictions; the (-1100, 200) window grows
    over the -1024 image padding.
    """
    rng = np.random.default_rng(rng_seed)
    lesion = rng.random(shape) < fill
    lesion[tuple(data.draw(st.integers(0, n - 1)) for n in shape)] = True
    image = Volume3D(np.where(rng.random(shape) < 0.7, LESION_HU, BACKGROUND_HU).astype(np.int16))
    mask = Volume3D(lesion.astype(np.uint8), kind=VolumeKind.BINARY_MASK)
    instance = instance_from_voxels(1, np.argwhere(lesion))
    entry = ManifestEntry(lesion_id="l", patient_id="p", image_path="-", mask_path="-")
    seg = SegmenterRef.builtin(GrowParams(hu_window=hu_window, connectivity=connectivity))
    cfg = VOICfg(size=size)
    seed_root = data.draw(st.integers(0, 99)) if k else None
    plan = build_click_plan(instance, seed_root, "l", k=k)  # the plan a load builds
    lesion = loaded_lesion(image, mask.spacing, instance, plan, cfg)
    record = pl._eval_one(entry, lesion, seg, cfg, connectivity, "m", seed_root)
    assert pl.FLAG_ERROR not in record.flags, record.error
    assert (record.dice, record.robustness) == global_frame_scores(
        image, mask, instance, "l", seg, cfg, seed_root, k, connectivity)
    # at every click, as extract takes them, the VOI is the crop of the whole-volume mask
    for click in plan.all_clicks():
        crop = crop_voi(image, mask, click, cfg)
        truth = isolate_central_lesion(crop.mask, crop.local_click, connectivity)
        voi = lesion.voi(click, cfg, connectivity)
        assert (voi.image, voi.offset, voi.mask) == (crop.image, crop.offset, truth)
        assert voi.mask.header_meta is truth.header_meta is None


def test_multi_component_mask_needs_disambiguation(tmp_path):
    img, msk = make_case(tmp_path, "two", centers=((10, 10, 10), (30, 30, 20)),
                         shape=(48, 48, 32))
    entries = [ManifestEntry(lesion_id="ambiguous", patient_id="p",
                             image_path=str(img), mask_path=str(msk))]
    records = run_dice_eval(Manifest(entries), BUILTIN, SMALL_CFG)
    assert pl.FLAG_ERROR in records[0].flags
    # a recorded click resolves it
    entries = [ManifestEntry(lesion_id="ok", patient_id="p", image_path=str(img),
                             mask_path=str(msk), click=(10, 10, 10))]
    records = run_dice_eval(Manifest(entries), BUILTIN, SMALL_CFG)
    assert records[0].dice == 1.0
    _, mask, instance = pl.resolve_lesion(entries[0], 26)
    assert int(mask.data.sum()) == instance.size_vox


def test_component_label_selects_lesion(tmp_path):
    img, msk = make_case(tmp_path, "two", centers=((10, 10, 10), (30, 30, 20)),
                         shape=(48, 48, 32))
    entries = [ManifestEntry(lesion_id="second", patient_id="p", image_path=str(img),
                             mask_path=str(msk), component_label=2)]
    # binary mask has ids {0,1} only; label 2 is absent -> flagged
    records = run_dice_eval(Manifest(entries), BUILTIN, SMALL_CFG)
    assert pl.FLAG_ERROR in records[0].flags


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), seed=st.integers(0, 2 ** 16),
       values=st.sampled_from([("uint8", (1, 2, 7)), ("int16", (-3, 5, -200)),
                               ("float32", (1.0, 2.0, 2.5))]),
       fill=st.sampled_from([0.0, 0.1, 0.4, 0.9]), connectivity=st.sampled_from((6, 18, 26)))
def test_each_entry_gets_the_voxels_of_its_value(shape, seed, values, fill, connectivity):
    # random label maps: dense ones put touching labels next to each other
    dtype, labels_used = values
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(shape) < fill, rng.choice(labels_used, size=shape), 0)
    labels = labels.astype(dtype)
    components = flood_fill_components(labels != 0, connectivity)
    foreground = label_voxels(labels != 0, True)
    clicks = [tuple(int(v) for v in foreground[i])
              for i in rng.permutation(len(foreground))[:3]] + [(0, 0, 0)]
    with tempfile.TemporaryDirectory() as tmp:
        img, msk = "%s/img.nii" % tmp, "%s/mask.nii" % tmp
        write_volume(Volume3D(np.zeros(shape, np.int16)), img)
        write_volume(Volume3D(labels), msk)
        entries = [ManifestEntry(lesion_id="v%d" % i, patient_id="p", image_path=img,
                                 mask_path=msk, **extra)
                   for i, extra in enumerate([{"component_label": int(v)} for v in (1, 2, -3, 5, 9)]
                                             + [{"click": c} for c in clicks] + [{}])]
        loader = pl.ScanLoader(entries, connectivity, SMALL_CFG)
        for entry in entries:
            if entry.component_label is not None:
                expected = label_voxels(labels, entry.component_label)
            elif entry.click is not None:
                expected = label_voxels(components, components[entry.click] or -1)
            else:
                expected = label_voxels(components, 1 if components.max() == 1 else -1)
            try:
                instance = loader.lesion(entry).instance
            except (EmptyInstanceError, ClickNotOnMaskError, AmbiguousLesionError):
                assert expected.shape[0] == 0
            else:
                assert instance.voxels.dtype == expected.dtype
                assert np.array_equal(instance.voxels, expected)


def test_lesion_masks_keep_the_mask_files_spacing(tmp_path):
    img, _ = make_case(tmp_path, "img", spacing=(1.0, 1.0, 1.0))
    _, msk = make_case(tmp_path, "msk", spacing=(0.8, 0.7, 2.5))
    entry = ManifestEntry(lesion_id="x", patient_id="p", image_path=str(img),
                          mask_path=str(msk), click=(24, 24, 16))
    on_disk = read_volume(msk)
    image, mask, _ = pl.resolve_lesion(entry, 26)
    assert image.spacing == (1.0, 1.0, 1.0)
    assert (mask.spacing, mask.header_meta) == (on_disk.spacing, on_disk.header_meta)
    manifest = tmp_path / "manifest.json"
    save_manifest(Manifest([entry]), manifest)
    assert main(["extract", "--manifest", str(manifest), "--voi", "16x16x8",
                 "--out", str(tmp_path / "voi")]) == 0
    assert read_volume(tmp_path / "voi" / "x_img.nii.gz").spacing == (1.0, 1.0, 1.0)
    assert read_volume(tmp_path / "voi" / "x_mask.nii.gz").spacing == on_disk.spacing


def test_spacing_enters_no_score(tmp_path):
    img, msk1 = make_case(tmp_path, "one", spacing=(1.0, 1.0, 1.0))
    _, msk2 = make_case(tmp_path, "two", spacing=(2.0, 2.0, 2.0))
    csvs = []
    for msk in (msk1, msk2):
        entry = ManifestEntry(lesion_id="x", patient_id="p", image_path=str(img),
                              mask_path=str(msk), click=(24, 24, 16))
        manifest = tmp_path / ("%s.json" % msk.name)
        save_manifest(Manifest([entry]), manifest)
        out = tmp_path / ("run-%s" % msk.name)
        assert main(["robustness", "--manifest", str(manifest), "--voi", "16x16x8",
                     "--segmenter", "builtin", "--hu-window", "50:150", "--out", str(out)]) == 0
        csvs.append((out / "records.csv").read_bytes())
        record, = read_records_csv(out / "records.csv")
        assert (record.dice, record.flags) == (1.0, frozenset())
    assert csvs[0] == csvs[1]
    assert main(["extract", "--manifest", str(manifest), "--voi", "16x16x8",
                 "--out", str(tmp_path / "voi")]) == 0
    assert read_volume(tmp_path / "voi" / "x_img.nii.gz").spacing == (1.0, 1.0, 1.0)
    assert read_volume(tmp_path / "voi" / "x_mask.nii.gz").spacing == (2.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def rec(lid, model="m", d=1.0, rob=None, loc="liver", dataset="ds"):
    return EvalRecord(lesion_id=lid, model_id=model, dice=d, robustness=rob,
                      location=loc, dataset=dataset)


def test_single_record_group():
    report = aggregate_by_location([rec("a", d=0.8)])
    row = next(g for g in report.groups if g.key == "liver")
    assert row.n == 1
    assert row.dice_mean == 0.8
    assert row.dice_std == 0.0


def test_two_record_stats():
    report = aggregate_by_location([rec("a", d=0.6), rec("b", d=0.8)])
    row = next(g for g in report.groups if g.key == "liver")
    assert row.dice_mean == pytest.approx(0.7, abs=1e-15)
    assert row.dice_std == pytest.approx(0.14142135623730953, abs=1e-12)


def test_blank_location_becomes_undefined_and_sorts_last():
    records = [rec("a", loc="lung"), rec("b", loc=""), rec("c", loc="bone")]
    report = aggregate_by_location(records)
    locations = [g.key for g in report.groups]
    assert locations == ["bone", "lung", "undefined", "(all)"]
    counts = sum(g.n for g in report.groups if g.key != "(all)")
    assert counts == 3


def test_aggregate_requires_records():
    with pytest.raises(EmptyRecordsError):
        aggregate_by_location([])


def test_aggregate_tracks_robustness_subset():
    records = [rec("a", rob=0.9), rec("b", rob=None)]
    report = aggregate_by_location(records)
    overall = next(g for g in report.groups if g.key == "(all)")
    assert overall.n == 2
    assert overall.robustness_n == 1
    assert overall.robustness_mean == 0.9


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_identical_runs_are_degenerate():
    a = [rec("l%d" % i, d=0.5 + i / 100) for i in range(5)]
    results = compare_models(a, a, metrics=("dice",))
    assert len(results) == 1
    assert results[0].degenerate
    assert not results[0].significant
    assert results[0].p_two_tailed is None


def test_constant_shift_is_degenerate():
    a = [rec("l%d" % i, d=0.5 + i / 100) for i in range(5)]
    b = [rec(r.lesion_id, d=r.dice + 0.1) for r in a]
    results = compare_models(a, b, metrics=("dice",))
    assert results[0].degenerate


def test_known_difference_statistics():
    base = [0.5, 0.52, 0.54, 0.56, 0.58]
    a = [rec("l%d" % i, d=base[i] + (i + 1) * 0.01) for i in range(5)]
    b = [rec("l%d" % i, d=base[i]) for i in range(5)]
    results = compare_models(a, b, metrics=("dice",), m_comparisons=4)
    r = results[0]
    assert r.t_stat == pytest.approx(4.242640687119285, abs=1e-9)
    assert r.df == 4
    assert r.p_two_tailed == pytest.approx(0.013235599563682695, abs=1e-9)
    assert r.p_adjusted == pytest.approx(0.05294239825473078, abs=1e-9)
    assert not r.significant


def test_pairing_mismatch_reports_symmetric_difference():
    a = [rec("x"), rec("y")]
    b = [rec("y"), rec("z")]
    with pytest.raises(PairingMismatchError) as err:
        compare_models(a, b)
    assert err.value.only_a == ["x"]
    assert err.value.only_b == ["z"]


@pytest.mark.parametrize("a_first", [True, False], ids=["a-b", "b-a"])
def test_a_lesion_in_another_dataset_in_the_other_run_is_a_pairing_mismatch(a_first):
    """Pairing by lesion id within each dataset needs each lesion in one dataset in
    both runs; whichever run comes first, a lesion that moved is an error."""
    a = [rec("l%d" % i, d=0.5 + i * 0.07, dataset="A" if i < 2 else "B") for i in range(4)]
    b = [rec("l%d" % i, d=0.45 + i * 0.05, dataset="B") for i in range(4)]
    with pytest.raises(PairingMismatchError) as err:
        compare_models(a, b) if a_first else compare_models(b, a)
    first, second = ("A", "B") if a_first else ("B", "A")
    assert err.value.moved == {"l0": (first, second), "l1": (first, second)}
    assert "l0 is in %r in a, %r in b" % (first, second) in str(err.value)


def test_comparisons_stratified_by_dataset():
    a = [rec("l%d" % i, d=0.5 + i * 0.07, rob=0.8 + i * 0.01,
             dataset="ds%d" % (i % 2)) for i in range(8)]
    b = [rec(r.lesion_id, d=r.dice - 0.01 * (1 + i % 3),
             rob=r.robustness - 0.005, dataset=r.dataset) for i, r in enumerate(a)]
    results = compare_models(a, b)
    ids = [r.comparison_id for r in results]
    assert ids == ["ds0:dice", "ds0:robustness", "ds1:dice", "ds1:robustness"]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_a_record_located_at_the_overall_label_is_refused():
    """Its location row could not be told from the overall row of report.json."""
    with pytest.raises(ValueError, match=r"record 'b': location '\(all\)' is reserved"):
        aggregate_by_location([rec("a"), rec("b", loc=" (all)")])


def test_csv_report_row_count(tmp_path):
    records = [rec("a", d=0.5), rec("b", d=0.7), rec("c", d=0.9)]
    report = aggregate_by_location(records, {"seed_root": 1})
    out = tmp_path / "agg.csv"
    emit_report(report, "csv", out)
    lines = out.read_text().splitlines()
    data_lines = [l for l in lines if l and not l.startswith("#")]
    # groups header + group rows, then summary header + summary rows
    assert len(data_lines) == 1 + len(report.groups) + 1 + len(report.summary)
    records_csv = tmp_path / "agg_records.csv"
    assert records_csv.exists()
    assert len(records_csv.read_text().splitlines()) == 1 + 3


def test_json_report_roundtrip(tmp_path):
    records = [rec("a", d=0.5, rob=0.75), rec("b", d=0.7, rob=None, loc="lung")]
    report = aggregate_by_location(records, run_metadata(BUILTIN, SMALL_CFG, 26, 5, 2))
    report.comparisons = compare_models(
        [rec("l%d" % i, d=0.1 * i) for i in range(4)],
        [rec("l%d" % i, d=0.1 * i + 0.01 * (i % 3)) for i in range(4)],
        metrics=("dice",))
    out = tmp_path / "report.json"
    emit_report(report, "json", out)
    parsed = read_report(out)
    assert parsed.groups == report.groups
    assert parsed.summary == report.summary
    assert parsed.comparisons == report.comparisons
    assert parsed.metadata == report.metadata
    assert parsed.records == report.records


def test_summary_has_model_by_dataset_layout():
    records = []
    for model in ("model-a", "model-b"):
        for ds in ("set1", "set2"):
            for i in range(3):
                records.append(EvalRecord(
                    lesion_id="%s-%s-%d" % (model, ds, i), model_id=model,
                    dice=0.6 + i * 0.1, robustness=0.7 + i * 0.1,
                    location="liver", dataset=ds))
    report = aggregate_by_location(records)
    cells = [(s.model_id, s.key) for s in report.summary]
    assert cells == [("model-a", "set1"), ("model-a", "set2"),
                     ("model-b", "set1"), ("model-b", "set2")]
    for s in report.summary:
        assert s.n == 3
        assert s.dice_mean == pytest.approx(0.7)
        assert s.robustness_mean == pytest.approx(0.8)
        assert s.robustness_std == pytest.approx(0.1)


def test_report_metadata_records_conventions(tmp_path):
    metadata = run_metadata(BUILTIN, SMALL_CFG, 26, seed_root=11, k=2)
    assert metadata["voi_size"] == [32, 32, 16]
    assert metadata["pad_value_image"] == -1024
    assert "empty_dice_convention" in metadata
    assert metadata["seed_root"] == 11


def test_records_csv_roundtrip(tmp_path):
    records = [
        EvalRecord(lesion_id="a", model_id="m", dice=0.123456789012345,
                   robustness=0.5, location="liver", dataset="d",
                   flags=frozenset({"truncated"}), seed_root=3),
        EvalRecord(lesion_id="b", model_id="m", dice=0.0, robustness=None,
                   location="undefined", dataset="d",
                   flags=frozenset({"error"}), error="mask gone"),
    ]
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records
    header = path.read_text().splitlines()[0]
    assert header == ",".join(pl.CSV_COLUMN_ORDER)


def test_aggregate_means_match_csv_within_tolerance(tmp_path):
    rng = np.random.default_rng(2)
    records = [rec("l%d" % i, d=float(rng.random())) for i in range(50)]
    report = aggregate_by_location(records)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    parsed = read_records_csv(path)
    recomputed = float(np.mean([r.dice for r in parsed]))
    overall = next(g for g in report.groups if g.key == "(all)")
    assert abs(recomputed - overall.dice_mean) < 1e-12
