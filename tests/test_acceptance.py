"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s``
to see them. Oracles are the independent implementations in oracles.py.
"""

import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

import ulsforge.pipeline as pl
from adapters import COPY_MASK, WRONG_DIMS, write_adapter
from oracles import flood_fill_components, paired_t_reference, window_indicator
from synth import GROW_WINDOW, ball, make_manifest
from ulsforge import (
    ClickPoint,
    GrowParams,
    Manifest,
    ManifestEntry,
    SegmenterRef,
    Volume3D,
    VOICfg,
    VolumeKind,
    crop_voi,
    extract_instances,
    generate_shifted_samples,
    label_components,
    load_manifest,
    mean_pairwise_dice,
    paired_ttest,
    place_back,
    read_volume,
    run_dice_eval,
    run_robustness_eval,
    split_patients,
    write_records_csv,
    write_volume,
)

BUILTIN = SegmenterRef.builtin(GrowParams(hu_window=GROW_WINDOW))


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (number, title))
        raise
    print("criterion %d (%s): PASS" % (number, title))


def binary(arr):
    return Volume3D(np.asarray(arr, dtype=np.uint8), kind=VolumeKind.BINARY_MASK)


def test_criterion_1_connected_components_oracle_equivalence():
    with criterion(1, "connected components match brute-force flood fill"):
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        n_masks = 0
        for i in range(200):
            if i < 5:
                shape = (16, 16, 16)
            else:
                shape = tuple(int(rng.integers(1, 17)) for _ in range(3))
            density = rng.uniform(0.1, 0.7)
            mask = (rng.random(shape) < density).astype(np.uint8)
            vol = binary(mask)
            for connectivity in (6, 18, 26):
                ours = label_components(vol, connectivity).data
                expected = flood_fill_components(mask, connectivity)
                assert np.array_equal(ours, expected), (shape, connectivity)
            n_masks += 1
        elapsed = time.monotonic() - start
        assert n_masks >= 200
        assert elapsed < 10.0, "took %.1fs" % elapsed


def test_criterion_2_crop_place_back_round_trip():
    with criterion(2, "crop/place-back round trip is voxel-exact"):
        rng = np.random.default_rng(1002)
        n_cases = 0
        for i in range(200):
            shape = tuple(int(rng.integers(2, 33)) for _ in range(3))
            mask = (rng.random(shape) < 0.45).astype(np.uint8)
            size = tuple(int(rng.integers(1, 10)) * 2 for _ in range(3))
            if i % 4 == 0:
                click_pos = (0, 0, 0)  # low boundary
            elif i % 4 == 1:
                click_pos = tuple(n - 1 for n in shape)  # high boundary
            else:
                click_pos = tuple(int(rng.integers(0, n)) for n in shape)
            image = Volume3D(np.zeros(shape, dtype=np.int16))
            sample = crop_voi(image, binary(mask), ClickPoint(click_pos),
                              VOICfg(size=size))
            restored = place_back(sample.mask, shape, sample.offset)
            expected = mask * window_indicator(shape, sample.offset, size)
            assert np.array_equal(restored.data, expected), (shape, size, click_pos)
            n_cases += 1
        assert n_cases >= 200


def test_criterion_3_robustness_formula():
    with criterion(3, "robustness equals mean pairwise Dice"):
        full = binary(np.ones((4, 4, 4)))
        assert mean_pairwise_dice([full, full, full]) == 1.0

        n = np.zeros((6, 1, 1))
        a = np.zeros((6, 1, 1))
        n[0:2, 0, 0] = 1
        a[1:3, 0, 0] = 1  # dice(n,a)=0.5, dice(a,a)=1.0
        t = [binary(n), binary(a), binary(a)]
        assert abs(mean_pairwise_dice(t) - 2.0 / 3.0) < 1e-12

        rng = np.random.default_rng(1003)
        for _ in range(25):
            masks = [binary(rng.random((5, 5, 5)) < 0.5) for _ in range(3)]
            scores = {mean_pairwise_dice(list(p)) for p in permutations(masks)}
            assert len(scores) == 1


def test_criterion_4_equivariance_forces_perfect_scores(tmp_path):
    with criterion(4, "translation equivariance forces Dice and robustness 1.0"):
        start = time.monotonic()
        manifest = load_manifest(make_manifest(tmp_path, 20, shape=(64, 64, 48),
                                               radius=3))
        records = run_robustness_eval(manifest, BUILTIN, VOICfg(), seed_root=2024)
        assert len(records) == 20
        for rec in records:
            assert rec.dice == 1.0, rec
            assert rec.robustness == 1.0, rec
            assert rec.flags == frozenset()
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, "took %.1fs" % elapsed


def test_criterion_5_statistics_oracle():
    with criterion(5, "paired t-test matches high-precision reference"):
        rng = np.random.default_rng(1005)
        for _ in range(100):
            n = int(rng.integers(3, 51))
            x = rng.normal(0, 1, n)
            y = x + rng.normal(rng.uniform(-0.3, 0.3), rng.uniform(0.05, 1.0), n)
            if np.std(x - y, ddof=1) == 0:
                continue
            result = paired_ttest(x, y)
            _, p_ref = paired_t_reference(x, y)
            assert abs(result.p_two_tailed - p_ref) < 1e-9
        known = paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert abs(known.t_stat - 4.2426) < 1e-3
        assert abs(known.p_two_tailed - 0.0132) < 1e-3


def test_criterion_6_run_determinism_across_worker_counts(tmp_path):
    with criterion(6, "byte-identical per-lesion CSV across worker counts"):
        manifest = load_manifest(make_manifest(tmp_path, 6, lesions_per_patient=3))
        cfg = VOICfg(size=(32, 32, 16))
        csvs = []
        for workers in (1, 4):
            records = run_robustness_eval(manifest, BUILTIN, cfg, seed_root=77,
                                          workers=workers)
            path = tmp_path / ("records_w%d.csv" % workers)
            write_records_csv(records, path)
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]


def test_criterion_7_protocol_shape_checks(tmp_path, monkeypatch):
    with criterion(7, "protocol defaults: VOI size, 3 calls, split, isolation"):
        # default VOI size
        assert VOICfg().size == (128, 128, 64)

        # exactly 3 segmenter calls per lesion in a robustness run
        manifest = load_manifest(make_manifest(tmp_path / "m", 4))
        calls = []
        real = pl.segment

        def counting(voi_image, local_click, ref):
            calls.append(1)
            return real(voi_image, local_click, ref)

        monkeypatch.setattr(pl, "segment", counting)
        run_robustness_eval(manifest, BUILTIN, VOICfg(size=(32, 32, 16)),
                            seed_root=1, k=2, workers=1)
        monkeypatch.setattr(pl, "segment", real)
        assert len(calls) == 3 * len(manifest.entries)

        # fraction-0.2 split never separates a patient's lesions
        img = manifest.entries[0].image_path
        msk = manifest.entries[0].mask_path
        rng = np.random.default_rng(7)
        entries = []
        for p in range(25):
            for j in range(int(rng.integers(1, 6))):
                entries.append(ManifestEntry(lesion_id="p%02d-l%d" % (p, j),
                                             patient_id="pat%02d" % p,
                                             image_path=img, mask_path=msk))
        both = Manifest(entries)
        train, test = split_patients(both, 0.2, seed=11)
        assert not set(train.patients()) & set(test.patients())
        by_patient = {}
        for e in both.entries:
            by_patient.setdefault(e.patient_id, set()).add(e.lesion_id)
        test_ids = {e.lesion_id for e in test.entries}
        for patient, ids in by_patient.items():
            assert ids <= test_ids or not (ids & test_ids)

        # every extracted VOI mask is exactly one connected component
        shape = (48, 48, 32)
        image_arr = np.full(shape, -1000, dtype=np.int16)
        mask_arr = np.zeros(shape, dtype=np.uint8)
        for center in ((12, 12, 10), (30, 30, 20), (15, 34, 12)):
            blob = ball(shape, center, 3)
            image_arr[blob] = 100
            mask_arr[blob] = 1
        mask_vol = binary(mask_arr)
        instances = extract_instances(label_components(mask_vol, 26))
        assert len(instances) == 3
        for inst in instances:
            samples = generate_shifted_samples(Volume3D(image_arr), mask_vol, inst,
                                               VOICfg(size=(32, 32, 16)), seed_root=5)
            for s in samples:
                n_comp = int(flood_fill_components(s.mask.data, 26).max())
                assert n_comp == 1


def test_criterion_8_nifti_round_trip(tmp_path):
    with criterion(8, "NIfTI write/read is bit-exact, plain and gzip"):
        rng = np.random.default_rng(1008)
        dtypes = (np.int16, np.uint8, np.int32, np.float32)
        for i in range(50):
            shape = tuple(int(rng.integers(1, 14)) for _ in range(3))
            dtype = dtypes[i % 4]
            if np.issubdtype(dtype, np.integer):
                info = np.iinfo(dtype)
                data = rng.integers(max(info.min, -30000), min(info.max, 30000),
                                    size=shape).astype(dtype)
            else:
                data = rng.normal(0, 800, shape).astype(dtype)
            spacing = tuple(float(np.float32(rng.uniform(0.2, 4.0))) for _ in range(3))
            vol = Volume3D(data, spacing=spacing)
            for name in ("v%d.nii" % i, "v%d.nii.gz" % i):
                path = tmp_path / name
                write_volume(vol, path)
                back = read_volume(path)
                assert back.dims == vol.dims
                assert back.spacing == vol.spacing
                assert back.data.dtype == vol.data.dtype
                assert np.array_equal(back.data, vol.data)


def test_criterion_9_external_adapter_contract(tmp_path):
    with criterion(9, "external adapter contract: echo scores 1.0, bad dims flagged"):
        manifest = load_manifest(make_manifest(tmp_path, 3))
        cfg = VOICfg(size=(32, 32, 16))

        # ground-truth echo: copy the isolated central-lesion VOI mask
        for entry in manifest.entries:
            image, mask, instance = pl.resolve_lesion(entry, 26)
            voi = crop_voi(image, mask, instance.center, cfg)
            from ulsforge import isolate_central_lesion
            gt_local = isolate_central_lesion(voi.mask, voi.local_click, 26)
            gt_path = tmp_path / ("%s_echo.nii.gz" % entry.lesion_id)
            write_volume(gt_local, gt_path)
            command = write_adapter(tmp_path, COPY_MASK,
                                    name="echo_%s.py" % entry.lesion_id)
            command += " " + str(gt_path)
            recs = run_dice_eval(Manifest([entry]), SegmenterRef.external(command), cfg)
            assert recs[0].dice == 1.0

        # malformed dims are rejected and the run still completes
        bad = write_adapter(tmp_path, WRONG_DIMS, name="bad_dims.py")
        records = run_dice_eval(manifest, SegmenterRef.external(bad), cfg)
        assert len(records) == len(manifest.entries)
        for rec in records:
            assert pl.FLAG_ERROR in rec.flags
            assert "dims" in rec.error


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v", "-s"]))
