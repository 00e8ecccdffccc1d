import numpy as np
import pytest
from scipy import stats as scipy_stats

from ulsforge import (
    Volume3D,
    VOICfg,
    VolumeKind,
    build_click_plan,
    extract_instances,
    generate_shifted_samples,
    label_components,
    sample_click_points,
)
from ulsforge.errors import EmptyInstanceError
from ulsforge.lesions import SAMPLED, ClickPoint, LesionInstance

from synth import BACKGROUND_HU, LESION_HU, ball


def binary(arr):
    return Volume3D(np.asarray(arr, dtype=np.uint8), kind=VolumeKind.BINARY_MASK)


def single_instance(mask_arr):
    instances = extract_instances(label_components(binary(mask_arr), 26))
    assert len(instances) == 1
    return instances[0]


def test_single_voxel_lesion_forces_both_points():
    mask = np.zeros((8, 8, 8))
    mask[3, 4, 5] = 1
    inst = single_instance(mask)
    points = sample_click_points(inst, 2, seed_root=7, lesion_id="a")
    assert [p.pos for p in points] == [(3, 4, 5), (3, 4, 5)]
    assert all(p.origin == SAMPLED for p in points)
    assert [p.draw_index for p in points] == [0, 1]


def test_same_key_same_points():
    mask = np.zeros((10, 10, 10))
    mask[2:7, 2:7, 2:7] = 1
    inst = single_instance(mask)
    a = sample_click_points(inst, 5, seed_root=123, lesion_id="les")
    b = sample_click_points(inst, 5, seed_root=123, lesion_id="les")
    assert [p.pos for p in a] == [p.pos for p in b]
    c = sample_click_points(inst, 5, seed_root=124, lesion_id="les")
    assert [p.pos for p in a] != [p.pos for p in c]
    d = sample_click_points(inst, 5, seed_root=123, lesion_id="other")
    assert [p.pos for p in a] != [p.pos for p in d]


def test_stream_is_independent_of_other_lesions():
    mask = np.zeros((10, 10, 10))
    mask[2:7, 2:7, 2:7] = 1
    inst = single_instance(mask)
    expected = [p.pos for p in sample_click_points(inst, 3, 55, "x")]
    # interleave draws for other lesions; "x" must be unaffected
    sample_click_points(inst, 10, 55, "y")
    sample_click_points(inst, 1, 55, "z")
    assert [p.pos for p in sample_click_points(inst, 3, 55, "x")] == expected


def test_sampling_is_uniform_chi_square():
    mask = np.zeros((12, 3, 3))
    mask[1:11, 1, 1] = 1  # exactly 10 voxels
    inst = single_instance(mask)
    draws = 10_000
    points = sample_click_points(inst, draws, seed_root=2024, lesion_id="uniform")
    counts = {}
    for p in points:
        counts[p.pos] = counts.get(p.pos, 0) + 1
    assert len(counts) == 10
    expected = draws / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < scipy_stats.chi2.ppf(0.99, df=9)


def test_all_points_inside_lesion():
    rng = np.random.default_rng(31)
    for trial in range(10):
        shape = tuple(int(rng.integers(4, 12)) for _ in range(3))
        mask = (rng.random(shape) < 0.4).astype(np.uint8)
        instances = extract_instances(label_components(binary(mask), 26))
        for inst in instances:
            voxels = set(map(tuple, inst.voxels.tolist()))
            for p in sample_click_points(inst, 8, trial, "l%d" % inst.label):
                assert p.pos in voxels


def test_sampling_errors():
    empty = LesionInstance(label=1, mask=np.zeros((1, 1, 1), dtype=bool),
                           bbox=((0, 0, 0), (0, 0, 0)), size_vox=0,
                           center=ClickPoint((0, 0, 0)))
    with pytest.raises(EmptyInstanceError):
        sample_click_points(empty, 2, 0, "e")
    mask = np.zeros((4, 4, 4))
    mask[1, 1, 1] = 1
    with pytest.raises(ValueError):
        sample_click_points(single_instance(mask), -1, 0, "n")


def test_click_plan_record():
    mask = np.zeros((8, 8, 8))
    mask[2:5, 2:5, 2:5] = 1
    plan = build_click_plan(single_instance(mask), seed_root=9, lesion_id="les-9")
    assert plan.k == 2
    assert len(plan.augmented) == 2
    rec = plan.to_record()
    assert rec["lesion_id"] == "les-9"
    assert rec["normal"] == list(plan.normal.pos)
    assert len(rec["augmented"]) == 2


def interior_case(shape=(40, 40, 30), center=(20, 20, 15), radius=3):
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    mask = np.zeros(shape, dtype=np.uint8)
    blob = ball(shape, center, radius)
    image[blob] = LESION_HU
    mask[blob] = 1
    return Volume3D(image), binary(mask), single_instance(mask)


def test_three_shifted_samples_by_default():
    image, mask, inst = interior_case()
    samples = generate_shifted_samples(image, mask, inst, VOICfg(size=(16, 16, 8)),
                                       seed_root=5)
    assert len(samples) == 3  # 1 centered + 2 sampled
    assert samples[0].click.origin == "centroid"
    assert all(s.click.origin == SAMPLED for s in samples[1:])
    assert all(s.lesion_id == "component-1" for s in samples)


def test_interior_lesion_fully_captured_in_every_sample():
    image, mask, inst = interior_case()
    samples = generate_shifted_samples(image, mask, inst, VOICfg(size=(32, 32, 16)),
                                       seed_root=11, lesion_id="lesA")
    for s in samples:
        assert int(s.mask.data.sum()) == inst.size_vox


def test_corner_lesion_keeps_invariants():
    shape = (20, 20, 12)
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    mask_arr = np.zeros(shape, dtype=np.uint8)
    blob = ball(shape, (1, 1, 1), 2)
    image[blob] = LESION_HU
    mask_arr[blob] = 1
    inst = single_instance(mask_arr)
    cfg = VOICfg(size=(16, 16, 8))
    samples = generate_shifted_samples(Volume3D(image), binary(mask_arr), inst, cfg,
                                       seed_root=3)
    for s in samples:
        assert s.image.dims == cfg.size
        assert s.mask.dims == cfg.size
        assert all(0 <= l < n for l, n in zip(s.local_click, cfg.size))
        assert s.mask.data[s.local_click] == 1


def test_other_lesions_excluded_from_each_sample():
    shape = (30, 30, 20)
    image = np.full(shape, BACKGROUND_HU, dtype=np.int16)
    mask_arr = np.zeros(shape, dtype=np.uint8)
    a = ball(shape, (10, 10, 10), 3)
    b = ball(shape, (22, 22, 12), 2)
    for blob in (a, b):
        image[blob] = LESION_HU
        mask_arr[blob] = 1
    instances = extract_instances(label_components(binary(mask_arr), 26))
    target = instances[0]
    samples = generate_shifted_samples(Volume3D(image), binary(mask_arr), target,
                                       VOICfg(size=(28, 28, 16)), seed_root=1)
    for s in samples:
        assert int(s.mask.data.sum()) == target.size_vox
