import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import component_voxel_sets, flood_fill_components, instance_from_voxels, instance_oracle
from ulsforge import (
    LesionInstance,
    Volume3D,
    VolumeKind,
    build_click_plan,
    extract_instances,
    label_components,
)
from ulsforge.errors import EmptyInstanceError, WrongKindError
from ulsforge.lesions import CENTROID, _foreground_box, _instance_from_box


def binary(arr):
    return Volume3D(np.asarray(arr, dtype=np.uint8), kind=VolumeKind.BINARY_MASK)


def test_empty_mask_has_no_components():
    labeled = label_components(binary(np.zeros((4, 4, 4))))
    assert labeled.kind is VolumeKind.LABELED_MASK
    assert int(labeled.data.max()) == 0
    assert extract_instances(labeled) == []


def test_corner_touch_depends_on_connectivity():
    mask = np.zeros((4, 4, 4))
    mask[1, 1, 1] = 1
    mask[2, 2, 2] = 1
    assert int(label_components(binary(mask), 26).data.max()) == 1
    assert int(label_components(binary(mask), 6).data.max()) == 2


def test_edge_touch_depends_on_connectivity():
    mask = np.zeros((4, 4, 4))
    mask[1, 1, 1] = 1
    mask[1, 2, 2] = 1
    assert int(label_components(binary(mask), 18).data.max()) == 1
    assert int(label_components(binary(mask), 6).data.max()) == 2


def test_full_block_is_one_component():
    labeled = label_components(binary(np.ones((3, 3, 3))))
    instances = extract_instances(labeled)
    assert len(instances) == 1
    assert instances[0].size_vox == 27


def test_wrong_kind_rejected():
    intensity = Volume3D(np.zeros((3, 3, 3), dtype=np.int16))
    with pytest.raises(WrongKindError):
        label_components(intensity)
    with pytest.raises(WrongKindError):
        extract_instances(binary(np.zeros((3, 3, 3))))


def test_ids_follow_x_fastest_first_encounter():
    mask = np.zeros((4, 4, 4))
    mask[3, 0, 0] = 1  # flat index 3 in x-fastest order
    mask[0, 3, 3] = 1  # flat index 60
    labeled = label_components(binary(mask), 26)
    assert labeled.data[3, 0, 0] == 1
    assert labeled.data[0, 3, 3] == 2


@pytest.mark.parametrize("connectivity", (6, 18, 26))
def test_matches_flood_fill_oracle(connectivity):
    rng = np.random.default_rng(99)
    for _ in range(30):
        shape = tuple(int(rng.integers(2, 10)) for _ in range(3))
        mask = (rng.random(shape) < rng.uniform(0.2, 0.6)).astype(np.uint8)
        expected = flood_fill_components(mask, connectivity)
        on_disk = np.asfortranarray(mask)  # read_volume's layout: Fortran order, read-only
        on_disk.setflags(write=False)
        for arr in (mask, on_disk):
            ours = label_components(binary(arr), connectivity).data
            assert np.array_equal(ours, expected)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), seed=st.integers(0, 2 ** 16),
       fill=st.sampled_from([0.0, 0.05, 0.2, 0.5]), faces=st.booleans(),
       connectivity=st.sampled_from((6, 18, 26)))
def test_labeling_the_foreground_box_equals_labeling_the_volume(shape, seed, fill, faces,
                                                                 connectivity):
    rng = np.random.default_rng(seed)
    mask = (rng.random(shape) < fill).astype(np.uint8)
    if faces:  # one voxel on each of the six faces
        for axis in range(3):
            for end in (0, shape[axis] - 1):
                pos = [int(rng.integers(n)) for n in shape]
                pos[axis] = end
                mask[tuple(pos)] = 1
    whole = label_components(binary(mask), connectivity).data
    # the box spanned by the per-axis projections of the foreground
    spans = [np.flatnonzero(mask.any(axis=tuple(b for b in range(3) if b != a)))
             for a in range(3)]
    boxed = np.zeros_like(whole)
    box = (slice(0, None),) * 3  # the whole array when there is no foreground
    if spans[0].size:
        box = tuple(slice(s[0], s[-1] + 1) for s in spans)
        boxed[box] = label_components(binary(mask[box]), connectivity).data
    for arr in (mask, np.asfortranarray(mask)):
        assert _foreground_box(arr) == box
    assert np.array_equal(boxed, whole)
    assert boxed.any() == bool(mask.any())


def test_instances_partition_foreground():
    rng = np.random.default_rng(5)
    mask = (rng.random((8, 8, 8)) < 0.35).astype(np.uint8)
    instances = extract_instances(label_components(binary(mask), 26))
    oracle_sets = component_voxel_sets(mask, 26)
    ours = [set(map(tuple, inst.voxels.tolist())) for inst in instances]
    assert sorted(map(sorted, ours)) == sorted(map(sorted, oracle_sets))
    union = set().union(*ours) if ours else set()
    assert union == {tuple(v) for v in np.argwhere(mask).tolist()}
    assert [inst.label for inst in instances] == list(range(1, len(instances) + 1))


def test_instances_from_component_boxes_equal_per_id_argwhere():
    rng = np.random.default_rng(41)
    mask = (rng.random((24, 20, 16)) < 0.12).astype(np.uint8)
    mask[0, :, 0] = mask[-1, 0, :] = mask[:, -1, -1] = 1  # components along the faces
    labeled = label_components(binary(mask), 6)
    instances = extract_instances(labeled)
    assert len(instances) == int(labeled.data.max()) > 300
    for comp_id, inst in enumerate(instances, 1):
        expected = np.argwhere(labeled.data == comp_id)
        assert inst.label == comp_id
        assert inst.voxels.dtype == expected.dtype
        assert np.array_equal(inst.voxels, expected)
        assert (inst.bbox, inst.size_vox, inst.center.pos) == instance_oracle(expected)
        assert not inst.mask.flags.writeable
        assert inst.mask.shape == tuple(h - l + 1 for l, h in zip(*inst.bbox))



@pytest.mark.parametrize("low", (0, 1))  # with and without background
def test_sparse_ids_give_the_instances_of_dense_ones(low):
    rng = np.random.default_rng(23)
    dense = rng.integers(low, 5, (6, 7, 5)).astype(np.int32)  # ids 1..4 in 210 voxels
    sparse_ids = np.array([0, 3, 500, 70_000, 1_000_000], dtype=np.int32)
    to_volume = lambda data: Volume3D(data, kind=VolumeKind.LABELED_MASK)
    expected = extract_instances(to_volume(dense))
    found = extract_instances(to_volume(sparse_ids[dense]))
    assert [i.label for i in found] == [int(sparse_ids[i.label]) for i in expected]
    for a, b in zip(found, expected):
        assert (a.bbox, a.size_vox, a.center) == (b.bbox, b.size_vox, b.center)
        assert np.array_equal(a.mask, b.mask) and a.mask.flags.f_contiguous


def test_sparse_ids_cost_the_volume_not_the_largest_id():
    data = np.zeros((2, 2, 2), dtype=np.int32)
    data[1, 0, 1] = 1_000_000
    labeled = Volume3D(data, kind=VolumeKind.LABELED_MASK)
    extract_instances(labeled)  # first calls import and cache what they need
    tracemalloc.start()
    try:
        inst, = extract_instances(labeled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a slot per id up to the largest would take 8 MB
    assert (inst.label, inst.bbox, inst.size_vox) == (1_000_000, ((1, 0, 1), (1, 0, 1)), 1)


def test_relabeling_invariance():
    rng = np.random.default_rng(17)
    mask = (rng.random((7, 7, 7)) < 0.15).astype(np.uint8)
    mask[0, 0, 0] = 1
    mask[6, 6, 6] = 1
    labeled = label_components(binary(mask), 6)
    n = int(labeled.data.max())
    assert n >= 2
    perm = np.concatenate([[0], rng.permutation(n) + 1]).astype(np.int32)
    permuted = labeled.with_data(perm[labeled.data], VolumeKind.LABELED_MASK)
    a = {frozenset(map(tuple, i.voxels.tolist())) for i in extract_instances(labeled)}
    b = {frozenset(map(tuple, i.voxels.tolist())) for i in extract_instances(permuted)}
    assert a == b


def test_single_voxel_instance():
    mask = np.zeros((8, 8, 8))
    mask[5, 5, 5] = 1
    inst, = extract_instances(label_components(binary(mask)))
    assert inst.size_vox == 1
    assert inst.bbox == ((5, 5, 5), (5, 5, 5))
    assert inst.center.pos == (5, 5, 5)
    assert inst.center.origin == CENTROID


def test_center_of_cube_rounds_half_up():
    mask = np.zeros((4, 4, 4))
    mask[0:2, 0:2, 0:2] = 1  # continuous centroid (0.5, 0.5, 0.5)
    inst, = extract_instances(label_components(binary(mask)))
    assert inst.center.pos == (1, 1, 1)


def test_center_snaps_with_lexicographic_tie_break():
    voxels = np.array([[1, 1, 1], [3, 1, 1]])  # centroid (2,1,1) is background
    assert instance_from_voxels(1, voxels).center.pos == (1, 1, 1)


def test_center_snaps_into_non_convex_shape():
    mask = np.zeros((7, 7, 3))
    mask[1:6, 1, 1] = 1
    mask[1, 2:6, 1] = 1
    mask[5, 2:6, 1] = 1  # U shape: centroid falls in the gap
    inst, = extract_instances(label_components(binary(mask), 26))
    voxels = set(map(tuple, inst.voxels.tolist()))
    assert inst.center.pos in voxels


def test_center_always_inside_mask():
    rng = np.random.default_rng(23)
    for _ in range(25):
        shape = tuple(int(rng.integers(3, 12)) for _ in range(3))
        mask = (rng.random(shape) < 0.3).astype(np.uint8)
        for inst in extract_instances(label_components(binary(mask), 26)):
            voxels = set(map(tuple, inst.voxels.tolist()))
            assert inst.center.pos in voxels
            # the same lesion in a box one voxel wider on every side is trimmed to the same instance
            again = _instance_from_box(inst.label, np.pad(inst.mask, 1),
                                       tuple(v - 1 for v in inst.bbox[0]))
            assert (again.bbox, again.size_vox, again.center) == (inst.bbox, inst.size_vox, inst.center)
            assert np.array_equal(again.mask, inst.mask)


def test_empty_instance_rejected():
    from ulsforge.lesions import ClickPoint
    empty = LesionInstance(label=1, mask=np.zeros((1, 1, 1), dtype=bool),
                           bbox=((0, 0, 0), (0, 0, 0)), size_vox=0,
                           center=ClickPoint((0, 0, 0)))
    with pytest.raises(EmptyInstanceError):
        build_click_plan(empty, seed_root=0, lesion_id="empty")


def test_bad_connectivity_rejected():
    with pytest.raises(ValueError):
        label_components(binary(np.zeros((3, 3, 3))), 10)
