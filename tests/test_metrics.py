from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import ndimage

from oracles import dice_count
from ulsforge import Volume3D, VolumeKind, dice, mean_pairwise_dice, place_back
from ulsforge.errors import DimsMismatchError
from ulsforge.metrics import voi_dice

from synth import ball


def binary(arr):
    return Volume3D(np.asarray(arr, dtype=np.uint8), kind=VolumeKind.BINARY_MASK)


def test_identical_masks_score_one():
    arr = np.zeros((5, 5, 5))
    arr[1:4, 1:4, 1:4] = 1
    assert dice(binary(arr), binary(arr)) == 1.0


def test_disjoint_masks_score_zero():
    a = np.zeros((5, 5, 5))
    b = np.zeros((5, 5, 5))
    a[0, 0, 0] = 1
    b[4, 4, 4] = 1
    assert dice(binary(a), binary(b)) == 0.0


def test_half_overlap():
    a = np.zeros((6, 6, 6))
    b = np.zeros((6, 6, 6))
    a[0:4, 0, 0] = 1          # 4 voxels
    b[2:6, 0, 0] = 1          # 4 voxels, overlap 2
    assert dice(binary(a), binary(b)) == 0.5


def test_empty_mask_conventions():
    empty = binary(np.zeros((4, 4, 4)))
    full = binary(np.ones((4, 4, 4)))
    assert dice(empty, empty) == 1.0
    assert dice(empty, full) == 0.0


def test_dice_matches_counting_oracle_and_is_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(30):
        shape = tuple(int(rng.integers(2, 10)) for _ in range(3))
        a = binary(rng.random(shape) < 0.4)
        b = binary(rng.random(shape) < 0.4)
        d = dice(a, b)
        assert d == pytest.approx(dice_count(a.data, b.data), abs=1e-15)
        assert d == dice(b, a)
        assert 0.0 <= d <= 1.0


def test_dims_mismatch():
    with pytest.raises(DimsMismatchError):
        dice(binary(np.zeros((4, 4, 4))), binary(np.zeros((4, 4, 2))))


def test_robustness_of_identical_triple():
    arr = np.zeros((6, 6, 6))
    arr[2:5, 2:5, 2:5] = 1
    m = binary(arr)
    assert mean_pairwise_dice([m, m, m]) == 1.0


def test_robustness_hand_computed_two_thirds():
    # dice(n,a1) = dice(n,a2) = 0.5, dice(a1,a2) = 1.0
    n = np.zeros((6, 1, 1))
    a = np.zeros((6, 1, 1))
    n[0:2, 0, 0] = 1
    a[1:3, 0, 0] = 1
    t = [binary(n), binary(a), binary(a)]
    assert dice(t[0], t[1]) == 0.5
    assert dice(t[1], t[2]) == 1.0
    assert mean_pairwise_dice(t) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_robustness_permutation_invariant():
    rng = np.random.default_rng(29)
    from itertools import permutations
    for _ in range(10):
        masks = [binary(rng.random((5, 5, 5)) < 0.4) for _ in range(3)]
        scores = {mean_pairwise_dice(list(perm)) for perm in permutations(masks)}
        assert len(scores) == 1


def test_robustness_one_iff_pairwise_identical_overlap():
    rng = np.random.default_rng(41)
    for _ in range(20):
        masks = [binary(rng.random((4, 4, 4)) < 0.5) for _ in range(3)]
        pairwise_one = (dice(masks[0], masks[1]) == 1.0
                        and dice(masks[0], masks[2]) == 1.0
                        and dice(masks[1], masks[2]) == 1.0)
        assert (mean_pairwise_dice(masks) == 1.0) == pairwise_one


def test_eroding_one_prediction_strictly_lowers_robustness():
    shape = (16, 16, 16)
    sphere = ball(shape, (8, 8, 8), 5).astype(np.uint8)
    eroded = ndimage.binary_erosion(sphere).astype(np.uint8)
    assert 0 < eroded.sum() < sphere.sum()
    full = binary(sphere)
    score = mean_pairwise_dice([full, full, binary(eroded)])
    assert score < 1.0


def placed_scores(placed, dims):
    """Every pair's voi_dice and the pairwise mean, each checked against the
    masks placed back into the volume and scored there."""
    volumes = [place_back(m, dims, offset) for offset, m in placed]
    for (pa, va), (pb, vb) in combinations(zip(placed, volumes), 2):
        assert voi_dice(pa, pb, dims) == dice(va, vb)
        assert voi_dice(pb, pa, dims) == dice(vb, va)
    mean = mean_pairwise_dice(placed, partial(voi_dice, dims=dims))
    assert mean == mean_pairwise_dice(volumes)
    return [voi_dice(a, b, dims) for a, b in combinations(placed, 2)], mean


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("side", [-1, 1])
def test_voi_dice_counts_no_voxel_off_a_face(axis, side):
    # a full window half off one face against the whole volume: its padding never counts
    dims, size = (6, 7, 8), (4, 4, 4)
    off = [1, 1, 2]
    off[axis] = -2 if side < 0 else dims[axis] - 2
    volume = ((0, 0, 0), binary(np.ones(dims)))
    half = (tuple(off), binary(np.ones(size)))
    scores, _ = placed_scores([volume, half], dims)
    assert scores == [2.0 * 32 / (32 + 6 * 7 * 8)]


def test_voi_dice_of_disjoint_and_empty_windows():
    dims, size = (10, 10, 10), (4, 4, 4)
    full, empty = binary(np.ones(size)), binary(np.zeros(size))
    outside = (-4, 3, 3)  # touches the volume in no voxel
    assert voi_dice(((0, 0, 0), full), ((6, 6, 6), full), dims) == 0.0
    assert voi_dice(((0, 0, 0), full), ((4, 0, 0), full), dims) == 0.0  # adjacent
    assert voi_dice(((0, 0, 0), empty), ((6, 6, 6), empty), dims) == 1.0
    assert voi_dice(((0, 0, 0), empty), ((1, 1, 1), full), dims) == 0.0
    assert voi_dice((outside, full), ((0, 0, 0), empty), dims) == 1.0  # nothing is placed
    placed_scores([((0, 0, 0), full), ((6, 6, 6), full), (outside, full), ((1, 1, 1), empty)], dims)


@seed(20240607)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), dims=st.tuples(*[st.integers(1, 9)] * 3),
       size=st.tuples(*[st.integers(1, 6)] * 3), rng_seed=st.integers(0, 2 ** 16))
def test_voi_dice_equals_global_frame_dice(data, dims, size, rng_seed):
    """Any windows, inside, across any face, disjoint or outside, with masks of
    any fill: scores in the VOIs are the placed masks' scores, bit for bit."""
    rng = np.random.default_rng(rng_seed)
    placed = []
    for _ in range(data.draw(st.integers(2, 4))):
        offset = tuple(data.draw(st.integers(-s - 1, n + 1)) for n, s in zip(dims, size))
        fill = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
        placed.append((offset, binary(rng.random(size) < fill)))
    placed_scores(placed, dims)
