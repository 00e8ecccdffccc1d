import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import component_voxel_sets, window_indicator
from ulsforge import (
    ClickPoint,
    Volume3D,
    VOICfg,
    VolumeKind,
    crop_voi,
    isolate_central_lesion,
    label_components,
    place_back,
)
from ulsforge.errors import (
    ClickNotOnMaskError,
    ClickOutOfVolumeError,
    DimsMismatchError,
    PadValueError,
)
from ulsforge.lesions import CONNECTIVITIES
from ulsforge.voi import _overlap


def binary(arr):
    return Volume3D(np.asarray(arr, dtype=np.uint8), kind=VolumeKind.BINARY_MASK)


def ramp_image(shape):
    return Volume3D(np.arange(np.prod(shape), dtype=np.int32).reshape(shape))


def test_default_cfg():
    cfg = VOICfg()
    assert cfg.size == (128, 128, 64)
    assert cfg.pad_value_image == -1024


@pytest.mark.parametrize("size", [(3, 4, 4), (0, 4, 4), (4, 4, 5)])
def test_cfg_rejects_odd_or_tiny_sizes(size):
    with pytest.raises(ValueError):
        VOICfg(size=size)


def test_interior_crop_window():
    image = ramp_image((10, 10, 10))
    mask = binary(np.zeros((10, 10, 10)))
    s = crop_voi(image, mask, ClickPoint((5, 5, 5)), VOICfg(size=(4, 4, 2)))
    assert s.offset == (3, 3, 4)
    assert s.local_click == (2, 2, 1)
    assert np.array_equal(s.image.data, image.data[3:7, 3:7, 4:6])


def test_boundary_crop_pads_low_sides():
    image = ramp_image((10, 10, 10))
    mask_arr = np.ones((10, 10, 10))
    s = crop_voi(image, binary(mask_arr), ClickPoint((0, 0, 0)), VOICfg(size=(4, 4, 2)))
    assert s.offset == (-2, -2, -1)
    assert np.all(s.image.data[:2, :, :] == -1024)
    assert np.all(s.image.data[:, :2, :] == -1024)
    assert np.all(s.image.data[:, :, :1] == 0 - 1024)
    assert np.all(s.mask.data[:2, :, :] == 0)
    assert s.image.data[2, 2, 1] == image.data[0, 0, 0]
    assert s.mask.data[2, 2, 1] == 1


def test_whole_volume_crop_is_identity():
    image = ramp_image((8, 8, 4))
    mask = binary(np.ones((8, 8, 4)))
    s = crop_voi(image, mask, ClickPoint((4, 4, 2)), VOICfg(size=(8, 8, 4)))
    assert s.offset == (0, 0, 0)
    assert np.array_equal(s.image.data, image.data)
    assert np.array_equal(s.mask.data, mask.data)


def test_crop_without_a_mask_crops_the_same_image():
    image = ramp_image((10, 9, 8))
    cfg = VOICfg(size=(6, 4, 4))
    for pos in ((5, 4, 4), (0, 0, 0), (9, 8, 7)):
        both = crop_voi(image, binary(np.ones((10, 9, 8))), ClickPoint(pos), cfg)
        alone = crop_voi(image, None, ClickPoint(pos), cfg)
        assert alone.mask is None
        assert alone.image == both.image
        assert (alone.offset, alone.local_click) == (both.offset, both.local_click)


@pytest.mark.parametrize("order", ["C", "F"])
def test_crop_keeps_the_source_layout_and_values(order):
    """A slice of a Fortran-ordered scan is not F-contiguous; its crops are F-ordered anyway."""
    ramp = np.arange(12 * 10 * 8, dtype=np.int16).reshape((12, 10, 8))
    scan = np.array(ramp, order=order)
    scan.setflags(write=False)  # Volume3D keeps the strided slice as it is
    image = Volume3D(scan[1:11, 1:9, :7])
    assert not image.data.flags["C_CONTIGUOUS"] and not image.data.flags["F_CONTIGUOUS"]
    for pos in ((5, 4, 3), (0, 0, 0), (9, 7, 6)):
        s = crop_voi(image, None, ClickPoint(pos), VOICfg(size=(6, 4, 4)))
        assert s.image.data.flags["F_CONTIGUOUS" if order == "F" else "C_CONTIGUOUS"]
        assert s.image == crop_voi(Volume3D(ramp[1:11, 1:9, :7].copy()), None,
                                   ClickPoint(pos), VOICfg(size=(6, 4, 4))).image


def test_custom_pad_value_for_strict_zero_padding():
    image = ramp_image((4, 4, 4))
    mask = binary(np.zeros((4, 4, 4)))
    cfg = VOICfg(size=(8, 8, 8), pad_value_image=0)
    s = crop_voi(image, mask, ClickPoint((0, 0, 0)), cfg)
    assert s.image.data[0, 0, 0] == 0


@pytest.mark.parametrize("dtype, fits, beyond", [(np.uint8, 255, 256), (np.int16, -32768, -32769)])
def test_a_pad_at_the_dtype_limit_fits_and_one_beyond_it_does_not(dtype, fits, beyond):
    image = Volume3D(np.zeros((4, 4, 4), dtype=dtype))
    corner = ClickPoint((0, 0, 0))  # the window hangs off the volume, so it is padded
    s = crop_voi(image, None, corner, VOICfg(size=(8, 8, 8), pad_value_image=fits))
    assert s.image.data.dtype == dtype and s.image.data[0, 0, 0] == fits
    with pytest.raises(PadValueError, match="pad value %d does not fit" % beyond):
        crop_voi(image, None, corner, VOICfg(size=(8, 8, 8), pad_value_image=beyond))


def test_crop_errors():
    image = ramp_image((6, 6, 6))
    with pytest.raises(DimsMismatchError):
        crop_voi(image, binary(np.zeros((5, 6, 6))), ClickPoint((2, 2, 2)))
    with pytest.raises(ClickOutOfVolumeError):
        crop_voi(image, binary(np.zeros((6, 6, 6))), ClickPoint((6, 0, 0)))


def test_output_dims_equal_cfg_size_everywhere():
    rng = np.random.default_rng(8)
    cfg = VOICfg(size=(6, 4, 2))
    for _ in range(50):
        shape = tuple(int(rng.integers(2, 16)) for _ in range(3))
        image = Volume3D(rng.integers(-1000, 1000, shape).astype(np.int16))
        mask = binary(rng.random(shape) < 0.3)
        click = ClickPoint(tuple(int(rng.integers(0, n)) for n in shape))
        s = crop_voi(image, mask, click, cfg)
        assert s.image.dims == cfg.size
        assert s.mask.dims == cfg.size
        local = s.local_click
        assert all(0 <= l < n for l, n in zip(local, cfg.size))


def test_isolate_keeps_clicked_blob():
    mask = np.zeros((10, 10, 10))
    mask[1:3, 1:3, 1:3] = 1  # blob A
    mask[6:9, 6:9, 6:9] = 1  # blob B
    out = isolate_central_lesion(binary(mask), (2, 2, 2), 26)
    kept = {tuple(v) for v in np.argwhere(out.data).tolist()}
    oracle_sets = component_voxel_sets(mask, 26)
    expected = next(s for s in oracle_sets if (2, 2, 2) in s)
    assert kept == expected


def test_isolate_is_idempotent_on_single_blob():
    mask = np.zeros((6, 6, 6))
    mask[2:5, 2:5, 2:5] = 1
    vol = binary(mask)
    out = isolate_central_lesion(vol, (3, 3, 3))
    assert np.array_equal(out.data, vol.data)
    again = isolate_central_lesion(out, (3, 3, 3))
    assert np.array_equal(again.data, out.data)


def test_isolate_background_click():
    vol = binary(np.zeros((4, 4, 4)))
    with pytest.raises(ClickNotOnMaskError):
        isolate_central_lesion(vol, (0, 0, 0))
    with pytest.raises(ClickOutOfVolumeError):
        isolate_central_lesion(vol, (4, 0, 0))


def _window(mask, offset, size):
    out = np.zeros(size, dtype=np.uint8)
    glob, local = _overlap(mask.shape, offset, size)
    out[local] = mask[glob]
    return binary(out)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), shape=st.tuples(*[st.integers(1, 12)] * 3),
       seed=st.integers(0, 2 ** 16), fill=st.sampled_from([0.15, 0.3, 0.5, 0.7]),
       connectivity=st.sampled_from(CONNECTIVITIES))
def test_isolating_in_the_whole_mask_equals_isolating_in_the_clicked_component(
        data, shape, seed, fill, connectivity):
    """A component is maximal in the volume, so the click's piece of any
    window holds no voxel of another component: cropping the whole mask or
    only the clicked component isolates the same voxels."""
    mask = (np.random.default_rng(seed).random(shape) < fill).astype(np.uint8)
    mask[tuple(n // 2 for n in shape)] = 1
    voxels = np.argwhere(mask)
    click = tuple(int(v) for v in voxels[data.draw(st.integers(0, len(voxels) - 1))])
    size = data.draw(st.tuples(*[st.integers(1, 7).map(lambda n: 2 * n)] * 3))
    local = tuple(data.draw(st.integers(0, s - 1)) for s in size)
    offset = tuple(c - l for c, l in zip(click, local))  # may start or end outside
    labeled = label_components(binary(mask), connectivity).data
    own = (labeled == labeled[click]).astype(np.uint8)
    whole = isolate_central_lesion(_window(mask, offset, size), local, connectivity)
    alone = isolate_central_lesion(_window(own, offset, size), local, connectivity)
    assert whole == alone


def test_place_back_restores_window_content():
    rng = np.random.default_rng(21)
    for _ in range(40):
        shape = tuple(int(rng.integers(3, 20)) for _ in range(3))
        mask_arr = (rng.random(shape) < 0.4).astype(np.uint8)
        image = Volume3D(np.zeros(shape, dtype=np.int16))
        size = tuple(int(rng.integers(1, 8)) * 2 for _ in range(3))
        click = ClickPoint(tuple(int(rng.integers(0, n)) for n in shape))
        s = crop_voi(image, binary(mask_arr), click, VOICfg(size=size))
        restored = place_back(s.mask, shape, s.offset)
        expected = mask_arr * window_indicator(shape, s.offset, size)
        assert np.array_equal(restored.data, expected)


def test_place_back_discards_out_of_bounds():
    voi = binary(np.ones((4, 4, 4)))
    out = place_back(voi, (6, 6, 6), (10, 10, 10))
    assert out.dims == (6, 6, 6)
    assert not out.data.any()


def test_place_back_discards_window_before_the_volume():
    # the window ends 16 voxels before x = 0; nothing of it may land inside
    voi = binary(np.ones((4, 4, 4)))
    out = place_back(voi, (30, 6, 6), (-20, 0, 0))
    assert out.dims == (30, 6, 6)
    assert not out.data.any()


def test_boundary_lesion_roundtrip():
    mask = np.zeros((8, 8, 8))
    mask[0:2, 0:2, 0:2] = 1
    image = Volume3D(np.zeros((8, 8, 8), dtype=np.int16))
    s = crop_voi(image, binary(mask), ClickPoint((0, 0, 0)), VOICfg(size=(6, 6, 6)))
    restored = place_back(s.mask, (8, 8, 8), s.offset)
    assert np.array_equal(restored.data, mask.astype(np.uint8))
