import ast
import gzip
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from ulsforge import Volume3D, VolumeKind, read_volume, volume, write_volume
from ulsforge.volume import _HEADER_DTYPE, _build_header
from ulsforge.errors import (
    BadHeaderError,
    BadMagicError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    WrongKindError,
)

DTYPES = (np.int16, np.uint8, np.int32, np.float32)
STEP = volume._STEP  # compressed bytes read_volume reads from a gzip file at a time
CHUNK = 1 << 18  # a coarser read size: a magic that straddles it is one more framing case


def random_volume(rng, dtype, shape=None, spacing=None):
    shape = shape or tuple(int(rng.integers(2, 12)) for _ in range(3))
    if spacing is None:
        spacing = tuple(float(np.float32(rng.uniform(0.3, 3.0))) for _ in range(3))
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        lo = max(info.min, -2000)
        hi = min(info.max, 3000)
        data = rng.integers(lo, hi, size=shape).astype(dtype)
    else:
        data = rng.normal(0, 500, size=shape).astype(dtype)
    return Volume3D(data, spacing=spacing)


def test_zero_volume_roundtrip(tmp_path):
    vol = Volume3D(np.zeros((4, 4, 4), dtype=np.int16))
    path = tmp_path / "zero.nii"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.dims == (4, 4, 4)
    assert not back.data.any()


def test_gzip_roundtrip_matches_independent_decompressor(tmp_path):
    rng = np.random.default_rng(7)
    vol = random_volume(rng, np.int16, shape=(4, 4, 4))
    plain = tmp_path / "v.nii"
    packed = tmp_path / "v.nii.gz"
    write_volume(vol, plain)
    write_volume(vol, packed)
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
    assert read_volume(packed) == read_volume(plain)


def test_corrupted_header_is_bad_magic(tmp_path):
    path = tmp_path / "v.nii"
    write_volume(Volume3D(np.zeros((4, 4, 4), dtype=np.int16)), path)
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"\xff\xff\xff\xff"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_volume(path)


def test_not_a_nifti_file(tmp_path):
    path = tmp_path / "junk.nii"
    path.write_bytes(b"definitely not a volume" * 40)
    with pytest.raises(BadMagicError):
        read_volume(path)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_volume(tmp_path / "absent.nii")


def test_unsupported_datatype(tmp_path):
    path = tmp_path / "v.nii"
    write_volume(Volume3D(np.zeros((4, 4, 4), dtype=np.int16)), path)
    blob = bytearray(path.read_bytes())
    blob[70:72] = (64).to_bytes(2, "little")  # float64 code
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedDatatypeError):
        read_volume(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "v.nii"
    write_volume(Volume3D(np.zeros((6, 6, 6), dtype=np.int16)), path)
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(TruncatedDataError):
        read_volume(path)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("compress", (False, True))
def test_roundtrip_bit_exact(tmp_path, dtype, compress):
    rng = np.random.default_rng(11)
    vol = random_volume(rng, dtype, shape=(8, 8, 8))
    path = tmp_path / ("v.nii.gz" if compress else "v.nii")
    write_volume(vol, path)
    back = read_volume(path)
    assert back.dims == vol.dims
    assert back.spacing == vol.spacing
    assert back.data.dtype == vol.data.dtype
    assert np.array_equal(back.data, vol.data)


def test_binary_mask_values_survive(tmp_path):
    rng = np.random.default_rng(3)
    mask = (rng.random((5, 7, 4)) < 0.4).astype(np.uint8)
    vol = Volume3D(mask, kind=VolumeKind.BINARY_MASK)
    path = tmp_path / "m.nii.gz"
    write_volume(vol, path)
    back = read_volume(path).as_binary_mask()
    assert set(np.unique(back.data)) <= {0, 1}
    assert np.array_equal(back.data, mask)


def test_compressed_output_has_gzip_magic(tmp_path):
    path = tmp_path / "v.nii"
    write_volume(Volume3D(np.zeros((4, 4, 4), dtype=np.int16)), path, compress=True)
    assert path.read_bytes()[:2] == b"\x1f\x8b"


def test_gzip_writes_are_repeatable_and_at_the_fastest_level(tmp_path):
    vol = random_volume(np.random.default_rng(11), np.int16, shape=(9, 7, 5))
    first, second, plain = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz", tmp_path / "v.nii"
    for path in (first, second, plain):
        write_volume(vol, path)
    packed = first.read_bytes()
    assert second.read_bytes() == packed
    assert gzip.decompress(packed) == plain.read_bytes()
    assert packed[8] == 4  # gzip header XFL: 4 = fastest, 2 = maximum compression


def _pinned_volumes():
    rng = np.random.default_rng(17)
    data = rng.integers(-1000, 1000, size=(96, 80, 12)).astype(np.int16)
    mask = (rng.random((40, 36, 9)) < 0.3).astype(np.uint8)
    view = np.asfortranarray(data)[5:70, 3:61, 2:11]
    view.setflags(write=False)  # read-only: Volume3D keeps the strided view without a copy
    return {
        "int16-c": Volume3D(np.ascontiguousarray(data), spacing=(0.7, 0.8, 2.5)),
        "int16-f": Volume3D(np.asfortranarray(data), spacing=(0.7, 0.8, 2.5)),
        "int16-view": Volume3D(view),
        "uint8-mask": Volume3D(mask, kind=VolumeKind.BINARY_MASK),
    }


PINNED_VOLUMES = _pinned_volumes()


@pytest.mark.parametrize("name", sorted(PINNED_VOLUMES))
def test_written_bytes_are_the_whole_file_deflated_at_level_1(tmp_path, name):
    """Whatever the volume's memory layout, the file is the header, 4 zero
    bytes and the x-fastest payload, and the ``.nii.gz`` is exactly that blob
    through ``gzip.compress`` at level 1 with mtime 0."""
    vol = PINNED_VOLUMES[name]
    blob = _build_header(vol) + bytes(4) + np.ravel(vol.data, order="F").tobytes()
    write_volume(vol, tmp_path / "v.nii.gz")
    write_volume(vol, tmp_path / "v.nii")
    assert (tmp_path / "v.nii").read_bytes() == blob
    assert (tmp_path / "v.nii.gz").read_bytes() == gzip.compress(blob, compresslevel=1, mtime=0)


def test_gzip_detected_by_content_not_name(tmp_path):
    vol = Volume3D(np.ones((3, 3, 3), dtype=np.uint8))
    path = tmp_path / "misnamed.nii"  # gzipped bytes behind a plain name
    write_volume(vol, path, compress=True)
    assert read_volume(path) == vol


# the header bytes _build_header writes over a retained header: sizeof_hdr, dim,
# datatype, bitpix, pixdim[1:4], vox_offset and magic
WRITTEN_HEADER_BYTES = {*range(0, 4), *range(40, 56), *range(70, 74), *range(80, 92),
                        *range(108, 112), *range(344, 348)}


def test_header_bytes_retained_opaquely(tmp_path):
    """Every header byte that _build_header does not write survives a read and a
    write, plain and gzip."""
    path = tmp_path / "v.nii"
    write_volume(Volume3D(np.zeros((4, 4, 4), dtype=np.int16)), path)
    blob = bytearray(path.read_bytes())
    kept = [i for i in range(348) if i not in WRITTEN_HEADER_BYTES]
    for i in kept:
        blob[i] = (i * 37 + 11) % 256
    blob[112:116] = np.array(0x7FC0A55A, dtype="<u4").tobytes()  # scl_slope: a NaN, unscaled
    marker = b"scanner-xyz"
    blob[148:148 + len(marker)] = marker  # descrip field
    path.write_bytes(bytes(blob))
    vol = read_volume(path)
    assert vol.header_meta == bytes(blob[:348])
    for out in (tmp_path / "copy.nii", tmp_path / "copy.nii.gz"):
        write_volume(vol, out)
        raw = out.read_bytes()
        written = gzip.decompress(raw) if out.suffix == ".gz" else raw
        assert [i for i in kept if written[i] != blob[i]] == [], out.name
        assert read_volume(out).header_meta == written[:348]


def test_every_declared_header_field_is_read_or_written():
    """_HEADER_DTYPE names only the fields volume.py subscripts as hdr["name"];
    every other header byte is carried through undeclared."""
    tree = ast.parse(Path(volume.__file__).read_text())
    used = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "hdr" and isinstance(node.slice, ast.Constant)}
    assert sorted(set(_HEADER_DTYPE.names) - used) == []


def test_constructor_validation():
    with pytest.raises(BadHeaderError):
        Volume3D(np.zeros((4, 4), dtype=np.int16))
    with pytest.raises(BadHeaderError):
        Volume3D(np.zeros((4, 4, 4), dtype=np.int16), spacing=(1.0, 0.0, 1.0))
    with pytest.raises(UnsupportedDatatypeError):
        Volume3D(np.zeros((4, 4, 4), dtype=np.float64))
    with pytest.raises(WrongKindError):
        Volume3D(np.full((2, 2, 2), 2, dtype=np.uint8), kind=VolumeKind.BINARY_MASK)
    with pytest.raises(WrongKindError):
        Volume3D(np.array([0, 1, -1, 0]).astype(np.int16).reshape(1, 2, 2),
                 kind=VolumeKind.BINARY_MASK)
    with pytest.raises(WrongKindError):
        Volume3D(np.array([0, 1, 2, 1]).astype(np.uint8).reshape(2, 1, 2),
                 kind=VolumeKind.BINARY_MASK)
    mask = Volume3D(np.array([0, 1, 1, 0]).astype(np.int32).reshape(2, 2, 1),
                    kind=VolumeKind.BINARY_MASK)
    assert mask.data.dtype == np.int32 and mask.data.tolist() == [[[0], [1]], [[1], [0]]]
    with pytest.raises(WrongKindError):
        Volume3D(np.full((2, 2, 2), -1, dtype=np.int32), kind=VolumeKind.LABELED_MASK)


@pytest.mark.parametrize("order", ["C", "F"])
def test_volume_is_immutable_and_caller_array_untouched(order):
    arr = np.zeros((3, 4, 5), dtype=np.int16, order=order)
    vol = Volume3D(arr)
    assert vol.data.strides == arr.strides  # the frozen copy keeps the caller's layout
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1
    arr[0, 0, 0] = 5  # caller's array stays writable
    assert vol.data[0, 0, 0] == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "+inf", "-inf"])
def test_non_finite_spacing_rejected(bad):
    # every volume that constructs must survive its own write/read round trip
    with pytest.raises(BadHeaderError):
        Volume3D(np.zeros((2, 2, 2), dtype=np.int16), spacing=(bad, 1.0, 1.0))


def test_spacing_stored_at_float32_precision():
    vol = Volume3D(np.zeros((2, 2, 2), dtype=np.int16), spacing=(0.1, 0.2, 0.3))
    assert vol.spacing == tuple(float(np.float32(s)) for s in (0.1, 0.2, 0.3))


def gzip_member(payload: bytes, extra: bytes | None = None, name: bytes | None = None,
                header_crc: int | None = None) -> bytes:
    """One gzip member with optional FEXTRA, FNAME and FHCRC fields; ``header_crc``
    overrides the header CRC that FHCRC carries (default: the correct one)."""
    flags = (4 if extra is not None else 0) | (8 if name is not None else 0)
    flags |= 2 if header_crc is not None else 0
    head = b"\x1f\x8b\x08" + bytes([flags]) + bytes(4) + b"\x00\x03"
    if extra is not None:
        head += len(extra).to_bytes(2, "little") + extra
    if name is not None:
        head += name + b"\x00"
    if header_crc is not None:
        head += (header_crc if header_crc >= 0 else zlib.crc32(head) & 0xFFFF).to_bytes(2, "little")
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
    body = deflate.compress(payload) + deflate.flush()
    trailer = zlib.crc32(payload).to_bytes(4, "little") + len(payload).to_bytes(4, "little")
    return head + body + trailer


def padded_to(blob: bytes, n: int) -> bytes:
    return blob + bytes(n - len(blob))


def framed_volume(tmp_path):
    vol = random_volume(np.random.default_rng(5), np.int16, shape=(9, 8, 7))
    path = tmp_path / "v.nii"
    write_volume(vol, path)
    return vol, path.read_bytes()


@pytest.mark.parametrize("frame", [
    lambda raw: gzip_member(raw[:500]) + gzip_member(raw[500:]),
    lambda raw: gzip.compress(raw) + bytes(37),
    lambda raw: gzip_member(raw[:10]) + bytes(3) + gzip_member(raw[10:]) + bytes(5),
    lambda raw: gzip_member(raw, extra=b"ab\x04\x00wxyz", name=b"scan.nii"),
    lambda raw: gzip_member(raw, name=b"scan.nii", header_crc=-1),
    lambda raw: padded_to(gzip_member(raw[:500]), CHUNK - 1) + gzip_member(raw[500:]),
    lambda raw: padded_to(gzip_member(raw[:500]), STEP - 1) + gzip_member(raw[500:]),
], ids=["two-members", "nul-padding", "padded-members", "fname-fextra", "fhcrc",
        "magic-across-chunks", "magic-across-steps"])
def test_gzip_framing_reads_as_gzip_decompress(tmp_path, frame):
    vol, raw = framed_volume(tmp_path)
    blob = frame(raw)
    assert gzip.decompress(blob) == raw
    path = tmp_path / "v.nii.gz"
    path.write_bytes(blob)
    assert read_volume(path) == vol


@pytest.mark.parametrize("frame, error, match", [
    (lambda raw: gzip.compress(raw) + b"garbage", BadMagicError, "corrupt gzip stream"),
    (lambda raw: gzip.compress(raw) + bytes(4) + b"\x1f", BadMagicError, "corrupt gzip stream"),
    (lambda raw: gzip_member(raw[:500]) + gzip_member(raw[500:])[:-30], TruncatedDataError,
     "gzip stream ends early"),
    (lambda raw: gzip_member(raw[:500]) + gzip_member(raw[500:])[:5], TruncatedDataError,
     "gzip stream ends early"),
    # gzip.decompress skipped the header CRC; zlib checks it
    (lambda raw: gzip_member(raw, header_crc=0x1234), BadMagicError, "corrupt gzip stream"),
], ids=["garbage-after-member", "one-byte-after-padding", "truncated-second-member",
        "truncated-second-header", "wrong-fhcrc"])
def test_gzip_framing_errors(tmp_path, frame, error, match):
    _, raw = framed_volume(tmp_path)
    path = tmp_path / "v.nii.gz"
    path.write_bytes(frame(raw))
    with pytest.raises(error, match=match):
        read_volume(path)


def test_gzip_error_reported_before_header_error(tmp_path):
    _, raw = framed_volume(tmp_path)
    path = tmp_path / "v.nii.gz"
    path.write_bytes(gzip.compress(b"\x00" * 4 + raw[4:])[:-40])  # bad sizeof_hdr, cut short
    with pytest.raises(TruncatedDataError, match="gzip stream ends early"):
        read_volume(path)
    path.write_bytes(gzip.compress(b"\x00" * 4 + raw[4:]) + b"garbage")
    with pytest.raises(BadMagicError, match="corrupt gzip stream"):
        read_volume(path)


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
@pytest.mark.parametrize("content", ("ct", "zeros"))
def test_read_peak_memory_is_one_volume_and_one_chunk(tmp_path, compress, content):
    rng = np.random.default_rng(2)
    shape = (128, 128, 96)  # 3 MiB decoded at int16
    data = (rng.integers(-1000, 1000, size=shape) if content == "ct" else np.zeros(shape)).astype(np.int16)
    path = tmp_path / ("v.nii.gz" if compress else "v.nii")
    write_volume(Volume3D(data), path)
    tracemalloc.start()
    try:
        vol = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one decoded volume, one step of the file, and under 256 KiB more:
    # zlib's window and state, one step of output, the header
    assert peak <= vol.data.nbytes + STEP + (1 << 18), peak
    assert np.array_equal(vol.data, data)
    assert vol.data.flags.f_contiguous and not vol.data.flags.writeable
