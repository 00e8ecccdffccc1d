"""Seeded NIfTI-1 header fuzz: a mutated header is read as the header states or
rejected with a toolkit error, and a run over mutated scans still gives one record
per entry. A single file's payload starts at vox_offset 352 or later."""

import gzip
import json
import tracemalloc

import numpy as np
import pytest

import ulsforge.pipeline as pl
from oracles import nifti_voxels
from synth import make_case, make_manifest
from ulsforge import Volume3D, read_records_csv, read_volume, write_volume
from ulsforge.cli import main
from ulsforge.errors import BadHeaderError, TruncatedDataError, UlsforgeError

HEADER_SIZE = 348
# NIfTI-1 byte offsets: dim[0..7] and datatype are int16; the float32 fields are
# intent_p1..p3, pixdim[0..7], vox_offset, scl_slope, scl_inter, cal_max, cal_min,
# slice_duration, toffset, quatern_b..d, qoffset_x..z and srow_x..z
INT16_FIELDS = [*range(40, 56, 2), 70]
FLOAT_FIELDS = [56, 60, 64, *range(76, 120, 4), *range(124, 140, 4), *range(256, 328, 4)]
BAD_FLOATS = [float("nan"), float("inf"), float("-inf"), 1e30]
VOX_OFFSET = 108  # byte offset of the vox_offset field
LOW_OFFSETS = [0.0, 348.0, 350.0]  # below 352, the first byte a single file's payload may start at


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One seeded header mutation: random bytes, an int16 field, a float field or
    a vox_offset below 352."""
    out = bytearray(raw)
    kind = int(rng.integers(4))
    if kind == 0:
        for pos in rng.integers(0, HEADER_SIZE, int(rng.integers(1, 5))):
            out[pos] = int(rng.integers(256))
    elif kind == 1:
        pos = int(rng.choice(INT16_FIELDS))
        value = rng.integers(-3, 12) if rng.integers(2) else rng.integers(-32768, 32768)
        out[pos:pos + 2] = np.array(value, dtype="<i2").tobytes()
    elif kind == 2:
        pos = int(rng.choice(FLOAT_FIELDS))
        out[pos:pos + 4] = np.array(rng.choice(BAD_FLOATS), dtype="<f4").tobytes()
    else:
        out[VOX_OFFSET:VOX_OFFSET + 4] = np.array(rng.choice(LOW_OFFSETS), dtype="<f4").tobytes()
    return bytes(out)


def read_outcome(path):
    """The volume read from ``path``, or the class and message of its toolkit error."""
    try:
        return read_volume(path)
    except UlsforgeError as e:
        return type(e), str(e).replace(str(path), "<path>")


def test_read_volume_returns_or_raises_toolkit_error(tmp_path):
    path, packed = tmp_path / "vol.nii", tmp_path / "vol.nii.gz"
    write_volume(Volume3D(np.arange(512, dtype=np.int16).reshape(8, 8, 8)), path)
    intact = path.read_bytes()
    rng = np.random.default_rng(20240)
    outcomes = {"read": 0, "rejected": 0}
    low = 0  # files rejected for a vox_offset below 352
    for _ in range(600):
        raw = mutate(intact, rng)
        path.write_bytes(raw)
        packed.write_bytes(gzip.compress(raw))
        outcome = read_outcome(path)
        # the gzip path reads the same bytes to the same volume or the same error
        assert read_outcome(packed) == outcome
        if isinstance(outcome, Volume3D):  # a volume read is the one its header states
            expected = nifti_voxels(raw)
            assert (outcome.data.dtype, outcome.dims) == (expected.dtype, expected.shape)
            assert outcome.data.tobytes(order="F") == expected.tobytes(order="F")
            outcomes["read"] += 1
        else:
            outcomes["rejected"] += 1
            low += "vox_offset" in outcome[1] and "below 352" in outcome[1]
    assert min(outcomes.values()) > 50, outcomes
    assert low > 50, low


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
@pytest.mark.parametrize("dims, found", [((8, 8, 9), 1024), ((512, 512, 512), 1024), ((8, 8, 8), 0)],
                         ids=["one-slice-more", "beyond-the-file", "offset-past-the-end"])
def test_header_claiming_more_than_the_file_holds_is_truncated(tmp_path, compress, dims, found):
    path = tmp_path / "vol.nii"
    write_volume(Volume3D(np.arange(512, dtype=np.int16).reshape(8, 8, 8)), path)
    raw = bytearray(path.read_bytes())
    raw[42:48] = np.array(dims, dtype="<i2").tobytes()
    if not found:
        raw[108:112] = np.array(4096, dtype="<f4").tobytes()  # vox_offset past the end of the file
    path.write_bytes(gzip.compress(bytes(raw)) if compress else bytes(raw))
    claimed = int(np.prod(dims)) * 2
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedDataError,
                           match="expected %d data bytes, found %d$" % (claimed, found)):
            read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20), peak  # the claimed 256 MiB is never allocated


def test_eval_over_fuzzed_scans_gives_one_record_per_entry(tmp_path):
    path = make_manifest(tmp_path, 8, shape=(24, 24, 16), radius=2)
    entries = json.loads(path.read_text())["entries"]
    rng = np.random.default_rng(8)  # its mutations include a non-finite vox_offset and a low one
    for entry in entries[:6]:
        for key in ("image_path", "mask_path"):
            scan = tmp_path / entry[key]
            raw = gzip.decompress(scan.read_bytes())
            for _ in range(4):
                raw = mutate(raw, rng)
            scan.write_bytes(raw)
    out = tmp_path / "run"
    rc = main(["eval", "--manifest", str(path), "--voi", "16x16x8",
               "--segmenter", "builtin", "--hu-window", "50:150", "--out", str(out)])
    assert rc == 0
    records = read_records_csv(out / "records.csv")
    assert [r.lesion_id for r in records] == [e["lesion_id"] for e in entries]
    assert all(pl.FLAG_ERROR not in r.flags for r in records[6:])


def with_offset(raw: bytes, vox_offset: float, extension: bytes = b"") -> bytes:
    """A file ``write_volume`` wrote, as ``raw``, with its header's vox_offset
    set and ``extension`` inserted after the extension flag, which it sets."""
    out = bytearray(raw[:HEADER_SIZE])
    out[VOX_OFFSET:VOX_OFFSET + 4] = np.array(vox_offset, dtype="<f4").tobytes()
    return bytes(out) + bytes([bool(extension), 0, 0, 0]) + extension + raw[HEADER_SIZE + 4:]


def written(path, compress, vox_offset, extension=b""):
    """A 4x3x2 int16 volume written to ``path`` at ``vox_offset``; its voxels."""
    data = np.arange(24, dtype=np.int16).reshape(4, 3, 2) * 7 - 50
    write_volume(Volume3D(data), path, compress=False)
    raw = with_offset(path.read_bytes(), vox_offset, extension)
    path.write_bytes(gzip.compress(raw) if compress else raw)
    return data


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
@pytest.mark.parametrize("vox_offset", (0.0, -5.0, 348.0, 350.0))
def test_a_vox_offset_below_352_is_a_bad_header(tmp_path, compress, vox_offset):
    path = tmp_path / "vol.nii"
    written(path, compress, vox_offset)
    with pytest.raises(BadHeaderError, match="vox_offset %g is below 352" % vox_offset):
        read_volume(path)


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
@pytest.mark.parametrize("vox_offset, extension", [
    (352.0, b""),
    (368.0, np.array([16, 6], dtype="<i4").tobytes() + b"comment\x00"),  # esize, ecode, data
], ids=["352", "368-extension"])
def test_a_payload_at_or_past_352_reads_the_written_voxels(tmp_path, compress, vox_offset,
                                                           extension):
    path = tmp_path / "vol.nii"
    data = written(path, compress, vox_offset, extension)
    assert np.array_equal(read_volume(path).data, data)
    assert np.array_equal(nifti_voxels(path.read_bytes()), data)


def test_eval_flags_a_scan_whose_payload_starts_inside_the_header(tmp_path):
    entries = []
    for name in ("early", "good"):
        image, mask = make_case(tmp_path, name, shape=(24, 24, 16), centers=((12, 12, 8),))
        entries.append({"lesion_id": name, "patient_id": name, "image_path": image.name,
                        "mask_path": mask.name})
    early = tmp_path / entries[0]["image_path"]
    early.write_bytes(gzip.compress(with_offset(gzip.decompress(early.read_bytes()), 350.0)))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    out = tmp_path / "run"
    rc = main(["eval", "--manifest", str(manifest), "--voi", "16x16x8",
               "--segmenter", "builtin", "--hu-window", "50:150", "--out", str(out)])
    assert rc == 0
    bad, good = read_records_csv(out / "records.csv")
    assert (bad.lesion_id, good.lesion_id) == ("early", "good")
    assert pl.FLAG_ERROR in bad.flags and "vox_offset 350 is below 352" in bad.error
    assert pl.FLAG_ERROR not in good.flags and good.dice == 1.0


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
def test_a_4d_header_whose_fourth_axis_is_1_reads_as_its_3d_volume(tmp_path, compress):
    path = tmp_path / "vol.nii"
    data = written(path, False, 352.0)
    raw = bytearray(path.read_bytes())
    raw[40:42] = np.array(4, dtype="<i2").tobytes()  # dim[0]
    raw[48:50] = np.array(1, dtype="<i2").tobytes()  # dim[4]
    path.write_bytes(gzip.compress(bytes(raw)) if compress else bytes(raw))
    assert np.array_equal(read_volume(path).data, data)


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
@pytest.mark.parametrize("axis", (1, 2, 3))
def test_a_zero_pixdim_is_a_bad_header(tmp_path, compress, axis):
    path = tmp_path / "vol.nii"
    written(path, False, 352.0)
    raw = bytearray(path.read_bytes())
    raw[76 + 4 * axis:80 + 4 * axis] = np.array(0.0, dtype="<f4").tobytes()  # pixdim[axis]
    path.write_bytes(gzip.compress(bytes(raw)) if compress else bytes(raw))
    with pytest.raises(BadHeaderError, match="non-positive pixdim"):
        read_volume(path)


@pytest.mark.parametrize("compress", (False, True), ids=["plain", "gzip"])
def test_a_file_of_exactly_a_valid_header_is_truncated(tmp_path, compress):
    """348 bytes hold the whole header, so the file is short of its payload, not of a header."""
    path = tmp_path / "vol.nii"
    written(path, False, 352.0)  # 4x3x2 int16: 48 data bytes
    raw = path.read_bytes()[:HEADER_SIZE]
    path.write_bytes(gzip.compress(raw) if compress else raw)
    with pytest.raises(TruncatedDataError, match="expected 48 data bytes, found 0$"):
        read_volume(path)
