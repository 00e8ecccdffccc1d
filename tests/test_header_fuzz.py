"""Seeded NIfTI-1 header fuzz: a mutated header is read or rejected with a toolkit
error, and a run over mutated scans still gives one record per entry."""

import gzip
import json
import tracemalloc

import numpy as np
import pytest

import ulsforge.pipeline as pl
from synth import make_manifest
from ulsforge import Volume3D, read_records_csv, read_volume, write_volume
from ulsforge.cli import main
from ulsforge.errors import TruncatedDataError, UlsforgeError

HEADER_SIZE = 348
# NIfTI-1 byte offsets: dim[0..7] and datatype are int16; the float32 fields are
# intent_p1..p3, pixdim[0..7], vox_offset, scl_slope, scl_inter, cal_max, cal_min,
# slice_duration, toffset, quatern_b..d, qoffset_x..z and srow_x..z
INT16_FIELDS = [*range(40, 56, 2), 70]
FLOAT_FIELDS = [56, 60, 64, *range(76, 120, 4), *range(124, 140, 4), *range(256, 328, 4)]
BAD_FLOATS = [float("nan"), float("inf"), float("-inf"), 1e30]


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One seeded header mutation: random bytes, an int16 field or a float field."""
    out = bytearray(raw)
    kind = int(rng.integers(3))
    if kind == 0:
        for pos in rng.integers(0, HEADER_SIZE, int(rng.integers(1, 5))):
            out[pos] = int(rng.integers(256))
    elif kind == 1:
        pos = int(rng.choice(INT16_FIELDS))
        value = rng.integers(-3, 12) if rng.integers(2) else rng.integers(-32768, 32768)
        out[pos:pos + 2] = np.array(value, dtype="<i2").tobytes()
    else:
        pos = int(rng.choice(FLOAT_FIELDS))
        out[pos:pos + 4] = np.array(rng.choice(BAD_FLOATS), dtype="<f4").tobytes()
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
    for _ in range(600):
        raw = mutate(intact, rng)
        path.write_bytes(raw)
        packed.write_bytes(gzip.compress(raw))
        outcome = read_outcome(path)
        # the gzip path reads the same bytes to the same volume or the same error
        assert read_outcome(packed) == outcome
        outcomes["read" if isinstance(outcome, Volume3D) else "rejected"] += 1
    assert min(outcomes.values()) > 50, outcomes


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
    rng = np.random.default_rng(8)  # its mutations include a non-finite vox_offset
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
