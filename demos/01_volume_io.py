"""
Volumes on disk: NIfTI-1 reading and writing
============================================

Volumes are dense [x, y, z] voxel grids with per-axis spacing in mm.
On disk they are single-file NIfTI-1, plain or gzip-compressed, and
compression is detected from the file content, never the name.
"""

import gzip
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ulsforge import Volume3D, VolumeKind, read_volume, write_volume
from ulsforge.errors import BadMagicError

workdir = Path(tempfile.mkdtemp(prefix="demo-volume-"))

# a small CT-like volume: air background with a bright cube
hu = np.full((32, 32, 16), -1000, dtype=np.int16)
hu[10:20, 10:20, 5:11] = 60
ct = Volume3D(hu, spacing=(0.8, 0.8, 2.0))
print("in-memory volume:", ct.dims, "spacing", ct.spacing, "kind", ct.kind.value)

# write both flavors; the gzip file is just the plain bytes compressed
plain = workdir / "ct.nii"
packed = workdir / "ct.nii.gz"
write_volume(ct, plain)
write_volume(ct, packed)
print("plain file:  %6d bytes" % plain.stat().st_size)
print("gzip file:   %6d bytes" % packed.stat().st_size)
assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()

# round trip is bit-exact: dims, spacing, and every voxel
back = read_volume(packed)
assert back == ct
print("round trip bit-exact:", back == ct)

# content sniffing: gzip bytes behind a plain .nii name still load
misnamed = workdir / "misnamed.nii"
write_volume(ct, misnamed, compress=True)
print("gzip behind a .nii name reads fine:", read_volume(misnamed) == ct)

# masks carry their own kind and are validated at construction
mask = Volume3D((hu > 0).astype(np.uint8), spacing=ct.spacing,
                kind=VolumeKind.BINARY_MASK)
write_volume(mask, workdir / "mask.nii.gz")
print("mask voxels:", int(mask.data.sum()))

# a non-NIfTI file is rejected with a clear error
junk = workdir / "junk.nii"
junk.write_bytes(b"\x00" * 400)
try:
    read_volume(junk)
except BadMagicError as e:
    print("rejected junk file:", e)

shutil.rmtree(workdir)  # the demo leaves nothing behind
