"""Benchmark-owned NIfTI-1 I/O and thresholded region grower.

Run as a script, this is the external segmenter of the ``exec-eval``
workload::

    python3 perfbench/adapter.py IMAGE X Y Z OUTPUT LO HI

It reads the VOI, grows the 26-connected in-window component that holds
the click, and writes a uint8 mask. It imports only numpy, scipy and
gzip, never ``ulsforge``, so the child's cost is the same on every
commit. Imported, it provides the NIfTI writer that builds the fixture
and the grower that the output check uses as its reference.

The grow follows the documented protocol of the builtin grower: voxels
with ``LO <= v <= HI``, 26-connectivity, and, when the component holds
more than ``max_voxels`` voxels, the first ``max_voxels`` voxels in
breadth-first discovery order with neighbours visited in lexicographic
(dx, dy, dz) order.
"""

from __future__ import annotations

import gzip
import struct
import sys
from itertools import product

import numpy as np
from scipy import ndimage

HEADER_SIZE = 348
VOX_OFFSET = 352
# the builtin grower's growth cap (10 * 128 * 128)
MAX_VOXELS = 163840

_DTYPES = {2: np.dtype(np.uint8), 4: np.dtype("<i2"), 8: np.dtype("<i4"), 16: np.dtype("<f4")}
_CODES = {v: k for k, v in _DTYPES.items()}
_OFFSETS = np.array(sorted(d for d in product((-1, 0, 1), repeat=3) if d != (0, 0, 0)),
                    dtype=np.int64)


def nifti_bytes(data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> bytes:
    """Single-file NIfTI-1 image: minimal header, x-fastest voxel order."""
    dtype = data.dtype.newbyteorder("<")
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    hdr[38:39] = b"r"
    struct.pack_into("<8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<hh", hdr, 70, _CODES[dtype], dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<ff", hdr, 108, float(VOX_OFFSET), 1.0)
    hdr[344:348] = b"n+1\x00"
    payload = np.asarray(data, dtype=dtype).tobytes(order="F")
    return bytes(hdr) + b"\x00" * (VOX_OFFSET - HEADER_SIZE) + payload


def write_nifti(path, data: np.ndarray, spacing=(1.0, 1.0, 1.0), level: int = 1) -> None:
    """Write gzip (``level`` 1-9, mtime 0) or, with level 0, plain NIfTI-1."""
    blob = nifti_bytes(data, spacing)
    if level:
        blob = gzip.compress(blob, compresslevel=level, mtime=0)
    with open(path, "wb") as f:
        f.write(blob)


def read_nifti(path) -> tuple[np.ndarray, tuple[float, float, float]]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if struct.unpack_from("<i", raw, 0)[0] != HEADER_SIZE or raw[344:348] != b"n+1\x00":
        raise ValueError("%s: not a single-file NIfTI-1 image" % path)
    dims = struct.unpack_from("<3h", raw, 42)
    dtype = _DTYPES[struct.unpack_from("<h", raw, 70)[0]]
    spacing = struct.unpack_from("<3f", raw, 80)
    offset = max(HEADER_SIZE, int(struct.unpack_from("<f", raw, 108)[0]))
    n = int(np.prod(dims))
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=offset).reshape(dims, order="F")
    return data, spacing


def _bfs_first(in_window: np.ndarray, seed: tuple[int, int, int], limit: int) -> np.ndarray:
    """First ``limit`` voxels of the breadth-first grow, one layer at a time.

    Expanding the layer's voxels in queue order, each with the sorted
    offsets, and keeping the first occurrence of every new voxel gives
    the next layer in the same order a FIFO queue discovers it.
    """
    shape = np.array(in_window.shape)
    accepted = np.zeros(in_window.shape, dtype=bool)
    accepted[seed] = True
    count = 1
    frontier = np.array([seed], dtype=np.int64)
    while len(frontier) and count < limit:
        cand = (frontier[:, None, :] + _OFFSETS[None, :, :]).reshape(-1, 3)
        cand = cand[((cand >= 0) & (cand < shape)).all(axis=1)]
        idx = tuple(cand.T)
        cand = cand[in_window[idx] & ~accepted[idx]]
        flat = np.ravel_multi_index(tuple(cand.T), in_window.shape)
        _, first = np.unique(flat, return_index=True)
        frontier = cand[np.sort(first)][: limit - count]
        accepted[tuple(frontier.T)] = True
        count += len(frontier)
    return accepted


def grow(image: np.ndarray, click: tuple[int, int, int], lo: float, hi: float,
         max_voxels: int = MAX_VOXELS) -> tuple[np.ndarray, bool]:
    """(uint8 mask, truncated) of the in-window component holding ``click``."""
    seed = tuple(int(c) for c in click)
    if not lo <= image[seed] <= hi:
        return np.zeros(image.shape, dtype=np.uint8), False
    in_window = (image >= lo) & (image <= hi)
    labeled, _ = ndimage.label(in_window, structure=np.ones((3, 3, 3), dtype=bool))
    component = labeled == labeled[seed]
    if int(component.sum()) <= max_voxels:
        return component.astype(np.uint8), False
    return _bfs_first(in_window, seed, max_voxels).astype(np.uint8), True


def main(argv: list[str]) -> int:
    image_path, x, y, z, output_path, lo, hi = argv
    image, spacing = read_nifti(image_path)
    mask, _ = grow(image, (int(x), int(y), int(z)), float(lo), float(hi))
    write_nifti(output_path, mask, spacing)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
