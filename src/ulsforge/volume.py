"""In-memory 3-D voxel grids and NIfTI-1 file I/O.

Arrays are indexed ``[x, y, z]`` everywhere in the toolkit; on disk the
x axis is fastest (NIfTI native layout), so serialization uses Fortran
element order. All geometry here is voxel-index geometry: a write sets
only ``sizeof_hdr``, ``dim``, ``datatype``, ``bitpix``, ``pixdim[1:4]``,
``vox_offset`` and ``magic`` (a fresh header also ``regular``,
``pixdim[0]``, ``scl_slope``, ``xyzt_units`` and ``descrip``), and every
other header byte, orientation and affine included, is carried through
as read.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BadHeaderError,
    BadMagicError,
    PadValueError,
    TruncatedDataError,
    UlsforgeError,
    UnsupportedDatatypeError,
    UnsupportedScalingError,
    WrongKindError,
)

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4-byte extension flag
GZIP_MAGIC = b"\x1f\x8b"
NIFTI_MAGICS = (b"n+1\x00", b"ni1\x00")

# NIfTI-1 datatype codes we read and write. Anything else is rejected
# rather than coerced.
_CODE_TO_DTYPE = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
}
_DTYPE_TO_CODE = {v: k for k, v in _CODE_TO_DTYPE.items()}

# The NIfTI-1 header fields read or written here, at their byte offsets; every
# other header byte is carried through as read
_HEADER_DTYPE = np.dtype({
    "names": ["sizeof_hdr", "regular", "dim", "datatype", "bitpix", "pixdim", "vox_offset",
              "scl_slope", "scl_inter", "xyzt_units", "descrip", "magic"],
    "formats": ["<i4", "S1", ("<i2", (8,)), "<i2", "<i2", ("<f4", (8,)), "<f4",
                "<f4", "<f4", "u1", "S80", "S4"],
    "offsets": [0, 38, 40, 70, 72, 76, 108, 112, 116, 123, 148, 344],
    "itemsize": HEADER_SIZE,
})


class VolumeKind(Enum):
    INTENSITY = "intensity"        # CT intensities, Hounsfield units
    BINARY_MASK = "binary_mask"    # values in {0, 1}
    LABELED_MASK = "labeled_mask"  # non-negative component ids


@dataclass(eq=False)
class Volume3D:
    """Immutable dense voxel grid with per-axis spacing in mm.

    ``data`` has shape ``(nx, ny, nz)`` and is frozen after
    construction, so instances are safe to share across threads.
    Spacing is stored at float32 precision (the precision of the NIfTI
    ``pixdim`` field), which keeps write/read round trips bit-exact.
    """

    data: np.ndarray = field(repr=False)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    kind: VolumeKind = VolumeKind.INTENSITY
    header_meta: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3 or min(data.shape) < 1:
            raise BadHeaderError("volume data must be a non-empty 3-D array, got shape %s" % (data.shape,))
        if data.dtype not in _DTYPE_TO_CODE:
            raise UnsupportedDatatypeError(
                "dtype %s not supported (use one of %s)"
                % (data.dtype, ", ".join(str(d) for d in _DTYPE_TO_CODE))
            )
        spacing = tuple(float(np.float32(s)) for s in self.spacing)
        if len(spacing) != 3 or not all(math.isfinite(s) and s > 0 for s in spacing):
            raise BadHeaderError("spacing must be three positive finite values, got %s"
                                 % (self.spacing,))
        if self.kind is VolumeKind.BINARY_MASK:
            if not np.issubdtype(data.dtype, np.integer) or data.min() < 0 or data.max() > 1:
                raise WrongKindError("binary mask must contain only integer {0, 1}")
        elif self.kind is VolumeKind.LABELED_MASK:
            if not np.issubdtype(data.dtype, np.integer) or (data.size and int(data.min()) < 0):
                raise WrongKindError("labeled mask must contain non-negative integers")
        if data.flags.writeable:
            # callers keep their array mutable; ours is frozen, in the caller's layout
            data = data.copy(order="K")
            data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def nvox(self) -> int:
        return int(self.data.size)

    def __eq__(self, other) -> bool:
        """Equality over dims, spacing, kind, and bit-exact voxel data."""
        if not isinstance(other, Volume3D):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.dims == other.dims
            and self.spacing == other.spacing
            and self.data.dtype == other.data.dtype
            and bool(np.array_equal(self.data, other.data))
        )

    def with_data(self, data: np.ndarray, kind: VolumeKind | None = None) -> Volume3D:
        """New volume with replaced voxels, same spacing and header."""
        return Volume3D(data=data, spacing=self.spacing,
                        kind=self.kind if kind is None else kind,
                        header_meta=self.header_meta)

    def as_binary_mask(self) -> Volume3D:
        """Reinterpret as a binary mask; any nonzero voxel becomes 1."""
        if self.kind is VolumeKind.BINARY_MASK:
            return self
        nonzero = self.data != 0
        nonzero.setflags(write=False)  # read-only: with_data keeps the uint8 view without a copy
        return self.with_data(nonzero.view(np.uint8), VolumeKind.BINARY_MASK)


def _nonzero_spans(data: np.ndarray) -> list[np.ndarray]:
    """Per axis, the indices of the planes that hold a nonzero voxel."""
    xy = data.any(axis=2)  # two passes over the array: x and y spans from here, z below
    return [np.flatnonzero(xy.any(axis=1)), np.flatnonzero(xy.any(axis=0)),
            np.flatnonzero(data.any(axis=(0, 1)))]


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


_STEP = 1 << 15  # compressed bytes read from a gzip file, and decoded bytes taken back, per call
_MAX_DEFLATE_RATIO = 1032  # deflate decodes no compressed byte into more bytes than this


class _GzipStream:
    """The decoded bytes of an open gzip file, read as ``gzip.decompress`` reads them.

    Members follow one another, NUL padding between and after them is
    skipped, and each member's CRC32 and length are checked (by zlib,
    which also checks a header CRC). The file is read one step at a time,
    and only its bytes not yet decoded and one step of output are held.
    A stream that ends early raises TruncatedDataError, any other fault
    BadMagicError.
    """

    def __init__(self, f, path: Path):
        self._f = f
        self._path = path
        self._input = b""  # compressed bytes read but not yet decoded: at most one step and a byte
        self._member = None  # the decompressor of the open member
        self.close = f.close

    def readinto(self, buf: memoryview) -> int:
        """Decode up to ``len(buf)`` bytes, at most one step, into ``buf``; 0 at the end."""
        out = self._decode(len(buf))
        buf[:len(out)] = out
        return len(out)

    def discard(self, n: float = math.inf) -> int:
        """Decode and drop up to ``n`` bytes, by default the rest of the stream; how many there were."""
        done = 0
        while done < n:
            out = self._decode(n - done)
            if not out:
                break
            done += len(out)
        return done

    def _read(self) -> bool:
        """Append the file's next step to the input; False at the end of the file."""
        step = self._f.read(_STEP)
        self._input += step
        return bool(step)

    def _decode(self, limit: float) -> bytes:
        """Up to ``limit`` decoded bytes, at most one step; b"" only at the end of the stream."""
        while True:
            if self._member is None:
                self._input = self._input.lstrip(b"\x00")  # NUL padding between and after members
                if len(self._input) < 2 and self._read():
                    continue  # the magic may straddle two steps
                if not self._input:
                    return b""
                if self._input[:2] != GZIP_MAGIC:
                    raise BadMagicError("%s: corrupt gzip stream: Not a gzipped file (%r)"
                                        % (self._path, self._input[:2]))
                self._member = zlib.decompressobj(wbits=31)  # gzip framing: header, deflate, CRC32 and length
            ended = not self._input and not self._read()
            try:
                out = self._member.decompress(self._input, int(min(limit, _STEP)))
            except zlib.error as e:
                raise BadMagicError("%s: corrupt gzip stream: %s" % (self._path, e)) from e
            if self._member.eof:
                self._input, self._member = self._member.unused_data, None
            elif not out and ended:
                raise TruncatedDataError("%s: gzip stream ends early" % self._path)
            else:
                self._input = self._member.unconsumed_tail
            if out:
                return out


class _PlainFile(io.FileIO):
    """A plain file read as a ``_GzipStream`` is: ``readinto``, and ``discard`` as a seek."""

    def discard(self, n: float = math.inf) -> int:
        """Skip up to ``n`` bytes, by default the rest of the file; how many there were."""
        pos = self.tell()
        return self.seek(min(pos + n, os.fstat(self.fileno()).st_size)) - pos


def _fill(src, buf: memoryview) -> int:
    """Bytes read into ``buf`` by ``src.readinto``; fewer than it holds only where ``src`` ends."""
    pos = 0
    while pos < len(buf):
        n = src.readinto(buf[pos:])
        if not n:
            break
        pos += n
    return pos


def _parse_header(head: bytes, path: Path) -> tuple[np.dtype, tuple[int, int, int],
                                                    tuple[float, float, float], int]:
    """Dtype, dims, spacing and payload offset of the header at the start of ``head``."""
    if len(head) < HEADER_SIZE:
        raise BadMagicError("%s: file shorter than a NIfTI-1 header" % path)
    hdr = np.frombuffer(head[:HEADER_SIZE], dtype=_HEADER_DTYPE)[0]
    # magic sits at bytes 344:348; read it raw, numpy strips trailing NULs
    if int(hdr["sizeof_hdr"]) != HEADER_SIZE or head[344:348] not in NIFTI_MAGICS:
        raise BadMagicError("%s: not a NIfTI-1 file" % path)

    code = int(hdr["datatype"])
    if code not in _CODE_TO_DTYPE:
        raise UnsupportedDatatypeError("%s: NIfTI datatype code %d not supported" % (path, code))
    # a zero or non-finite slope means unscaled (NIfTI-1; nibabel writes NaN)
    slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    if math.isfinite(slope) and slope != 0 and (slope != 1 or inter != 0):
        raise UnsupportedScalingError(
            "%s: scl_slope %g, scl_inter %g ask for rescaled intensities" % (path, slope, inter))

    ndim = int(hdr["dim"][0])
    if ndim < 3:
        raise BadHeaderError("%s: only 3-D volumes supported, header says %d-D" % (path, ndim))
    if any(int(d) > 1 for d in hdr["dim"][4:ndim + 1]):
        raise BadHeaderError("%s: non-singleton dimensions beyond the third" % path)
    dims = tuple(int(d) for d in hdr["dim"][1:4])
    if min(dims) < 1:
        raise BadHeaderError("%s: non-positive dims %s" % (path, dims))
    spacing = tuple(float(p) for p in hdr["pixdim"][1:4])
    if any(s <= 0 for s in spacing):
        raise BadHeaderError("%s: non-positive pixdim %s" % (path, spacing))
    vox_offset = float(hdr["vox_offset"])
    if not all(math.isfinite(v) for v in (*spacing, vox_offset)):
        raise BadHeaderError("%s: non-finite pixdim %s or vox_offset %g" % (path, spacing, vox_offset))
    if vox_offset < VOX_OFFSET:  # NIfTI-1: a single file's payload follows the extension flag
        raise BadHeaderError("%s: vox_offset %g is below %d, the end of a single file's header"
                             % (path, vox_offset, VOX_OFFSET))
    return _CODE_TO_DTYPE[code], dims, spacing, int(vox_offset)


_SLAB = 1 << 18  # decoded bytes of whole z-slices read at a time when only boxes are kept

Box = tuple[tuple[int, int, int], tuple[int, int, int]]  # (lo, hi): the voxels lo <= i < hi


def _overlap(shape: tuple[int, ...], start: tuple[int, ...], size: tuple[int, ...]):
    """(global, local) slices of the window [start, start + size) that lie
    inside ``shape``; an axis the window misses gets empty slices."""
    glob = []
    local = []
    for n, st, s in zip(shape, start, size):
        lo = max(0, st)
        hi = max(lo, min(n, st + s))
        glob.append(slice(lo, hi))
        local.append(slice(lo - st, hi - st))
    return tuple(glob), tuple(local)


def _check_pad(pad: int, dtype: np.dtype) -> None:
    """A pad that ``dtype`` cannot hold, -1024 in a uint8 image, raises PadValueError."""
    if dtype.kind in "iu" and not np.iinfo(dtype).min <= pad <= np.iinfo(dtype).max:
        raise PadValueError("pad value %s does not fit the volume's dtype %s" % (pad, dtype))


class _NiftiFile:
    """An open NIfTI-1 file whose header is read and checked; its payload is read once, into boxes.

    Opening reads the header as ``read_volume`` does and checks the size it
    claims against what the file can hold, before anything is allocated. A
    plain file and a gzip stream are read alike, by ``readinto`` and ``discard``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        f = _PlainFile(str(path))  # an OSError names the file as given, not as a Path's repr
        try:
            gz = f.read(2) == GZIP_MAGIC
            f.seek(0)
            self._src = _GzipStream(f, self.path) if gz else f
            self._read_header(os.fstat(f.fileno()).st_size * (_MAX_DEFLATE_RATIO if gz else 1))
        except BaseException:
            f.close()
            raise

    def __enter__(self) -> _NiftiFile:
        return self

    def __exit__(self, *exc) -> None:
        self._src.close()

    def _read_header(self, most: int) -> None:
        """Read and check the header; a payload above ``most`` bytes raises TruncatedDataError."""
        head = bytearray(VOX_OFFSET)
        head = bytes(head[:_fill(self._src, memoryview(head))])
        try:
            self.dtype, self.dims, self.spacing, offset = _parse_header(head, self.path)
        except UlsforgeError:
            self._src.discard()  # a fault in a gzip stream is reported before one in the header
            raise
        self.header = head[:HEADER_SIZE]
        self.nbytes = math.prod(self.dims) * self.dtype.itemsize
        if offset + self.nbytes > most:
            # more than the file can hold: found without allocating what the header claims
            total = len(head) + self._src.discard()
            raise TruncatedDataError("%s: expected %d data bytes, found %d"
                                     % (self.path, self.nbytes, max(0, total - offset)))
        self._src.discard(offset - len(head))

    def _slabs(self, z0: int, z1: int):
        """The z-slices ``z0 <= z < z1`` as runs of whole slices, each an
        x-fastest view ``(z, slices)`` of one reused buffer; once they are
        given, the rest of the payload is read and checked.

        The buffer holds as many whole slices as fit in ``_SLAB`` bytes, at
        least one, and no more than are asked for. The slices before ``z0``
        and the payload past ``z1`` are the source's ``discard``: a seek in a
        plain file, and in a gzip stream a decode that checks them, so a
        fault gives the same error however much of the volume is kept.
        """
        nx, ny, _ = self.dims
        plane = nx * ny * self.dtype.itemsize
        depth = max(1, _SLAB // plane)
        slab = np.empty(nx * ny * min(depth, z1 - z0), dtype=self.dtype)
        found = self._src.discard(z0 * plane)
        for z in range(z0, z1, depth):
            n = min(depth, z1 - z)
            got = _fill(self._src, memoryview(slab).cast("B")[:n * plane])
            found += got
            if got < n * plane:
                break
            yield z, slab[:nx * ny * n].reshape((nx, ny, n), order="F")
        self._finish(found)

    def _finish(self, found: int) -> None:
        """Read and check the payload past its first ``found`` bytes and what
        follows it in a gzip stream; a short payload raises TruncatedDataError."""
        found += self._src.discard(self.nbytes - found)
        self._src.discard()  # decoded bytes past the payload, checked like the rest
        if found < self.nbytes:
            raise TruncatedDataError("%s: expected %d data bytes, found %d"
                                     % (self.path, self.nbytes, found))

    def read_boxes(self, boxes: list[Box], pad: int = 0) -> list[np.ndarray]:
        """Each box as a read-only x-fastest array. A box may leave the
        volume: its voxels outside it take ``pad``.

        The payload is read once: a lone box that is the whole volume straight
        into its array, else a run of whole z-slices at a time (``_slabs``)
        from which each box copies its part inside the volume, so only the
        boxes and the buffer are held. A fault gives the same error for any
        boxes, none included. After the read, a ``pad`` that the dtype cannot
        hold raises PadValueError, whether or not a box leaves the volume.
        """
        sizes = [tuple(h - l for l, h in zip(*box)) for box in boxes]
        parts = [_overlap(self.dims, lo, size) for (lo, _), size in zip(boxes, sizes)]
        if boxes == [((0, 0, 0), self.dims)]:  # the whole volume, as read_volume reads it
            data = np.empty(math.prod(self.dims), dtype=self.dtype)
            self._finish(_fill(self._src, memoryview(data).cast("B")))
            outs = [data.reshape(self.dims, order="F")]
        else:
            outs = [np.empty(size, dtype=self.dtype, order="F") for size in sizes]
            nz = self.dims[2]
            z0 = min((min(g[2].start, nz) for g, _ in parts), default=0)
            z1 = max((min(g[2].stop, nz) for g, _ in parts), default=0)
            for z, slices in self._slabs(z0, z1):
                for (lo, _), (glob, local), out in zip(boxes, parts, outs):
                    a, b = max(z, glob[2].start), min(z + slices.shape[2], glob[2].stop)
                    if a < b:
                        out[local[0], local[1], a - lo[2]:b - lo[2]] = slices[glob[0], glob[1], a - z:b - z]
        _check_pad(pad, self.dtype)
        for (_, local), out in zip(parts, outs):
            for axis, inner in enumerate(local):  # the slabs on each side of the part inside
                for side in (slice(0, inner.start), slice(inner.stop, None)):
                    out[(slice(None),) * axis + (side,)] = pad
            out.setflags(write=False)  # read-only: Volume3D keeps it without a copy
        return outs

    def read_foreground(self) -> tuple[tuple[int, int, int], np.ndarray, int]:
        """The corner and the read-only x-fastest voxels of the box that holds
        every nonzero voxel (NaN included), and the count of voxels that are
        not finite.

        The payload is read as ``read_boxes`` reads it, a run of whole
        z-slices at a time, and each run keeps only the box of its nonzero
        voxels; the runs' boxes are then pasted into the foreground box. So
        the read holds the buffer and at most twice the foreground box, never
        the whole volume. A volume without a nonzero voxel gives one zero
        voxel at the origin.
        """
        parts = []  # (corner, voxels) of each run's nonzero box
        bad = 0
        for z, slices in self._slabs(0, self.dims[2]):
            if self.dtype.kind == "f":
                bad += slices.size - np.count_nonzero(np.isfinite(slices))
            spans = _nonzero_spans(slices)
            if spans[2].size:
                box = tuple(slice(s[0], s[-1] + 1) for s in spans)
                parts.append(((box[0].start, box[1].start, z + box[2].start),
                              slices[box].copy(order="F")))
        lo = tuple(int(min((c[i] for c, _ in parts), default=0)) for i in range(3))
        hi = tuple(int(max((c[i] + a.shape[i] for c, a in parts), default=1)) for i in range(3))
        out = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=self.dtype, order="F")
        while parts:
            corner, voxels = parts.pop()  # each part is dropped once pasted
            out[tuple(slice(c - l, c - l + n) for c, l, n in zip(corner, lo, voxels.shape))] = voxels
        out.setflags(write=False)
        return lo, out, bad


def read_volume(path: str | Path) -> Volume3D:
    """Read a NIfTI-1 volume (.nii, plain or gzip-compressed).

    Compression is detected from the leading two bytes, not the file
    name. Dims and spacing come from the header; the raw 348 header
    bytes are retained on the volume for round-tripping. The returned
    kind is always INTENSITY; use :meth:`Volume3D.as_binary_mask` when
    the file holds a mask.

    The file is read in one pass, as one box that is the whole volume.
    After the header, the voxel array is allocated once and filled in
    place: straight from a plain file, or decoded from a gzip file read a
    32 KiB step at a time, which is never held whole. So a read holds one
    decoded volume and, for gzip, one step of the file. The header's size is
    checked against what the file can hold before anything is
    allocated. Errors in the gzip stream take precedence over errors in
    the header or payload it decodes to.

    Raises
    ------
    FileNotFoundError, BadMagicError, UnsupportedDatatypeError,
    TruncatedDataError, BadHeaderError, UnsupportedScalingError
    """
    with _NiftiFile(path) as f:
        data, = f.read_boxes([((0, 0, 0), f.dims)])
    return Volume3D(data=data, spacing=f.spacing, kind=VolumeKind.INTENSITY, header_meta=f.header)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _build_header(vol: Volume3D) -> bytes:
    """Header for ``vol``: retained bytes patched, or a fresh minimal one."""
    retained = vol.header_meta is not None and len(vol.header_meta) == HEADER_SIZE
    buf = bytearray(vol.header_meta if retained else HEADER_SIZE)
    hdr = np.frombuffer(buf, dtype=_HEADER_DTYPE)[0]  # a view: undeclared bytes stay as they are
    if not retained:
        hdr["regular"] = b"r"
        hdr["pixdim"][0] = 1.0
        hdr["scl_slope"] = 1.0
        hdr["xyzt_units"] = 2  # mm
        hdr["descrip"] = b"ulsforge"
    hdr["sizeof_hdr"] = HEADER_SIZE
    dim = np.ones(8, dtype=np.int16)
    dim[0] = 3
    dim[1:4] = vol.dims
    hdr["dim"] = dim
    hdr["pixdim"][1:4] = np.asarray(vol.spacing, dtype=np.float32)
    hdr["datatype"] = _DTYPE_TO_CODE[vol.data.dtype]
    hdr["bitpix"] = vol.data.dtype.itemsize * 8
    hdr["vox_offset"] = float(VOX_OFFSET)
    hdr["magic"] = NIFTI_MAGICS[0]
    return bytes(buf)


def write_volume(vol: Volume3D, path: str | Path, compress: bool | None = None) -> None:
    """Write ``vol`` as a single-file NIfTI-1 volume.

    ``compress=None`` infers gzip from a ``.gz`` suffix; pass an
    explicit bool to override. Reading the written file reproduces
    dims, spacing, and voxel data bit-exactly. The header, then one
    x-fastest z-slice at a time, is written and deflated on the way, so a
    write holds one slice, never a copy of the volume; the gzip bytes are
    ``gzip.compress`` of the whole file at level 1 with mtime 0.
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    # gzip framing at the fastest level: about 5 % larger than level 9 at a
    # fraction of its time; zlib writes mtime 0, so identical volumes give identical bytes
    deflate = zlib.compressobj(1, zlib.DEFLATED, 31) if compress else None
    head = _build_header(vol) + b"\x00" * (VOX_OFFSET - HEADER_SIZE)
    slices = (vol.data[:, :, z].tobytes(order="F") for z in range(vol.dims[2]))
    with open(path, "wb") as f:
        for chunk in itertools.chain([head], slices):
            f.write(deflate.compress(chunk) if deflate else chunk)
        if deflate:
            f.write(deflate.flush())
