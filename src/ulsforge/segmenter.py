"""Pluggable segmenters.

Each kind of segmenter is one frozen type that checks its own settings,
names its model and segments one VOI in its ``segment`` method (the
``SegmenterRef`` protocol), so a new kind is a new type and nothing more;
``segment`` and ``segment_box`` run any kind. Two ship: a deterministic
HU-window region grower for known-answer tests, and an external-process
adapter that sends VOIs to a real model through a five-placeholder command
template (``PLACEHOLDERS``).
"""

from __future__ import annotations

import os
import select
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np
from scipy import ndimage

from .errors import (
    BadMaskDimsError,
    BadMaskValuesError,
    ClickOutOfVolumeError,
    ProcessFailedError,
    SegmenterTimeoutError,
    UlsforgeError,
)
from .lesions import CONNECTIVITIES, _foreground_box, _structure
from .voi import place_back
from .volume import Volume3D, VolumeKind, _NiftiFile, _nonzero_spans, write_volume
# read_volume: unused here, kept for tools that trace a run and wrap it by name on segmenter
from .volume import read_volume  # noqa: F401

PLACEHOLDERS = ("{image}", "{x}", "{y}", "{z}", "{output}")

# permissive soft-tissue window; tests and demos pass explicit windows
DEFAULT_HU_WINDOW = (-160, 240)

# poll(2) takes at most a C int of milliseconds; longer bounds, inf too, wait unbounded
_MAX_WAIT_S = (2 ** 31 - 1) // 1000

# an exec: model's BLAS/OpenMP thread counts unless ulsforge's environment sets them: a run holds one model
# per worker and by default one worker per CPU, so a pool per CPU in every model would oversubscribe the
# CPUs; a constant, not a share of --workers, so a model whose results follow it scores alike at any count.
# Where fewer models run than there are CPUs, a compute-bound model is slower for it (README)
_ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_STDERR_TAIL = 1 << 16  # the last bytes of an exec: model's stderr that are kept

_FIRST_HALF_WIDTH = 16  # voxels on each side of the click the grower thresholds first
_BFS_BATCH = 1024  # parents a truncated grow expands at a time
_THRESHOLD_VOXELS = 1 << 18  # voxels of whole z-slices the grower thresholds at a time


@dataclass(frozen=True)
class GrowParams:
    """Region-growing configuration: inclusive HU bounds and a growth cap, an
    integer of at least 1 (a numpy integer too, never a bool or a float)."""

    hu_window: tuple[float, float] = DEFAULT_HU_WINDOW
    connectivity: int = 26
    max_voxels: int = 10 * 128 * 128

    def __post_init__(self):
        lo, hi = self.hu_window
        if not lo <= hi:  # also false for a NaN bound
            raise ValueError("hu_window needs lo <= hi and no NaN, got (%r, %r)" % (lo, hi))
        if isinstance(self.max_voxels, bool) or not isinstance(self.max_voxels, (int, np.integer)):
            raise ValueError("max_voxels must be an integer, got %r" % (self.max_voxels,))
        if self.max_voxels < 1:
            raise ValueError("max_voxels must be >= 1")
        if self.connectivity not in CONNECTIVITIES:
            raise ValueError("connectivity must be one of %s" % (CONNECTIVITIES,))


class SegmenterRef(Protocol):
    """What a segmenter gives; ``builtin`` and ``external`` build the two that ship."""

    kind: str  # names the kind for tools that report on it, such as tracers
    model_id: str  # the model's name in records and run metadata

    def segment(self, voi_image: Volume3D,
                local_click: tuple[int, int, int]) -> SegmentationResult:
        """Segment the lesion at ``local_click`` in one VOI: a mask over the
        VOI, or over a box of it at the result's ``corner``."""
        ...

    @staticmethod
    def builtin(params: GrowParams | None = None) -> BuiltinSegmenter:
        return BuiltinSegmenter(params or GrowParams())

    @staticmethod
    def external(command: str, timeout_s: float = 60.0) -> ExternalSegmenter:
        return ExternalSegmenter(command, timeout_s)


@dataclass(frozen=True)
class BuiltinSegmenter(SegmenterRef):
    """The HU-window region grower: a flood fill from the click over voxels
    inside the window, breadth-first with neighbors in lexicographic
    (dx, dy, dz) order, so the voxels kept when ``max_voxels`` truncates
    are deterministic and shifting content and click together shifts the
    mask alike. ``voi_image`` may be a read-only view. The grow starts in a
    small box around the click and widens each side its component touches
    to the VOI's face: a path out of the box passes a voxel on one of its
    faces, so the grow is the whole VOI's, and the work follows the lesion.
    Each box is thresholded a run of z-slices at a time into one array,
    which is cut to the box of its in-window voxels before labeling. A truncated grow
    walks the seed's component alone, cut to its own box: a breadth-first
    walk never leaves its component, and the component is all the grow
    holds beside the walk's own tables. The mask is the box of the grown
    voxels at the result's ``corner``; a seed outside the window gives one
    zero voxel at the click."""

    kind = "builtin"
    grow_params: GrowParams = GrowParams()

    @property
    def model_id(self) -> str:
        lo, hi = self.grow_params.hu_window
        return "builtin-grow[%g,%g]" % (lo, hi)

    def segment(self, voi_image, local_click):
        params = self.grow_params
        data = voi_image.data
        if any(c < 0 or c >= n for c, n in zip(local_click, data.shape)):
            raise ClickOutOfVolumeError("click %s outside VOI dims %s" % (local_click, data.shape))
        lo, hi = params.hu_window
        seed = tuple(int(c) for c in local_click)
        mask, corner, truncated = np.zeros((1, 1, 1), dtype=np.uint8), seed, False
        if lo <= data[seed] <= hi:
            box = tuple(slice(max(0, c - _FIRST_HALF_WIDTH), min(n, c + _FIRST_HALF_WIDTH + 1))
                        for c, n in zip(seed, data.shape))
            while True:
                values = data[box]
                inside = values >= lo
                step = max(1, _THRESHOLD_VOXELS // (inside.shape[0] * inside.shape[1]))
                for z in range(0, inside.shape[2], step):  # no second array of the box
                    inside[:, :, z:z + step] &= values[:, :, z:z + step] <= hi
                tight = _foreground_box(inside)  # only the box of the in-window voxels is labeled,
                inside = inside[tight].copy(order="F")  # and only it is held while labeling
                labeled, _ = ndimage.label(inside, structure=_structure(params.connectivity))
                comp_id = int(labeled[tuple(c - b.start - t.start for c, b, t in zip(seed, box, tight))])
                found = ndimage.find_objects(labeled, max_label=comp_id)[comp_id - 1]
                comp = tuple(slice(t.start + f.start, t.start + f.stop) for t, f in zip(tight, found))
                wider = tuple(slice(0 if c.start == 0 else b.start,  # each touched inner face widened
                                    n if b.start + c.stop == b.stop else b.stop)
                              for b, c, n in zip(box, comp, data.shape))
                if wider == box:
                    break
                box = wider
            component = labeled[found] == comp_id
            del labeled, inside  # a truncated grow holds its component alone
            truncated = int(np.count_nonzero(component)) > params.max_voxels
            if truncated:
                at = tuple(c - b.start - k.start for c, b, k in zip(seed, box, comp))  # seed in comp
                grown = _grow_bfs(component, at, params)
                kept = _foreground_box(grown)
                component = grown[kept]
                comp = tuple(slice(c.start + k.start, c.start + k.stop) for c, k in zip(comp, kept))
            mask = np.array(component, dtype=np.uint8, order="F")  # a copy: no view keeps the box
            corner = tuple(b.start + c.start for b, c in zip(box, comp))
        mask.setflags(write=False)  # read-only: Volume3D keeps it without a copy
        return SegmentationResult(Volume3D(mask, spacing=voi_image.spacing, kind=VolumeKind.BINARY_MASK),
                                  truncated=truncated, corner=corner)


@dataclass(frozen=True)
class ExternalSegmenter(SegmenterRef):
    """A model run as one process per VOI: the VOI is written to a private
    temp directory, the command template runs with ``PLACEHOLDERS``
    substituted, and the mask is checked (NIfTI, VOI dims, values in
    {0, 1}) before it reaches any metric. Both files pass a run of
    z-slices at a time, never whole: the mask is read back as the box of
    its nonzero voxels, at the result's ``corner``. Messages name the two
    files ``{image}`` and ``{output}``, never their temp paths, so a
    failing model's records read the same on every run. The model gets
    ulsforge's environment, with ``OMP_NUM_THREADS``,
    ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` at 1 wherever that
    environment does not set them (a value set there, even an empty one,
    wins), which is each model's share of the CPUs only when at least as
    many models run as there are CPUs; its stdout goes to /dev/null, and
    of its stderr only the last ``_STDERR_TAIL`` bytes are held. Raises
    ProcessFailedError, SegmenterTimeoutError, BadMaskDimsError,
    BadMaskValuesError or the mask's read error."""

    kind = "external"
    model_id = "external"
    command: str
    timeout_s: float = 60.0

    def __post_init__(self):
        if not self.timeout_s > 0:  # also false for NaN
            raise ValueError("timeout_s must be positive")
        missing = [p for p in PLACEHOLDERS if p not in self.command]
        if missing:
            raise ValueError("command template missing placeholder(s): %s" % ", ".join(missing))
        shlex.split(self.command)  # raises ValueError on an unclosed quote

    def segment(self, voi_image, local_click):
        with tempfile.TemporaryDirectory(prefix="ulsforge-seg-") as tmp:
            image_path = Path(tmp) / "input.nii.gz"
            output_path = Path(tmp) / "output.nii.gz"
            write_volume(voi_image, image_path)

            def named(text: str) -> str:  # a message names the two files, never the temp directory
                return text.replace(str(image_path), "{image}").replace(str(output_path), "{output}")

            subs = {
                "{image}": str(image_path),
                "{x}": str(int(local_click[0])),
                "{y}": str(int(local_click[1])),
                "{z}": str(int(local_click[2])),
                "{output}": str(output_path),
            }
            argv = []
            for token in shlex.split(self.command):
                for key, value in subs.items():
                    token = token.replace(key, value)
                argv.append(token)
            # a session of its own lets us kill the model with any workers it forked; stdout is unread
            with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  start_new_session=True, env={**_ONE_THREAD, **os.environ}) as proc:
                try:
                    stderr = _stderr_tail(proc, self.timeout_s)
                except BaseException as e:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    if isinstance(e, subprocess.TimeoutExpired):
                        raise SegmenterTimeoutError("segmenter exceeded %gs: %s" % (self.timeout_s, argv[0]))
                    raise
            if proc.returncode != 0:
                raise ProcessFailedError("segmenter exited %d: %s\nstderr: %s" % (
                    proc.returncode, named(" ".join(argv)), named(stderr.decode(errors="replace"))[-2000:]))
            if not output_path.exists():
                raise ProcessFailedError("segmenter exited 0 but wrote no mask at {output}")
            try:
                with _NiftiFile(output_path) as f:
                    corner, data, _ = f.read_foreground()  # the whole file is read and checked
            except (UlsforgeError, OSError) as e:
                raise type(e)(named(str(e))) from None
            if f.dims != voi_image.dims:
                raise BadMaskDimsError("mask dims %s != VOI dims %s" % (f.dims, voi_image.dims))
            if not (np.issubdtype(data.dtype, np.integer) and data.min() >= 0 and data.max() <= 1):
                values = np.unique(data)  # a float mask is checked value by value
                if data.shape != f.dims:  # the voxels outside the box are zeros
                    values = np.union1d(values, np.zeros(1, data.dtype))
                if not np.isin(values, (0, 1)).all():
                    raise BadMaskValuesError("mask values outside {0, 1}: %s" % values[:10])
            mask = (data != 0).view(np.uint8)  # the values are {0, 1}, so nonzero is the mask
            mask.setflags(write=False)  # read-only: Volume3D keeps it without a copy
        return SegmentationResult(Volume3D(mask, f.spacing, VolumeKind.BINARY_MASK, f.header),
                                  corner=corner)


def _stderr_tail(proc: subprocess.Popen, timeout_s: float) -> bytes:
    """The last ``_STDERR_TAIL`` bytes of ``proc``'s stderr, read as they come
    until the pipe closes, then its exit; past ``timeout_s`` raises
    ``subprocess.TimeoutExpired``, as ``communicate`` does."""
    deadline = time.monotonic() + timeout_s if timeout_s <= _MAX_WAIT_S else None
    fd = proc.stderr.fileno()
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    tail = bytearray()
    while True:
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0 or not poller.poll(None if left is None else left * 1000):
            raise subprocess.TimeoutExpired(proc.args, timeout_s)
        chunk = os.read(fd, _STDERR_TAIL)
        if not chunk:
            break
        tail += chunk
        del tail[:-_STDERR_TAIL]
    proc.wait(None if deadline is None else max(0.0, deadline - time.monotonic()))
    return bytes(tail)


@dataclass(eq=False)
class SegmentationResult:
    """A segmenter's mask; ``mask[0, 0, 0]`` is the VOI's voxel ``corner``."""

    mask: Volume3D
    truncated: bool = False
    corner: tuple[int, int, int] = (0, 0, 0)


def _neighbor_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """The labeling's own neighbourhood minus its center, in lexicographic order."""
    offsets = np.argwhere(_structure(connectivity)) - 1
    return [tuple(int(d) for d in o) for o in offsets if o.any()]


def _grow_bfs(in_window: np.ndarray, seed: tuple[int, int, int], params: GrowParams) -> np.ndarray:
    """First max_voxels voxels in breadth-first discovery order.

    Grows one layer at a time, its parents in discovery order
    ``_BFS_BATCH`` at a time and each parent offset by offset, keeping each
    voxel's first hit: the smallest position at which it occurs in the
    batch's candidates, found without sorting. A batch's first hits are
    accepted before the next batch is expanded: a voxel hit in an earlier
    batch comes before every hit in a later one, so accepting it early
    drops only candidates that would lose, and the order is the whole
    layer's. Every candidate is open, so it was a candidate in no earlier
    batch: the table of first hits is filled once, not reset. The walk
    stops the moment max_voxels voxels are accepted; they are the window's
    voxels no longer open, so no list of them is kept. A False border one
    voxel wide keeps every flat neighbour index inside the array. The walk
    never leaves the seed's component, so a caller may pass that alone.
    """
    padded = np.pad(in_window, 1)
    shape = padded.shape
    flat_off = np.array(_neighbor_offsets(params.connectivity)) @ (shape[1] * shape[2], shape[2], 1)
    is_open = padded.ravel()  # in the window and not yet accepted
    first = np.full(is_open.size, np.iinfo(np.int32).max, dtype=np.int32)  # positions within a batch
    frontier = np.array([np.ravel_multi_index(tuple(c + 1 for c in seed), shape)])
    is_open[frontier] = False
    count = 1
    while frontier.size and count < params.max_voxels:
        layer = []
        for start in range(0, frontier.size, _BFS_BATCH):
            cand = (frontier[start:start + _BFS_BATCH, None] + flat_off).ravel()
            cand = cand[is_open[cand]]
            position = np.arange(cand.size, dtype=np.int32)
            np.minimum.at(first, cand, position)
            accepted = cand[first[cand] == position][:params.max_voxels - count]
            is_open[accepted] = False
            layer.append(accepted)
            count += accepted.size
            if count == params.max_voxels:
                break
        frontier = np.concatenate(layer)
    return (in_window & ~is_open.reshape(shape)[1:-1, 1:-1, 1:-1]).view(np.uint8)


def segment(voi_image: Volume3D, local_click: tuple[int, int, int],
            ref: SegmenterRef) -> SegmentationResult:
    """Segment one VOI with ``ref``, whatever its kind; the mask is over the
    whole VOI: the result's mask, always placed back at its corner (``place_back``)."""
    result = ref.segment(voi_image, local_click)
    return SegmentationResult(place_back(result.mask, voi_image.dims, result.corner), result.truncated)


def segment_box(voi_image: Volume3D, local_click: tuple[int, int, int],
                ref: SegmenterRef) -> SegmentationResult:
    """``segment``, with the mask kept as the box of its nonzero voxels at the
    result's ``corner``: the box both shipped kinds return, or the cut of
    another kind's VOI mask, so a mask outlives the call only as large as that box.
    An empty mask is one zero voxel at its corner."""
    result = ref.segment(voi_image, local_click)
    data = result.mask.data
    box = tuple(slice(s[0], s[-1] + 1) if s.size else slice(0, 1) for s in _nonzero_spans(data))
    if all(b.stop - b.start == n for b, n in zip(box, data.shape)):
        return result
    mask = np.array(data[box], dtype=np.uint8, order="F")  # a copy: no view keeps the VOI
    mask.setflags(write=False)  # read-only: Volume3D keeps it without a copy
    return SegmentationResult(result.mask.with_data(mask), truncated=result.truncated,
                              corner=tuple(c + b.start for c, b in zip(result.corner, box)))
