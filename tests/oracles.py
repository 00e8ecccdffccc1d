"""Independent reference implementations the tests check against.

Everything here is deliberately written from first principles (plain
Python sets, loops, and mpmath) so it shares no code path with the
package being tested. The exceptions, ``instance_from_voxels`` and
``loaded_lesion``, are test helpers that build the package's own lesion types.
"""

from __future__ import annotations

import gzip
from collections import deque

import mpmath as mp
import numpy as np

from ulsforge.lesions import LesionInstance, _instance_from_box

# NIfTI-1 datatype codes and their little-endian dtypes
NIFTI_DTYPES = {2: "u1", 4: "<i2", 8: "<i4", 16: "<f4"}


def nifti_voxels(raw: bytes) -> np.ndarray:
    """The voxels of a single-file NIfTI-1 file's bytes, plain or gzip: the
    header's dims, datatype and ``vox_offset`` read at their byte offsets, and
    the payload read from ``int(vox_offset)`` on, x fastest."""
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    dims = tuple(int(d) for d in np.frombuffer(raw, "<i2", 3, 42))
    dtype = NIFTI_DTYPES[int(np.frombuffer(raw, "<i2", 1, 70)[0])]
    offset = int(np.frombuffer(raw, "<f4", 1, 108)[0])
    return np.frombuffer(raw, dtype, int(np.prod(dims)), offset).reshape(dims, order="F")


def oracle_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """Neighborhood offsets by number of moving axes (not by L1 norm)."""
    max_axes = {6: 1, 18: 2, 26: 3}[connectivity]
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                moving = sum(1 for d in (dx, dy, dz) if d != 0)
                if 1 <= moving <= max_axes:
                    offsets.append((dx, dy, dz))
    return offsets


def bfs_grow_oracle(in_window: np.ndarray, seed, connectivity: int,
                    max_voxels: int) -> np.ndarray:
    """First max_voxels voxels in breadth-first discovery order, one deque step at a time."""
    offsets = sorted(oracle_offsets(connectivity))
    shape = in_window.shape
    accepted = np.zeros(shape, dtype=np.uint8)
    accepted[seed] = 1
    count = 1
    queue = deque([seed])
    while queue and count < max_voxels:
        x, y, z = queue.popleft()
        for dx, dy, dz in offsets:
            nx, ny, nz = x + dx, y + dy, z + dz
            if not (0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]):
                continue
            if accepted[nx, ny, nz] or not in_window[nx, ny, nz]:
                continue
            accepted[nx, ny, nz] = 1
            count += 1
            if count >= max_voxels:
                return accepted
            queue.append((nx, ny, nz))
    return accepted


def flood_fill_components(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Brute-force connected components, ids in x-fastest scan order."""
    nx, ny, nz = mask.shape
    foreground = {tuple(int(v) for v in idx) for idx in np.argwhere(mask != 0)}
    offsets = oracle_offsets(connectivity)
    labels = np.zeros(mask.shape, dtype=np.int32)
    next_id = 1
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                start = (x, y, z)
                if start not in foreground or labels[start] != 0:
                    continue
                queue = deque([start])
                labels[start] = next_id
                while queue:
                    cx, cy, cz = queue.popleft()
                    for dx, dy, dz in offsets:
                        nb = (cx + dx, cy + dy, cz + dz)
                        if nb in foreground and labels[nb] == 0:
                            labels[nb] = next_id
                            queue.append(nb)
                next_id += 1
    return labels


def whole_voi_isolation_oracle(mask: np.ndarray, click, connectivity: int) -> np.ndarray:
    """The component holding ``click`` with the whole VOI labeled; all zero on background."""
    labels = flood_fill_components(mask, connectivity)
    if labels[click] == 0:
        return np.zeros(mask.shape, dtype=np.uint8)
    return (labels == labels[click]).astype(np.uint8)


def whole_voi_grow_oracle(in_window: np.ndarray, seed, connectivity: int,
                          max_voxels: int) -> tuple[np.ndarray, bool]:
    """The builtin grow with the whole VOI labeled: (mask, truncated).

    The seed's in-window component if it has at most max_voxels voxels,
    else the deque's first max_voxels voxels; all zero off the window.
    """
    component = whole_voi_isolation_oracle(in_window, seed, connectivity)
    if int(component.sum()) <= max_voxels:
        return component, False
    return bfs_grow_oracle(in_window, seed, connectivity, max_voxels), True


def label_voxels(labels: np.ndarray, value) -> np.ndarray:
    """Voxels holding ``value``, lexicographically sorted, by one full-volume comparison."""
    return np.argwhere(labels == value)


def instance_oracle(voxels: np.ndarray) -> tuple:
    """(bbox, size_vox, center) of (n, 3) lexicographically sorted voxels.

    The corners are the per-axis min and max, the size the row count. The
    center is the mean rounded half up; when that voxel is not a row, the
    row nearest the mean, the first one on a tie.
    """
    mean = voxels.mean(axis=0)
    rounded = tuple(int(v) for v in np.floor(mean + 0.5))
    center = rounded
    if rounded not in {tuple(int(v) for v in row) for row in voxels}:
        d2 = ((voxels - mean) ** 2).sum(axis=1)
        center = tuple(int(v) for v in voxels[int(np.argmin(d2))])
    bbox = (tuple(int(v) for v in voxels.min(axis=0)), tuple(int(v) for v in voxels.max(axis=0)))
    return bbox, int(voxels.shape[0]), center


def instance_from_voxels(comp_id: int, voxels: np.ndarray) -> LesionInstance:
    """The instance of (n, 3) global indices, scattered into their box."""
    lo = voxels.min(axis=0)
    mask = np.zeros(voxels.max(axis=0) - lo + 1, dtype=bool, order="F")
    mask[tuple((voxels - lo).T)] = True
    return _instance_from_box(comp_id, mask, tuple(int(v) for v in lo))


def loaded_lesion(image, mask_spacing, instance: LesionInstance, plan, cfg, connectivity: int):
    """The lesion a scan load keeps for ``plan``: the box that is the union
    of the plan's windows of ``cfg.size``, cut from the whole ``image`` and
    holding ``cfg.pad_value_image`` where it leaves the volume, with
    ``cfg.size`` and ``connectivity`` for its windows."""
    from ulsforge.pipeline import _Lesion

    clicks = plan.all_clicks()
    lo = tuple(min(c.pos[i] for c in clicks) - s // 2 for i, s in enumerate(cfg.size))
    hi = tuple(max(c.pos[i] for c in clicks) - s // 2 + s for i, s in enumerate(cfg.size))
    box = np.full(tuple(h - l for l, h in zip(lo, hi)), cfg.pad_value_image, dtype=image.data.dtype,
                  order="F")
    inside = tuple(slice(max(0, l), min(n, h)) for l, h, n in zip(lo, hi, image.dims))
    box[tuple(slice(s.start - l, s.stop - l) for s, l in zip(inside, lo))] = image.data[inside]
    box.setflags(write=False)
    return _Lesion(instance, plan, lo, box, image.dims, image.spacing, mask_spacing, cfg.size,
                   connectivity)


def scatter_window(voxels: np.ndarray, dims, offset, size, pad: int) -> np.ndarray:
    """The window [offset, offset + size) of the volume whose foreground is ``voxels``:
    1 on each voxel, 0 elsewhere inside the volume, ``pad`` outside it, one voxel at a time."""
    out = np.zeros(size, dtype=np.uint8)
    for local in np.ndindex(*size):
        pos = tuple(l + o for l, o in zip(local, offset))
        if not all(0 <= p < n for p, n in zip(pos, dims)):
            out[local] = pad
    for row in voxels:
        local = tuple(int(v) - o for v, o in zip(row, offset))
        if all(0 <= l < s for l, s in zip(local, size)):
            out[local] = 1
    return out


def place_back_oracle(voi: np.ndarray, dims, offset) -> np.ndarray:
    """A zero array of ``dims`` holding each voxel of ``voi`` at its local index
    + ``offset`` where that lies inside ``dims``, one voxel at a time."""
    out = np.zeros(dims, dtype=voi.dtype)
    for local in np.ndindex(*voi.shape):
        pos = tuple(l + o for l, o in zip(local, offset))
        if all(0 <= g < n for g, n in zip(pos, dims)):
            out[pos] = voi[local]
    return out


def component_voxel_sets(mask: np.ndarray, connectivity: int) -> list[set]:
    labels = flood_fill_components(mask, connectivity)
    return [
        {tuple(int(v) for v in idx) for idx in np.argwhere(labels == i)}
        for i in range(1, int(labels.max()) + 1)
    ]


def dice_count(a: np.ndarray, b: np.ndarray) -> float:
    """Dice by direct voxel counting."""
    inter = 0
    na = 0
    nb = 0
    for va, vb in zip(a.ravel().tolist(), b.ravel().tolist()):
        if va:
            na += 1
        if vb:
            nb += 1
        if va and vb:
            inter += 1
    if na + nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def window_indicator(dims, start, size) -> np.ndarray:
    """Boolean array marking the crop window inside a volume."""
    axes = []
    for n, st, s in zip(dims, start, size):
        idx = np.arange(n)
        axes.append((idx >= st) & (idx < st + s))
    return axes[0][:, None, None] & axes[1][None, :, None] & axes[2][None, None, :]


def paired_t_reference(x, y, dps: int = 50) -> tuple[float, float]:
    """High-precision paired two-tailed t-test: returns (t, p)."""
    with mp.workdps(dps):
        d = [mp.mpf(repr(float(a))) - mp.mpf(repr(float(b))) for a, b in zip(x, y)]
        n = len(d)
        mean = mp.fsum(d) / n
        var = mp.fsum((di - mean) ** 2 for di in d) / (n - 1)
        sd = mp.sqrt(var)
        t = mean / (sd / mp.sqrt(n))
        df = mp.mpf(n - 1)
        xx = df / (df + t * t)
        p = mp.betainc(df / 2, mp.mpf(1) / 2, 0, xx, regularized=True)
        return float(t), float(p)
