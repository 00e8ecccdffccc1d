"""Seeded CT-like fixtures and the per-lesion values they imply.

Every byte of a fixture is a function of the workload and the seed:
intensities come from one seeded numpy generator per scan, files are
written by the benchmark's own NIfTI writer (plain, or gzip level 1 with
mtime 0), and the manifest is JSON with sorted keys. The program's own
writer is never used, so a change to it cannot change the inputs.

Intensity bands (HU) keep the builtin grower's behaviour predictable:
air -1024..-944, soft tissue 0..80, bone 500..900 and lesions 170..230,
with the grow window at 150..250. Only lesion voxels are in the window,
and lesions never touch (a gap of at least ``GAP`` voxels), so a grow
from any lesion voxel returns that lesion's part of the VOI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

import adapter

HU_WINDOW = (150, 250)
VOI = (128, 128, 64)
PAD_IMAGE = -1024  # the CLI's default image padding (air)
GAP = 3
LOCATIONS = ("liver", "lung", "node")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its command and its fixture sizes."""

    command: str             # CLI subcommand, "eval" or "robustness"
    workers: int
    external: bool           # exec: adapter instead of the builtin grower
    scans: int
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    lesions_per_scan: int
    radius_xy: tuple[int, int]   # inclusive range of lesion semi-axes, voxels
    radius_z: tuple[int, int]
    labeled: bool = False    # masks hold lesion ids; lesion 1 of each scan
                             # is addressed by component_label, not a click
    second_blob: bool = False  # an unlisted lesion inside each VOI window
    oversized: bool = False  # scan 0 holds one lesion larger than the VOI
    gzip_level: int = 0      # 0 writes plain .nii files


WORKLOADS = {
    "ct-robustness": Workload(
        command="robustness", workers=2, external=False, scans=2, dims=(512, 512, 48),
        spacing=(0.8, 0.8, 2.5), lesions_per_scan=3, radius_xy=(8, 22), radius_z=(3, 8),
        labeled=True, gzip_level=1),
    "voi-eval": Workload(
        command="eval", workers=1, external=False, scans=16, dims=(160, 160, 72),
        spacing=(0.8, 0.8, 2.0), lesions_per_scan=1, radius_xy=(6, 14), radius_z=(3, 7),
        second_blob=True, oversized=True),
    "exec-eval": Workload(
        command="eval", workers=2, external=True, scans=3, dims=(256, 256, 64),
        spacing=(0.8, 0.8, 2.0), lesions_per_scan=2, radius_xy=(6, 16), radius_z=(3, 7)),
}

# An elliptic cylinder 133 voxels wide (wider than the VOI) and 27 slices
# high. The centred VOI clips only its tips and holds about 200k of its
# voxels, above the grower's cap of 163,840, so the builtin grower always
# takes its truncated breadth-first path on it.
OVERSIZED_RADII = (66, 36, 13)


@dataclass
class Lesion:
    lesion_id: str
    scan: int
    center: tuple[int, int, int]
    radii: tuple[int, int, int]
    label: int
    listed: bool = True     # False for the second blobs, which have no entry
    cylinder: bool = False  # elliptic in x-y, straight along z

    def box(self, gap: int = 0) -> tuple[np.ndarray, np.ndarray]:
        c, r = np.array(self.center), np.array(self.radii)
        return c - r - gap, c + r + gap

    def voxels(self) -> np.ndarray:
        """Lexicographically sorted (x, y, z) voxels of the lesion."""
        lo, hi = self.box()
        grids = np.ogrid[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
        axes = 2 if self.cylinder else 3
        inside = sum(((g - c) / r) ** 2 for g, c, r
                     in zip(grids[:axes], self.center, self.radii)) <= 1
        return np.argwhere(np.broadcast_to(inside, tuple(hi - lo + 1))) + lo


@dataclass
class Fixture:
    workload: Workload
    manifest_path: Path
    entries: list[dict]
    lesions: list[Lesion]
    digest: str
    scans: list[tuple[np.ndarray, np.ndarray]] = field(repr=False, default_factory=list)


def _body(dims) -> tuple[np.ndarray, np.ndarray]:
    """(body, bone) cross-section masks: an elliptic trunk and a spine disk."""
    nx, ny = dims[:2]
    x, y = np.ogrid[0:nx, 0:ny]
    body = ((x - nx / 2) / (0.45 * nx)) ** 2 + ((y - ny / 2) / (0.38 * ny)) ** 2 <= 1
    bone = (x - nx / 2) ** 2 + (y - 0.8 * ny) ** 2 <= (0.05 * nx) ** 2
    return body, bone


def _fits(lesion: Lesion, dims, body, bone, placed: list[Lesion]) -> bool:
    lo, hi = lesion.box()
    if (lo < 0).any() or (hi >= np.array(dims)).any():
        return False
    lo, hi = lesion.box(GAP)
    if any(((lo <= ohi) & (olo <= hi)).all() for olo, ohi in (o.box() for o in placed)):
        return False
    x, y = lesion.voxels()[:, :2].T
    return bool(body[x, y].all() and not bone[x, y].any())


def _place(rng, wl: Workload, scan: int, index: int, body, bone, placed) -> Lesion:
    """Draw one lesion that sits in the body, off the bone, apart from the rest."""
    dims = wl.dims
    for _ in range(10000):
        radii = (int(rng.integers(*wl.radius_xy, endpoint=True)),
                 int(rng.integers(*wl.radius_xy, endpoint=True)),
                 int(rng.integers(*wl.radius_z, endpoint=True)))
        if wl.oversized and scan == 0:
            radii = OVERSIZED_RADII
            center = tuple(n // 2 + int(rng.integers(-3, 4)) for n in dims)
        elif wl.second_blob and index == 1:
            # beside the lesion along x, inside its centred VOI window
            first = placed[-1]
            side = 1 if rng.integers(2) else -1
            dx = first.radii[0] + radii[0] + GAP + int(rng.integers(1, 12))
            center = (first.center[0] + side * dx,
                      first.center[1] + int(rng.integers(-6, 7)),
                      first.center[2] + int(rng.integers(-4, 5)))
        elif wl.second_blob:
            center = tuple(n // 2 + int(rng.integers(-6, 7)) for n in dims)
        else:
            center = tuple(int(rng.integers(0, n)) for n in dims)
        lesion = Lesion("s%02d-l%d" % (scan, index), scan, center, radii, index + 1,
                        listed=index < wl.lesions_per_scan,
                        cylinder=wl.oversized and scan == 0)
        if _fits(lesion, dims, body, bone, placed):
            return lesion
    raise RuntimeError("cannot place lesion %d of scan %d" % (index, scan))


def _scan(rng, wl: Workload, scan: int) -> tuple[np.ndarray, np.ndarray, list[Lesion]]:
    body, bone = _body(wl.dims)
    noise = rng.integers(0, 81, size=wl.dims, dtype=np.int16)  # 0..80
    base = np.where(bone, 500, np.where(body, 0, PAD_IMAGE)).astype(np.int16)
    scale = np.where(bone, 5, 1).astype(np.int16)
    image = noise * scale[:, :, None] + base[:, :, None]
    mask = np.zeros(wl.dims, dtype=np.uint8)
    lesions: list[Lesion] = []
    count = 1 if wl.oversized and scan == 0 else wl.lesions_per_scan + wl.second_blob
    for index in range(count):
        lesion = _place(rng, wl, scan, index, body, bone, lesions)
        lesions.append(lesion)
        vox = tuple(lesion.voxels().T)
        image[vox] = 170 + noise[vox] * 3 // 4  # 170..230
        mask[vox] = lesion.label if wl.labeled else 1
    return image, mask, lesions


def build(name: str, seed: int, out_dir: Path) -> Fixture:
    """Write the workload's scans, masks and manifest into ``out_dir``."""
    wl = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    entries, all_lesions, scans = [], [], []
    for scan in range(wl.scans):
        rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name), scan])
        image, mask, lesions = _scan(rng, wl, scan)
        suffix = ".nii.gz" if wl.gzip_level else ".nii"
        image_name, mask_name = "scan%02d_img%s" % (scan, suffix), "scan%02d_mask%s" % (scan, suffix)
        adapter.write_nifti(out_dir / image_name, image, wl.spacing, wl.gzip_level)
        adapter.write_nifti(out_dir / mask_name, mask, wl.spacing, wl.gzip_level)
        scans.append((image, mask))
        for lesion in lesions:
            if not lesion.listed:
                continue
            entry = {"lesion_id": lesion.lesion_id, "patient_id": "p%02d" % scan,
                     "dataset": name,
                     "location": LOCATIONS[len(entries) % len(LOCATIONS)],
                     "image_path": image_name, "mask_path": mask_name}
            if wl.labeled and lesion.label == 2:
                entry["component_label"] = lesion.label
            else:
                vox = lesion.voxels()
                entry["click"] = [int(v) for v in vox[int(rng.integers(len(vox)))]]
            entries.append(entry)
        all_lesions.extend(lesions)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": entries}, indent=1, sort_keys=True) + "\n")
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\x00" + path.read_bytes())
    return Fixture(wl, manifest_path, entries, all_lesions, digest.hexdigest(), scans)


# ---------------------------------------------------------------------------
# expected records
# ---------------------------------------------------------------------------


def _draw_index(seed_root: int, label: str, counter: int, n: int) -> int:
    """The documented keyed click draw: BLAKE2b-64 of (seed, label, counter),
    reduced to [0, n) by multiply-shift."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed_root).to_bytes(8, "little"))
    h.update(label.encode("utf-8") + b"\x00")
    h.update(int(counter).to_bytes(8, "little"))
    return (int.from_bytes(h.digest(), "little") * n) >> 64


def _center(voxels: np.ndarray) -> tuple[int, int, int]:
    """Centroid rounded half up, snapped to the nearest lesion voxel
    (lexicographically first on ties)."""
    centroid = voxels.mean(axis=0)
    pos = np.floor(centroid + 0.5).astype(np.int64)
    if not (voxels == pos).all(axis=1).any():
        pos = voxels[int(np.argmin(((voxels - centroid) ** 2).sum(axis=1)))]
    return tuple(int(v) for v in pos)


def _crop(data: np.ndarray, offset, pad) -> np.ndarray:
    out = np.full(VOI, pad, dtype=data.dtype)
    src, dst = [], []
    for n, o, s in zip(data.shape, offset, VOI):
        lo, hi = max(0, o), min(n, o + s)
        src.append(slice(lo, hi))
        dst.append(slice(lo - o, hi - o))
    out[tuple(dst)] = data[tuple(src)]
    return out


def _global_ids(local_mask: np.ndarray, offset, dims) -> np.ndarray:
    vox = np.argwhere(local_mask) + np.array(offset)
    vox = vox[((vox >= 0) & (vox < np.array(dims))).all(axis=1)]
    return np.ravel_multi_index(tuple(vox.T), dims)


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    total = len(a) + len(b)
    return 1.0 if total == 0 else 2.0 * len(np.intersect1d(a, b, assume_unique=True)) / total


def expected_records(fx: Fixture, seed: int, k: int = 2) -> dict[str, dict]:
    """Dice, robustness and flags each lesion must get, from the geometry.

    Per click: crop the click-centred VOI from the generated arrays,
    grow with the reference grower and place the result in the global
    frame; ground truth is the lesion's part of the centred VOI.
    """
    wl = fx.workload
    expected = {}
    for lesion in fx.lesions:
        if not lesion.listed:
            continue
        image, mask = fx.scans[lesion.scan]
        voxels = lesion.voxels()
        clicks = [_center(voxels)]
        if wl.command == "robustness":
            clicks += [tuple(int(v) for v in voxels[_draw_index(
                seed, "click:%s" % lesion.lesion_id, i, len(voxels))]) for i in range(k)]
        preds, flags = [], set()
        for click in clicks:
            offset = [c - s // 2 for c, s in zip(click, VOI)]
            local = tuple(c - o for c, o in zip(click, offset))
            pred, truncated = adapter.grow(_crop(image, offset, PAD_IMAGE), local, *HU_WINDOW)
            if truncated and not wl.external:
                flags.add("truncated")
            if not pred.any():
                flags.add("empty-prediction")
            preds.append(_global_ids(pred, offset, wl.dims))
            if len(preds) == 1:
                labeled, _ = ndimage.label(_crop(mask, offset, 0) != 0,
                                           structure=np.ones((3, 3, 3), dtype=bool))
                gt = _global_ids(labeled == labeled[local], offset, wl.dims)
        robust = None
        if len(preds) > 1:
            pairs = sorted(_dice(preds[i], preds[j])
                           for i in range(len(preds)) for j in range(i + 1, len(preds)))
            robust = sum(pairs) / len(pairs)
        expected[lesion.lesion_id] = {"dice": _dice(preds[0], gt), "robustness": robust,
                                      "flags": ";".join(sorted(flags))}
    return expected
