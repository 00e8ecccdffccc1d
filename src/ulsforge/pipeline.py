"""End-to-end evaluation runs over a lesion manifest.

A manifest row binds one lesion (image file, mask file, patient,
dataset, location) to a unique lesion id. Runs read each scan once,
however many lesions it holds, crop a click-centered VOI per lesion,
segment it, and score Dice and click-shift robustness in the lesion's
VOIs, counting only their voxels inside the volume, as the global frame
does. Per-lesion failures become flagged records; a run only aborts on
manifest-level problems.

All randomness is keyed per lesion id, and records are sorted by
lesion id before anything is written, so a run's per-lesion CSV is
byte-identical across repeats and worker counts.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy import ndimage

from ._rng import shuffle_key
from .clicks import DEFAULT_AUGMENT_COUNT, ClickPlan, build_click_plan
from .errors import (
    AmbiguousLesionError,
    BadMaskValuesError,
    ClickNotOnMaskError,
    ClickOutOfVolumeError,
    DimsMismatchError,
    DuplicateLesionIdError,
    EmptyInstanceError,
    EmptyRecordsError,
    ManifestParseError,
    MissingFileError,
    NoPatientsError,
    PadValueError,
    PairingMismatchError,
    TooFewPairsError,
    UlsforgeError,
    ZeroVarianceError,
)
from .lesions import ClickPoint, LesionInstance, _instance_from_box, label_components
# tools that trace a run wrap these names on pipeline: crop_voi and dice, unused here, and
# segment, which is segment_box
from .metrics import dice, mean_pairwise_dice, voi_dice  # noqa: F401
from .segmenter import SegmenterRef
from .segmenter import segment_box as segment
from .stats import TestResult, degenerate_result, paired_ttest
from .voi import VOICfg, VOISample, _window_offset, crop_voi  # noqa: F401
from .voi import isolate_central_lesion, place_back
from .volume import Box, Volume3D, VolumeKind, _NiftiFile, read_volume

DEFAULT_TEST_FRACTION = 0.2
DEFAULT_SIGNIFICANCE_ALPHA = 0.0001
UNDEFINED_LOCATION = "undefined"
OVERALL_LOCATION = "(all)"

FLAG_EMPTY_PREDICTION = "empty-prediction"
FLAG_TRUNCATED = "truncated"
FLAG_ERROR = "error"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ManifestEntry:
    """One manifest lesion; field order is the saved manifest's key order."""

    lesion_id: str
    patient_id: str
    dataset: str = "default"
    location: str = UNDEFINED_LOCATION
    image_path: str
    mask_path: str
    component_label: int | None = None
    click: tuple[int, int, int] | None = None

    def to_record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for i, e in enumerate(self.entries):
            if not e.lesion_id:
                raise ManifestParseError("entry %d has empty lesion_id" % i)
            if e.lesion_id in seen:
                raise DuplicateLesionIdError("duplicate lesion_id %r" % e.lesion_id)
            seen.add(e.lesion_id)
            if not e.patient_id:
                raise ManifestParseError("entry %r has empty patient_id" % e.lesion_id)
            if e.location.strip() == OVERALL_LOCATION:
                raise ManifestParseError("entry %r: location %r is reserved for the overall row"
                                         % (e.lesion_id, OVERALL_LOCATION))

    def patients(self) -> list[str]:
        return sorted({e.patient_id for e in self.entries})

    def datasets(self) -> list[str]:
        return sorted({e.dataset for e in self.entries})

    def validate_files(self) -> None:
        paths = dict.fromkeys(p for e in self.entries for p in (e.image_path, e.mask_path))
        missing = [p for p in paths if not Path(p).is_file()]  # each path once, in manifest order
        if missing:
            raise MissingFileError(missing)


def _int_field(value, lesion_id: str, name: str) -> int:
    """An int; a bool, a float or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestParseError("entry %r: %s must be an integer, got %r"
                                 % (lesion_id, name, value))
    return int(value)


def _text_field(rec: dict, name: str, absent: str | None = None) -> str:
    """A string; an integer is taken as its decimal text, as a CSV cell holds it.

    With ``absent``, a missing, null or empty field reads as ``absent``;
    without it the field is required.
    """
    value = rec[name] if absent is None else rec.get(name)
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    if absent is not None and value in (None, ""):
        return absent
    if not isinstance(value, str):
        raise TypeError("%s must be a string, got %r" % (name, value))
    return value


def _entry_from_record(rec: dict, base: Path) -> ManifestEntry:
    lesion_id, patient_id, image_path, mask_path = (
        _text_field(rec, name) for name in ("lesion_id", "patient_id", "image_path", "mask_path"))
    location = _text_field(rec, "location", UNDEFINED_LOCATION).strip() or UNDEFINED_LOCATION
    comp = rec.get("component_label")
    if isinstance(comp, str) and comp:
        comp = int(comp)  # a CSV cell
    comp = None if comp in (None, "") else _int_field(comp, lesion_id, "component_label")
    if comp == 0:
        raise ManifestParseError("entry %r: component_label 0 is the background, not a lesion"
                                 % lesion_id)
    click = rec.get("click")
    if click not in (None, "") and (not isinstance(click, (list, tuple)) or len(click) != 3):
        raise ManifestParseError("entry %r: click must have 3 components, got %r"
                                 % (lesion_id, click))
    return ManifestEntry(
        lesion_id=lesion_id,
        patient_id=patient_id,
        image_path=str((base / image_path)) if not os.path.isabs(image_path) else image_path,
        mask_path=str((base / mask_path)) if not os.path.isabs(mask_path) else mask_path,
        dataset=_text_field(rec, "dataset", "default"),
        location=location,
        component_label=comp,
        click=None if click in (None, "") else tuple(_int_field(c, lesion_id, "click")
                                                     for c in click),
    )


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest (JSON canonical, CSV import path).

    Relative volume paths resolve against the manifest's directory.
    Duplicate lesion ids and missing volume files are rejected; the
    MissingFileError lists each absent path once, in manifest order.
    """
    path = Path(path)
    base = path.parent
    try:
        if path.suffix.lower() == ".csv":
            with open(path, newline="", encoding="utf-8-sig") as f:
                rows = list(csv.DictReader(f))
            records = []
            for row in rows:
                rec = {k: v for k, v in row.items() if v not in (None, "")}
                click = [rec.pop(k, None) for k in ("click_x", "click_y", "click_z")]
                if click != [None] * 3:  # a missing component fails in _entry_from_record
                    rec["click"] = [c if c is None else int(c) for c in click]
                records.append(rec)
        else:
            with open(path, encoding="utf-8-sig") as f:
                doc = json.load(f)
            records = list(doc["entries"] if isinstance(doc, dict) else doc)
    except (json.JSONDecodeError, csv.Error, KeyError, TypeError, ValueError) as e:
        raise ManifestParseError("cannot parse manifest %s: %s" % (path, e))
    entries = []
    for i, rec in enumerate(records):
        try:
            entries.append(_entry_from_record(rec, base))
        except KeyError as e:
            raise ManifestParseError("manifest entry %d missing required field %s" % (i, e))
        except (TypeError, ValueError) as e:
            raise ManifestParseError("cannot parse manifest %s, entry %d: %s" % (path, i, e))
    manifest = Manifest(entries)
    manifest.validate_files()
    return manifest


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"entries": [e.to_record() for e in manifest.entries]}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def split_patients(manifest: Manifest, test_fraction: float = DEFAULT_TEST_FRACTION,
                   seed: int = 0) -> tuple[Manifest, Manifest]:
    """Deterministic patient-level split into (train, test).

    Patients are ordered by a seed-keyed digest (a stable shuffle);
    the test side takes ceil(test_fraction * #patients) patients, and
    every lesion follows its patient.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1), got %r" % test_fraction)
    patients = manifest.patients()
    if not patients:
        raise NoPatientsError("manifest has no patients")
    shuffled = sorted(patients, key=lambda p: shuffle_key(seed, "split:%s" % p))
    n_test = math.ceil(test_fraction * len(patients))
    test_set = set(shuffled[:n_test])
    train = Manifest([e for e in manifest.entries if e.patient_id not in test_set])
    test = Manifest([e for e in manifest.entries if e.patient_id in test_set])
    return train, test


# ---------------------------------------------------------------------------
# evaluation records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class EvalRecord:
    """One lesion's scores; field order is the records.csv column order."""

    lesion_id: str
    model_id: str
    dataset: str = "default"
    location: str = UNDEFINED_LOCATION
    dice: float
    robustness: float | None = None
    flags: frozenset[str] = frozenset()
    seed_root: int | None = None
    error: str | None = None

    def to_row(self) -> list:
        """The records.csv cells: flags joined by ';', None as an empty cell."""
        rec = dict(self.to_record(), flags=";".join(sorted(self.flags)))
        return ["" if v is None else v for v in rec.values()]

    @classmethod
    def from_row(cls, row: dict) -> EvalRecord:
        return cls(
            lesion_id=row["lesion_id"],
            model_id=row["model_id"],
            dataset=row["dataset"],
            location=row["location"],
            dice=float(row["dice"]),
            robustness=float(row["robustness"]) if row.get("robustness") else None,
            flags=frozenset(f for f in row.get("flags", "").split(";") if f),
            seed_root=int(row["seed_root"]) if row.get("seed_root") else None,
            error=row.get("error") or None,
        )

    def to_record(self) -> dict:
        return dict(asdict(self), flags=sorted(self.flags))


CSV_COLUMN_ORDER = tuple(f.name for f in fields(EvalRecord))


def write_records_csv(records: list[EvalRecord], path: str | Path) -> None:
    """Per-lesion CSV: comma delimiter, '.' decimal point, fixed columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMN_ORDER)
        for rec in records:
            writer.writerow(rec.to_row())


def read_records_csv(path: str | Path) -> list[EvalRecord]:
    """A records.csv's records; a file without a column from_row requires raises ValueError."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f, restval="")  # a short row's missing cells read as empty
        missing = [c for c in CSV_COLUMN_ORDER[:5] if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError("%s lacks the column(s) %s" % (path, ", ".join(missing)))
        return [EvalRecord.from_row(row) for row in reader]


# ---------------------------------------------------------------------------
# per-lesion work
# ---------------------------------------------------------------------------


def _plan_box(plan: ClickPlan, size: tuple[int, int, int]) -> Box:
    """The union of the plan's windows of ``size``; it may leave the volume."""
    per_axis = list(zip(*(_window_offset(click, size) for click in plan.all_clicks())))
    return tuple(map(min, per_axis)), tuple(max(o) + s for o, s in zip(per_axis, size))


@dataclass
class _Lesion:
    """One manifest entry's lesion as loaded from its scan.

    A lesion is the voxels of one value in one label map: the mask and the
    entry's component_label, or the mask's components and the clicked or
    single one's id. It carries its click plan, built once at the load, and
    the load's VOI size and connectivity, so its windows are decided once.
    Of the image it keeps dims and spacing and one box, as its corner and
    voxels: the union of the plan's windows of ``size``, not clipped to the
    volume and holding the image pad wherever it leaves it. Of the mask it
    keeps spacing. Lesions with equal boxes share one array.
    """

    instance: LesionInstance
    plan: ClickPlan
    corner: tuple[int, int, int]  # of the image box; below 0 where the box leaves the volume
    voxels: np.ndarray  # the image box, x fastest, read-only
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    mask_spacing: tuple[float, float, float]
    size: tuple[int, int, int]  # of every window: the load's VOI size
    connectivity: int  # of the truth's isolation

    def crop(self, click: ClickPoint) -> VOISample:
        """The image VOI of a click of the plan, a read-only view of the box:
        the ``crop_voi`` crop of the whole image with the load's VOI config."""
        offset = _window_offset(click, self.size)
        inner = tuple(slice(o - c, o - c + s) for o, c, s in zip(offset, self.corner, self.size))
        image = Volume3D(self.voxels[inner], self.spacing)  # a view: the box is read-only
        return VOISample(image=image, mask=None, offset=offset, click=click)

    def truth(self, click: ClickPoint) -> tuple[tuple[int, int, int], Volume3D]:
        """The central lesion of the lesion's mask in the window of a click of
        the plan, as its global corner and a box of the window that holds it:
        the lesion's bounding box clipped to the window, isolated in a read-only view."""
        offset = _window_offset(click, self.size)
        bbox = self.instance.bbox
        lo = tuple(max(o, b) for o, b in zip(offset, bbox[0]))
        hi = tuple(min(o + s, b + 1) for o, s, b in zip(offset, self.size, bbox[1]))
        window = self.instance.mask[tuple(slice(l - b, h - b) for l, h, b in zip(lo, hi, bbox[0]))]
        window = Volume3D(window.view(np.uint8), self.mask_spacing, VolumeKind.BINARY_MASK)
        local = tuple(c - l for c, l in zip(click.pos, lo))
        return lo, isolate_central_lesion(window, local, self.connectivity)

    def voi(self, click: ClickPoint) -> VOISample:
        """The image VOI of a click of the plan and its ground truth, ``truth``
        over the whole window: ``generate_shifted_samples``'s sample."""
        sample = self.crop(click)
        corner, truth = self.truth(click)
        sample.mask = place_back(truth, self.size, tuple(c - o for c, o in zip(corner, sample.offset)))
        return sample


def _clicked_component(entry: ManifestEntry, labeled: np.ndarray, lo: tuple[int, ...],
                       dims: tuple[int, int, int], n_comp: int) -> int:
    """The id of the component holding the entry's click, else of the mask's single one."""
    if entry.click is not None:
        if any(c < 0 or c >= n for c, n in zip(entry.click, dims)):
            raise ClickOutOfVolumeError("recorded click %s outside volume dims %s"
                                        % (entry.click, dims))
        local = tuple(c - l for c, l in zip(entry.click, lo))  # labeled is the box at lo
        comp_id = int(labeled[local]) if all(0 <= c < n for c, n in zip(local, labeled.shape)) else 0
        if comp_id == 0:
            raise ClickNotOnMaskError("recorded click %s is background in %s"
                                      % (entry.click, entry.mask_path))
        return comp_id
    if n_comp == 0:
        raise EmptyInstanceError("mask %s is empty" % entry.mask_path)
    if n_comp > 1:
        raise AmbiguousLesionError(
            "mask %s has %d components; set component_label or click to disambiguate"
            % (entry.mask_path, n_comp))
    return 1


def _find_lesions(entries: list[ManifestEntry], dims: tuple[int, int, int],
                  connectivity: int) -> tuple[dict, tuple[float, float, float], bytes]:
    """Each entry's lesion in the entries' shared mask, or its failure; the
    mask's spacing and header.

    The mask is read a run of z-slices at a time, and only the box that holds
    its foreground is kept (``_NiftiFile.read_foreground``), searched, and
    labeled once if some entry is clicked: its x-fastest scan meets the
    components in the whole volume's order, so their ids are the same.
    """
    with _NiftiFile(entries[0].mask_path) as f:
        lo, values, bad = f.read_foreground()
    if dims != f.dims:
        raise DimsMismatchError("image dims %s != mask dims %s" % (dims, f.dims))
    if bad:
        raise BadMaskValuesError("mask %s has %d non-finite voxels (NaN or infinite)"
                                 % (entries[0].mask_path, bad))
    mask = Volume3D(values, f.spacing, VolumeKind.INTENSITY, f.header)
    if any(e.component_label is None for e in entries):
        labeled = label_components(mask.as_binary_mask(), connectivity).data
        objects = ndimage.find_objects(labeled)  # each component's box, by id
    lesions = {}
    for e in entries:
        try:
            if e.component_label is not None:
                value, found, at = e.component_label, values == e.component_label, lo
                if not found.any():
                    raise EmptyInstanceError("component_label %d not present in %s"
                                             % (value, e.mask_path))
            else:
                value = _clicked_component(e, labeled, lo, dims, len(objects))
                comp = objects[value - 1]
                found, at = labeled[comp] == value, tuple(l + c.start for l, c in zip(lo, comp))
            lesions[e.lesion_id] = _instance_from_box(value, found, at)
        except UlsforgeError as exc:  # kept as data: an exception would pin the scan
            lesions[e.lesion_id] = (type(exc), exc.args)
    return lesions, mask.spacing, mask.header_meta


def _load_scan(entries: list[ManifestEntry], connectivity: int, cfg: VOICfg,
               seed_root: int | None = None, k: int = 0) -> dict[str, _Lesion | tuple[type, tuple]]:
    """Read the entries' shared mask, find each entry's lesion and build its
    click plan of ``seed_root`` and ``k``, then keep of the image only the
    union of each plan's windows of ``cfg.size``, padded with
    ``cfg.pad_value_image`` where it leaves the volume: each entry's
    ``_Lesion``, which keeps ``cfg.size`` and ``connectivity`` for its
    windows, or the error class and arguments of its failure.

    The image is opened and its header checked first, so a missing image
    fails before its mask is read. The mask's foreground box and its
    labeling are dropped before the image's payload is read in one pass. A
    fault of the image wins over any fault of the mask, a dims mismatch or a
    non-finite mask voxel: on those paths the image is read to its end to
    check it. A pair that cannot be read, decoded or checked, or whose load
    runs out of memory, fails every entry, kept as data like an entry's own
    failure; an OSError keeps its filename, which its message names. After
    the read, a pad that the image's dtype cannot hold fails every lesion
    found, padded or not; an entry's own failure stays its own. Lesions with equal boxes share one
    array, which lives as long as the last of them.
    """
    try:
        with _NiftiFile(entries[0].image_path) as image:
            try:
                lesions, mask_spacing, _ = _find_lesions(entries, image.dims, connectivity)
            except (UlsforgeError, OSError, MemoryError):
                image.read_boxes([])  # raises the image's fault, if it has one
                raise
            plans = {lesion_id: build_click_plan(found, seed_root, lesion_id, k=k)
                     for lesion_id, found in lesions.items() if not isinstance(found, tuple)}
            boxes = {lesion_id: _plan_box(plan, cfg.size) for lesion_id, plan in plans.items()}
            distinct = list(dict.fromkeys(boxes.values()))
            try:
                voxels = dict(zip(distinct, image.read_boxes(distinct, cfg.pad_value_image)))
            except PadValueError as exc:  # each lesion's failure, after the image's own
                return {**lesions, **dict.fromkeys(boxes, (type(exc), exc.args))}
    except (UlsforgeError, OSError, MemoryError) as exc:  # kept as data, so the scan is read once
        args = exc.args if getattr(exc, "filename", None) is None else exc.args + (exc.filename,)
        return dict.fromkeys((e.lesion_id for e in entries), (type(exc), args))
    for lesion_id, box in boxes.items():
        lesions[lesion_id] = _Lesion(lesions[lesion_id], plans[lesion_id], box[0], voxels[box],
                                     image.dims, image.spacing, mask_spacing, cfg.size, connectivity)
    return lesions


def _found(found: _Lesion | tuple[type, tuple]) -> _Lesion:
    """A loaded lesion, or its kept failure raised afresh, with no traceback into the load."""
    if isinstance(found, tuple):
        raise found[0](*found[1])
    return found


def resolve_lesion(entry: ManifestEntry, connectivity: int) -> tuple[Volume3D, Volume3D, LesionInstance]:
    """Read one entry's volumes whole and identify its lesion instance: the
    whole-volume reference that runs, which keep boxes, are pinned against.

    Returns (image, binary mask, instance); the mask holds the lesion's own
    voxels, with the mask file's spacing and header. With a component_label
    the lesion is that label, so a touching lesion with another label never
    joins it. Otherwise it is the component holding the entry's recorded
    click, else the mask's single one. The image is read to its end before
    the mask is opened, so, as in a run, a fault of the image wins.
    """
    image = read_volume(entry.image_path)
    lesions, spacing, header = _find_lesions([entry], image.dims, connectivity)
    instance = _found(lesions[entry.lesion_id])
    mask = Volume3D(instance.mask.view(np.uint8), spacing, VolumeKind.BINARY_MASK, header)
    return image, place_back(mask, image.dims, instance.bbox[0]), instance  # x fastest, as its box


class ScanLoader:
    """Loads each (image, mask) pair of a run once, for all its lesions.

    ``entries`` lists the run's entries by scan, scans in the order they
    first appear, and round-robin within each window of ``workers`` scans,
    so the workers load different scans at once. That order holds about
    one scan per worker, however the manifest is sorted, and a scan holds
    of its image only its lesions' click-plan VOIs of ``cfg``, the plans
    of ``seed_root`` and ``k``, padded (``_load_scan``).
    The first lesion of a scan to run loads it while the scan's other
    lesions wait on its lock. Each entry takes its ``_Lesion`` out of the
    scan's, which is dropped when its last entry takes it; a box lives as
    long as the last lesion that holds it. A load that fails is kept like
    any other, so every lesion of that scan gets the same error from one
    read. ``map`` runs a job on every lesion, on ``workers`` threads.
    """

    def __init__(self, entries: list[ManifestEntry], connectivity: int, cfg: VOICfg,
                 workers: int = 1, seed_root: int | None = None, k: int = 0):
        self._load = partial(_load_scan, connectivity=connectivity, cfg=cfg, seed_root=seed_root, k=k)
        self._workers = workers
        self._groups: dict[tuple[str, str], list[ManifestEntry]] = {}
        for e in entries:
            self._groups.setdefault((e.image_path, e.mask_path), []).append(e)
        turns = [(i // workers, j, i, e) for i, group in enumerate(self._groups.values())
                 for j, e in enumerate(group)]  # (window, turn, scan, entry)
        self.entries = [e for *_, e in sorted(turns, key=lambda t: t[:3])]
        self._locks = {key: threading.Lock() for key in self._groups}
        self._scans: dict[tuple[str, str], dict[str, _Lesion | tuple[type, tuple]]] = {}

    def lesion(self, entry: ManifestEntry) -> _Lesion:
        """The lesion of ``entry``, as resolve_lesion finds it, with its plan and image box."""
        key = (entry.image_path, entry.mask_path)
        with self._locks[key]:
            scan = self._scans.pop(key, None) or self._load(self._groups[key])
            found = scan.pop(entry.lesion_id)
            if scan:  # kept for the entries still to take theirs
                self._scans[key] = scan
        return _found(found)

    def map(self, job, failed) -> dict:
        """``job(entry, lesion)`` of each of ``entries``, in turn, on the pool, by lesion id:
        ``failed(entry, exc)`` where the load or the job raises a toolkit error, an
        OSError or a MemoryError, so one lesion's failure, even out of memory, is its own."""
        def one(entry: ManifestEntry):
            try:
                return job(entry, self.lesion(entry))
            except (UlsforgeError, OSError, MemoryError) as exc:
                return failed(entry, exc)

        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            return dict(zip((e.lesion_id for e in self.entries), pool.map(one, self.entries)))


def _error_text(exc: BaseException) -> str:
    """``exc``'s message on one line, or its class name when it has none."""
    return " ".join(str(exc).split()) or type(exc).__name__


def _error_record(entry: ManifestEntry, exc: Exception, model_id: str,
                  seed_root: int | None) -> EvalRecord:
    return EvalRecord(
        lesion_id=entry.lesion_id, model_id=model_id, dice=0.0, robustness=None,
        location=entry.location, dataset=entry.dataset,
        flags=frozenset({FLAG_ERROR}), seed_root=seed_root, error=_error_text(exc),
    )


def _eval_one(entry: ManifestEntry, lesion: _Lesion, seg: SegmenterRef, model_id: str,
              seed_root: int | None) -> EvalRecord:
    """Score one lesion over the click plan its load built: the centroid plus
    k sampled clicks.

    Each click's image is cropped, a view of the lesion's box, and
    segmented. The ground truth is the centroid VOI's (``_Lesion.truth``).
    Dice compares the centroid prediction with it; robustness is the mean
    pairwise Dice of all predictions and exists only for k >= 1. The Dice
    protocol is k = 0. The truth and each prediction are kept as the box of
    their voxels, and every score is counted in those boxes, over their parts
    inside the volume (``voi_dice``), so it is the global frame's score
    without placing any mask back.
    """
    plan = lesion.plan
    flags: set[str] = set()
    placed = [lesion.truth(plan.normal)]  # (corner, box) of the truth,
    for click in plan.all_clicks():  # then of each prediction
        voi = lesion.crop(click)
        result = segment(voi.image, voi.local_click, seg)
        if result.truncated:
            flags.add(FLAG_TRUNCATED)
        if not result.mask.data.any():
            flags.add(FLAG_EMPTY_PREDICTION)
        placed.append((tuple(o + c for o, c in zip(voi.offset, result.corner)), result.mask))
    gt, *preds = placed
    pair_dice = partial(voi_dice, dims=lesion.dims)
    robust = mean_pairwise_dice(preds, pair_dice) if len(preds) >= 2 else None
    return EvalRecord(lesion_id=entry.lesion_id, model_id=model_id, dice=pair_dice(preds[0], gt),
                      robustness=robust, location=entry.location,
                      dataset=entry.dataset, flags=frozenset(flags),
                      seed_root=seed_root)


def _workers_cap() -> int | None:
    """``ULSFORGE_WORKERS`` as a positive integer, None when it is unset; any
    other value raises ValueError."""
    cap = os.environ.get("ULSFORGE_WORKERS")
    if cap is not None and (not cap.isdecimal() or int(cap) == 0):
        raise ValueError("ULSFORGE_WORKERS must be a positive integer, got %r" % cap)
    return None if cap is None else int(cap)


def _effective_workers(requested: int | None) -> int:
    cap = _workers_cap()
    n = requested if requested is not None else (os.cpu_count() or 1)
    return max(1, n if cap is None else min(n, cap))


def _run(manifest: Manifest, seg: SegmenterRef, cfg: VOICfg, connectivity: int,
         workers: int | None, model_id: str | None, seed_root: int | None,
         k: int) -> list[EvalRecord]:
    loader = ScanLoader(manifest.entries, connectivity, cfg, _effective_workers(workers), seed_root, k)
    model_id = model_id or seg.model_id
    records = loader.map(partial(_eval_one, seg=seg, model_id=model_id, seed_root=seed_root),
                         partial(_error_record, model_id=model_id, seed_root=seed_root))
    return [records[lesion_id] for lesion_id in sorted(records)]


def run_dice_eval(manifest: Manifest, seg: SegmenterRef, cfg: VOICfg = VOICfg(), *,
                  connectivity: int = 26, workers: int | None = None,
                  model_id: str | None = None) -> list[EvalRecord]:
    """Centered-click Dice protocol: one record per manifest lesion.

    Per lesion: crop at the lesion center, isolate the central lesion
    as ground truth, segment, and score Dice over the VOI's part inside
    the volume, the voxels the global frame counts. Nothing is placed
    back. Failures yield flagged records.
    """
    return _run(manifest, seg, cfg, connectivity, workers, model_id, None, 0)


def run_robustness_eval(manifest: Manifest, seg: SegmenterRef, cfg: VOICfg = VOICfg(),
                        seed_root: int = 0, *, k: int = DEFAULT_AUGMENT_COUNT,
                        connectivity: int = 26, workers: int | None = None,
                        model_id: str | None = None) -> list[EvalRecord]:
    """Click-shift robustness protocol.

    Per lesion: one centroid click plus k sampled in-lesion clicks
    (default 2, giving three segmentations), robustness = mean pairwise
    Dice among their predictions, each pair counted over the two
    windows' common part inside the volume: the scores of the global
    frame, with nothing placed back. The centered-click Dice is
    recorded alongside.
    """
    return _run(manifest, seg, cfg, connectivity, workers, model_id, seed_root, k)


# ---------------------------------------------------------------------------
# aggregation and comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumStats:
    """A model's scores on one stratum value: a location group or a dataset cell.

    ``stratum`` is the field the rows are keyed by, "location" or
    "dataset"; ``to_record`` emits ``key`` under that name.
    """

    model_id: str
    stratum: str
    key: str
    n: int
    dice_mean: float
    dice_std: float
    robustness_mean: float | None
    robustness_std: float | None
    robustness_n: int

    def to_record(self) -> dict:
        return {
            "model_id": self.model_id, self.stratum: self.key, "n": self.n,
            "dice_mean": self.dice_mean, "dice_std": self.dice_std,
            "robustness_mean": self.robustness_mean,
            "robustness_std": self.robustness_std,
            "robustness_n": self.robustness_n,
        }

    @classmethod
    def from_record(cls, rec: dict, stratum: str) -> StratumStats:
        fields = dict(rec)
        return cls(stratum=stratum, key=fields.pop(stratum), **fields)


@dataclass
class StratifiedReport:
    groups: list[StratumStats]
    summary: list[StratumStats] = field(default_factory=list)
    comparisons: list[TestResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    records: list[EvalRecord] = field(default_factory=list)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _metric_stats(recs: list[EvalRecord]) -> dict:
    bad = sum(not math.isfinite(r.dice) or not math.isfinite(r.robustness or 0) for r in recs)
    if bad:  # a mean over them would be written as NaN, which strict JSON refuses
        raise ValueError("%d of %d records hold a NaN or infinite dice or robustness" % (bad, len(recs)))
    dice_mean, dice_std = _mean_std([r.dice for r in recs])
    robust = [r.robustness for r in recs if r.robustness is not None]
    if robust:
        r_mean, r_std = _mean_std(robust)
    else:
        r_mean = r_std = None
    return {"n": len(recs), "dice_mean": dice_mean, "dice_std": dice_std,
            "robustness_mean": r_mean, "robustness_std": r_std,
            "robustness_n": len(robust)}


def aggregate_by_location(records: list[EvalRecord], metadata: dict | None = None) -> StratifiedReport:
    """Stratify records by location tag, with an overall row per model.

    Locations are ordered alphabetically with "undefined" last; the
    overall row uses the location label "(all)". Sample std uses the
    n-1 denominator and is 0 for single-record groups. A per-dataset
    summary (model x dataset, the published-table layout) is attached
    alongside the location groups. A record located at "(all)" is a
    ValueError.
    """
    if not records:
        raise EmptyRecordsError("no records to aggregate")
    by_model: dict[str, list[EvalRecord]] = {}
    for rec in records:
        by_model.setdefault(rec.model_id, []).append(rec)
    groups = []
    summary = []
    for model_id in sorted(by_model):
        recs = by_model[model_id]
        by_loc: dict[str, list[EvalRecord]] = {}
        by_ds: dict[str, list[EvalRecord]] = {}
        for rec in recs:
            loc = rec.location.strip() or UNDEFINED_LOCATION
            if loc == OVERALL_LOCATION:  # its row could not be told from the overall row
                raise ValueError("record %r: location %r is reserved for the overall row"
                                 % (rec.lesion_id, OVERALL_LOCATION))
            by_loc.setdefault(loc, []).append(rec)
            by_ds.setdefault(rec.dataset, []).append(rec)
        locations = sorted(by_loc, key=lambda l: (l == UNDEFINED_LOCATION, l))
        overall = _metric_stats(recs)  # first, so a non-finite score's count is the model's
        for loc in locations:
            groups.append(StratumStats(model_id, "location", loc, **_metric_stats(by_loc[loc])))
        groups.append(StratumStats(model_id, "location", OVERALL_LOCATION, **overall))
        for dataset in sorted(by_ds):
            summary.append(StratumStats(model_id, "dataset", dataset,
                                        **_metric_stats(by_ds[dataset])))
    return StratifiedReport(groups=groups, summary=summary,
                            metadata=dict(metadata or {}), records=list(records))


def compare_models(a: list[EvalRecord], b: list[EvalRecord],
                   metrics: tuple[str, ...] = ("dice", "robustness"),
                   m_comparisons: int | None = None,
                   alpha: float = DEFAULT_SIGNIFICANCE_ALPHA) -> list[TestResult]:
    """Paired per-lesion comparison of two runs, Bonferroni-corrected.

    Records pair by lesion id within each dataset; one t-test per
    (dataset, metric) with values present on both sides. Both runs must
    hold the same lesions, each in the same dataset. m defaults to
    the number of comparisons performed. Zero-variance comparisons are
    reported as degenerate, never as p = 0.
    """
    map_a = {r.lesion_id: r for r in a}
    map_b = {r.lesion_id: r for r in b}
    if set(map_a) != set(map_b):
        raise PairingMismatchError(set(map_a) - set(map_b), set(map_b) - set(map_a))
    moved = {lid: (r.dataset, map_b[lid].dataset) for lid, r in map_a.items()
             if r.dataset != map_b[lid].dataset}
    if moved:
        raise PairingMismatchError(set(), set(), moved)
    datasets = sorted({r.dataset for r in a})
    raw: list[TestResult] = []
    for dataset in datasets:
        ids = sorted(lid for lid, r in map_a.items() if r.dataset == dataset)
        for metric in metrics:
            pairs = [
                (getattr(map_a[lid], metric), getattr(map_b[lid], metric))
                for lid in ids
                if getattr(map_a[lid], metric) is not None
                and getattr(map_b[lid], metric) is not None
            ]
            if not pairs:
                continue
            comparison_id = "%s:%s" % (dataset, metric)
            x = [p[0] for p in pairs]
            y = [p[1] for p in pairs]
            try:
                result = replace(paired_ttest(x, y), comparison_id=comparison_id)
            except (ZeroVarianceError, TooFewPairsError):
                result = degenerate_result(len(pairs), comparison_id)
            raw.append(result)
    m = m_comparisons if m_comparisons is not None else max(1, len(raw))
    return [r.adjusted(m, alpha) for r in raw]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def run_metadata(seg: SegmenterRef, cfg: VOICfg, connectivity: int,
                 seed_root: int | None = None, k: int | None = None) -> dict:
    """Reproducibility metadata recorded with every report."""
    return {
        "model_id": seg.model_id,
        "voi_size": list(cfg.size),
        "pad_value_image": cfg.pad_value_image,
        "pad_value_mask": 0,
        "connectivity": connectivity,
        "seed_root": seed_root,
        "k": k,
        "empty_dice_convention": "empty-vs-empty scores 1.0, empty-vs-nonempty 0.0",
        "window_convention": "per axis [c - s/2, c - s/2 + s); click at local index s/2",
        "robustness_frame": "global frame after place-back",
        "pairing": "per-lesion within dataset",
    }


def _write_table(writer, rows: list[dict]) -> None:
    """Header from the first record's keys, then every record's values (None -> "")."""
    if rows:
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)


def emit_report(report: StratifiedReport, format: str, path: str | Path) -> None:
    """Write the aggregate report; JSON round-trips via read_report.

    When the report carries per-lesion records, a sibling
    ``<name>_records.csv`` is written next to the aggregate file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if format == "json":
        doc = {
            "metadata": report.metadata,
            "groups": [g.to_record() for g in report.groups],
            "summary": [s.to_record() for s in report.summary],
            "comparisons": [asdict(t) for t in report.comparisons],
            "records": [r.to_record() for r in report.records],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    elif format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            for key in sorted(report.metadata):
                f.write("# %s: %s\n" % (key, report.metadata[key]))
            writer = csv.writer(f, lineterminator="\n")
            _write_table(writer, [g.to_record() for g in report.groups])
            if report.summary:
                f.write("# summary: model x dataset\n")
                _write_table(writer, [s.to_record() for s in report.summary])
            if report.comparisons:
                f.write("# comparisons\n")
                _write_table(writer, [asdict(t) for t in report.comparisons])
    else:
        raise ValueError("format must be 'csv' or 'json', got %r" % format)
    if report.records:
        write_records_csv(report.records, path.with_name(path.stem + "_records.csv"))


def read_report(path: str | Path) -> StratifiedReport:
    """Parse a JSON report written by emit_report; a missing key, or an entry
    that is not a record of its kind, raises ValueError that names the file."""
    with open(path, encoding="utf-8-sig") as f:
        doc = json.load(f)
    missing = [k for k in ("metadata", "groups", "comparisons", "records")
               if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise ValueError("%s lacks the key(s) %s" % (path, ", ".join(missing)))
    try:
        if not isinstance(doc["metadata"], dict):
            raise TypeError("metadata is not a JSON object: %r" % (doc["metadata"],))
        return StratifiedReport(
            groups=[StratumStats.from_record(g, "location") for g in doc["groups"]],
            summary=[StratumStats.from_record(s, "dataset") for s in doc.get("summary", [])],
            comparisons=[TestResult(**t) for t in doc["comparisons"]],
            metadata=doc["metadata"],
            records=[EvalRecord(**dict(r, flags=frozenset(r["flags"]))) for r in doc["records"]],
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError("%s has a malformed entry: %s: %s" % (path, type(e).__name__, e))
