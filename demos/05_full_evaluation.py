"""
A complete evaluation run, manifest to significance test
========================================================

Builds a synthetic dataset on disk, splits it at patient level, scores
two segmenter configurations on the test side, and compares them with
paired t-tests. Everything is keyed by explicit seeds, so rerunning
this script reproduces the same numbers byte for byte.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from ulsforge import (
    GrowParams,
    SegmenterRef,
    Volume3D,
    VOICfg,
    VolumeKind,
    aggregate_by_location,
    compare_models,
    emit_report,
    load_manifest,
    run_metadata,
    run_robustness_eval,
    split_patients,
    write_volume,
)

workdir = Path(tempfile.mkdtemp(prefix="demo-run-"))
rng = np.random.default_rng(42)

# --- synthesize 12 single-lesion cases across 6 patients -------------------
shape = (48, 48, 32)
entries = []
for i in range(12):
    center = tuple(int(rng.integers(8, n - 8)) for n in shape)
    radius = int(rng.integers(2, 5))
    grid = np.ogrid[0:shape[0], 0:shape[1], 0:shape[2]]
    blob = sum((g - c) ** 2 for g, c in zip(grid, center)) <= radius ** 2
    image = np.full(shape, -1000, dtype=np.int16)
    image[blob] = 100
    # salt the lesion rim so the two HU windows disagree on some voxels
    rim = sum((g - c) ** 2 for g, c in zip(grid, center)) <= (radius + 1) ** 2
    image[rim & ~blob] = np.int16(160)
    mask = blob.astype(np.uint8)
    write_volume(Volume3D(image), workdir / ("case%02d_img.nii.gz" % i))
    write_volume(Volume3D(mask, kind=VolumeKind.BINARY_MASK),
                 workdir / ("case%02d_mask.nii.gz" % i))
    entries.append({
        "lesion_id": "case%02d" % i,
        "patient_id": "patient%d" % (i // 2),
        "dataset": "demo-ct",
        "location": ("liver", "lung", "bone")[i % 3],
        "image_path": "case%02d_img.nii.gz" % i,
        "mask_path": "case%02d_mask.nii.gz" % i,
    })
manifest_path = workdir / "manifest.json"
manifest_path.write_text(json.dumps({"entries": entries}, indent=2))

manifest = load_manifest(manifest_path)
train, test = split_patients(manifest, test_fraction=0.2, seed=3)
print("patients: %d train / %d test (no patient straddles the split)"
      % (len(train.patients()), len(test.patients())))

# --- evaluate two segmenter configurations on the full set -----------------
cfg = VOICfg(size=(32, 32, 16))
tight = SegmenterRef.builtin(GrowParams(hu_window=(50, 150)))
wide = SegmenterRef.builtin(GrowParams(hu_window=(50, 200)))  # swallows the rim

runs = {}
for name, seg in (("tight-window", tight), ("wide-window", wide)):
    records = run_robustness_eval(manifest, seg, cfg, seed_root=7, model_id=name)
    runs[name] = records
    mean_dice = np.mean([r.dice for r in records])
    mean_rob = np.mean([r.robustness for r in records])
    print("%-13s mean dice %.4f   mean robustness %.4f"
          % (name, mean_dice, mean_rob))

# --- stratified report for one run ------------------------------------------
report = aggregate_by_location(runs["tight-window"],
                               run_metadata(tight, cfg, 26, seed_root=7, k=2))
report.comparisons = compare_models(runs["tight-window"], runs["wide-window"])
emit_report(report, "json", workdir / "report.json")

print("\nper-location (tight-window):")
for g in report.groups:
    print("  %-9s n=%2d dice %.4f +/- %.4f   robustness %.4f +/- %.4f"
          % (g.key, g.n, g.dice_mean, g.dice_std,
             g.robustness_mean, g.robustness_std))

print("\nmodel comparison (paired two-tailed t, Bonferroni-corrected):")
for t in report.comparisons:
    if t.degenerate:
        print("  %-20s degenerate (all per-lesion differences equal)" % t.comparison_id)
    else:
        print("  %-20s t=%+.3f  p=%.3g  adjusted=%.3g  significant(@1e-4)=%s"
              % (t.comparison_id, t.t_stat, t.p_two_tailed, t.p_adjusted, t.significant))

print("\nartifacts written to", workdir)
