"""Click-centered lesion segmentation evaluation toolkit.

Deterministic building blocks for evaluating interactive 3-D lesion
segmenters on CT: NIfTI-1 volume I/O, connected-component lesion
extraction, click-centered VOI cropping with shift augmentation, Dice
and click-robustness metrics, patient-level splits, and paired
significance testing, with builtin and external-process segmenters.
"""

from . import errors
from .clicks import (
    ClickPlan,
    build_click_plan,
    generate_shifted_samples,
    sample_click_points,
)
from .lesions import (
    CENTROID,
    SAMPLED,
    ClickPoint,
    LesionInstance,
    extract_instances,
    label_components,
)
from .metrics import dice, mean_pairwise_dice
from .pipeline import (
    EvalRecord,
    Manifest,
    ManifestEntry,
    StratifiedReport,
    StratumStats,
    aggregate_by_location,
    compare_models,
    emit_report,
    load_manifest,
    read_records_csv,
    read_report,
    resolve_lesion,
    run_dice_eval,
    run_metadata,
    run_robustness_eval,
    save_manifest,
    split_patients,
    write_records_csv,
)
from .segmenter import (
    GrowParams,
    SegmentationResult,
    SegmenterRef,
    segment,
)
from .stats import TestResult, bonferroni, paired_ttest
from .voi import VOICfg, VOISample, crop_voi, isolate_central_lesion, place_back
from .volume import Volume3D, VolumeKind, read_volume, write_volume

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Volume3D", "VolumeKind", "read_volume", "write_volume",
    "ClickPoint", "LesionInstance", "CENTROID", "SAMPLED",
    "label_components", "extract_instances",
    "VOICfg", "VOISample", "crop_voi", "isolate_central_lesion", "place_back",
    "ClickPlan", "sample_click_points", "build_click_plan", "generate_shifted_samples",
    "dice", "mean_pairwise_dice",
    "TestResult", "paired_ttest", "bonferroni",
    "GrowParams", "SegmenterRef", "SegmentationResult",
    "segment",
    "Manifest", "ManifestEntry", "EvalRecord", "StratumStats", "StratifiedReport",
    "load_manifest", "save_manifest", "split_patients", "resolve_lesion",
    "run_dice_eval", "run_robustness_eval", "run_metadata",
    "aggregate_by_location", "compare_models", "emit_report", "read_report",
    "write_records_csv", "read_records_csv",
]
