"""Command-line entry points.

Run directories produced by ``eval`` and ``robustness`` contain
``records.csv`` (per-lesion scores, fixed column order) and
``report.json`` (stratified aggregate with run metadata); ``compare``
and ``report`` read those back. Runs and ``extract`` take their lesions
through one pooled ``ScanLoader.map``, whose workers ``ULSFORGE_WORKERS`` caps.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import _rng, pipeline
# build_click_plan, crop_voi, isolate_central_lesion: unused, kept for tools that wrap them on cli
from .clicks import build_click_plan  # noqa: F401
from .errors import UlsforgeError
from .lesions import CONNECTIVITIES
from .segmenter import GrowParams, SegmenterRef
from .voi import VOICfg, crop_voi, isolate_central_lesion  # noqa: F401
from .volume import write_volume

RECORDS_NAME = "records.csv"
REPORT_NAME = "report.json"
INDEX_NAME = "index.json"


def _parse_voi(text: str) -> tuple[int, int, int]:
    try:
        return VOICfg(size=tuple(int(p) for p in text.lower().split("x"))).size
    except ValueError as e:
        raise argparse.ArgumentTypeError("VOI size must look like 128x128x64, got %r: %s"
                                         % (text, e))


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return int(text)


def _seed(text: str) -> int:
    try:
        return _rng._checked_seed(int(text))  # the range every keyed draw takes
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer seed in [0, 2**64), got %r" % text)


def _bonferroni_m(text: str) -> int | None:
    """None for AUTO, the number of comparisons made; else a positive integer."""
    return None if text.upper() == "AUTO" else _positive(text)


def _grow_params(text: str) -> GrowParams:
    try:
        lo, hi = (float(v) for v in text.split(":"))
        return GrowParams(hu_window=(lo, hi))
    except ValueError as e:
        raise argparse.ArgumentTypeError("HU window must look like LO:HI, got %r: %s" % (text, e))


def _timeout(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:  # also false for NaN
        raise argparse.ArgumentTypeError("expected a positive number of seconds, got %r" % text)
    return value


def _unit_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("expected a number in (0, 1), got %r" % text)
    return value


def _segmenter(text: str):
    """The function of (--hu-window, --timeout) that builds the segmenter
    ``text`` names; a bad ``text`` is refused here, before a file is read."""
    if text == "builtin":
        return lambda params, timeout_s: SegmenterRef.builtin(params)
    if text.startswith("exec:"):
        command = text[len("exec:"):]
        try:
            SegmenterRef.external(command)
        except ValueError as e:
            raise argparse.ArgumentTypeError("bad command template %r: %s" % (command, e))
        return lambda params, timeout_s: SegmenterRef.external(command, timeout_s)
    raise argparse.ArgumentTypeError(
        "expected 'builtin' or 'exec:\"CMD {image} {x} {y} {z} {output}\"', got %r" % text)


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--voi", type=_parse_voi, default=(128, 128, 64),
                     help="VOI size, default 128x128x64")
    sub.add_argument("--connectivity", type=int, default=26, choices=CONNECTIVITIES)
    sub.add_argument("--workers", type=_positive, default=None)
    sub.add_argument("--out", required=True, help="output run directory")
    sub.add_argument("--segmenter", type=_segmenter, required=True,
                     help="'builtin' or 'exec:\"CMD {image} {x} {y} {z} {output}\"'")
    sub.add_argument("--hu-window", type=_grow_params, default=None,
                     help="builtin growth window as LO:HI (HU); write --hu-window=LO:HI "
                          "when LO is negative")
    sub.add_argument("--timeout", type=_timeout, default=60.0,
                     help="external segmenter timeout in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulsforge",
        description="Click-centered lesion segmentation evaluation toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check manifest schema and file existence")
    p.add_argument("--manifest", required=True)

    p = subs.add_parser("split", help="patient-level train/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--test-fraction", type=_unit_fraction, default=pipeline.DEFAULT_TEST_FRACTION)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)

    p = subs.add_parser("extract", help="persist click-centered VOI pairs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--voi", type=_parse_voi, default=(128, 128, 64))
    p.add_argument("--connectivity", type=int, default=26, choices=CONNECTIVITIES)
    p.add_argument("--out", required=True)
    p.add_argument("--augment", type=_count, default=0,
                   help="additional sampled-click VOIs per lesion")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(workers=None)  # the runs' default pool, capped by ULSFORGE_WORKERS

    p = subs.add_parser("eval", help="centered-click Dice run")
    _add_run_args(p)
    p.set_defaults(seed=None, k=None, score="dice")

    p = subs.add_parser("robustness", help="click-shift robustness run")
    _add_run_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--k", type=_count, default=2, help="sampled clicks per lesion")
    p.set_defaults(score="robustness")

    p = subs.add_parser("compare", help="paired t-tests between two runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--alpha", type=_unit_fraction, default=pipeline.DEFAULT_SIGNIFICANCE_ALPHA)
    p.add_argument("--bonferroni-m", type=_bonferroni_m, default="AUTO",
                   help="correction factor, or AUTO for the number of comparisons")
    p.add_argument("--out", required=True)

    p = subs.add_parser("report", help="stratified aggregate from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--by", default="location", choices=("location",))
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    print("OK: %d entries, %d patients, datasets: %s"
          % (len(manifest.entries), len(manifest.patients()),
             ", ".join(manifest.datasets()) or "-"))
    return 0


def _cmd_split(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    train, test = pipeline.split_patients(manifest, args.test_fraction, args.seed)
    pipeline.save_manifest(train, args.out_train)
    pipeline.save_manifest(test, args.out_test)
    print("train: %d lesions / %d patients -> %s"
          % (len(train.entries), len(train.patients()), args.out_train))
    print("test:  %d lesions / %d patients -> %s"
          % (len(test.entries), len(test.patients()), args.out_test))
    return 0


def _cmd_extract(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    cfg = VOICfg(size=args.voi)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffixes = [""] + ["_aug%d" % i for i in range(1, args.augment + 1)]
    stems = {e.lesion_id: [e.lesion_id + suffix for suffix in suffixes] for e in manifest.entries}
    owner: dict[str, str] = {}  # each file stem's lesion: the first in manifest order to claim it
    for lesion_id, own in stems.items():
        if Path(lesion_id).name == lesion_id:  # a lesion that may write files
            for stem in own:
                owner.setdefault(stem, lesion_id)

    def write(entry, lesion) -> tuple[list[dict], dict | None]:
        """The lesion's index rows and, when augmenting, its plan, once all its pairs are written."""
        if Path(entry.lesion_id).name != entry.lesion_id:
            raise UlsforgeError("lesion id %r is not a plain file name" % entry.lesion_id)
        for stem in stems[entry.lesion_id]:
            if owner[stem] != entry.lesion_id:
                raise UlsforgeError("lesion %r would overwrite the files of lesion %r"
                                    % (entry.lesion_id, owner[stem]))
        samples = [lesion.voi(c) for c in lesion.plan.all_clicks()]
        rows, files = [], []  # this lesion's files, each listed before it is written
        try:
            for i, (stem, sample) in enumerate(zip(stems[entry.lesion_id], samples)):
                img_path = out / ("%s_img.nii.gz" % stem)
                mask_path = out / ("%s_mask.nii.gz" % stem)
                for vol, path in ((sample.image, img_path), (sample.mask, mask_path)):
                    files.append(path)
                    write_volume(vol, path)
                rows.append({
                    "lesion_id": entry.lesion_id,
                    "sample": "normal" if i == 0 else "aug%d" % i,
                    "click": list(sample.click.pos),
                    "offset": list(sample.offset),
                    "seed_root": args.seed if args.augment > 0 else None,
                    "image": img_path.name,
                    "mask": mask_path.name,
                })
        except BaseException:  # a lesion is kept whole or not at all
            for path in files:
                with contextlib.suppress(OSError):
                    path.unlink()
            raise
        return rows, lesion.plan.to_record() if args.augment > 0 else None

    loader = pipeline.ScanLoader(manifest.entries, args.connectivity, cfg,
                                 pipeline._effective_workers(args.workers), args.seed, args.augment)
    done = loader.map(write, lambda entry, exc: (  # a failed lesion's one error row
        [{"lesion_id": entry.lesion_id, "error": pipeline._error_text(exc)}], None))
    # the index lists lesions in manifest order, whatever order the scans loaded in
    order = [done[e.lesion_id] for e in manifest.entries]
    doc = {"samples": [row for rows, _ in order for row in rows]}
    plans = [plan for _, plan in order if plan is not None]
    if plans:
        doc["plans"] = plans
    (out / INDEX_NAME).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print("wrote %d VOI pairs for %d lesions -> %s"
          % (sum("error" not in row for row in doc["samples"]), len(manifest.entries), out))
    return 0


def _write_run(records, metadata, out_dir: str) -> None:
    report = pipeline.aggregate_by_location(records, metadata)  # fails before any file is written
    report.records = []  # records live in records.csv, not the aggregate
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_records_csv(records, out / RECORDS_NAME)
    pipeline.emit_report(report, "json", out / REPORT_NAME)


def _cmd_run(args) -> int:
    """``eval`` and ``robustness``: eval is the robustness protocol with
    k = 0 and no seed, and its metadata records seed_root and k as null."""
    manifest = pipeline.load_manifest(args.manifest)
    seg = args.segmenter(args.hu_window, args.timeout)
    cfg = VOICfg(size=args.voi)
    records = pipeline.run_robustness_eval(manifest, seg, cfg, args.seed,
                                           k=args.k or 0, connectivity=args.connectivity,
                                           workers=args.workers)
    metadata = pipeline.run_metadata(seg, cfg, args.connectivity,
                                     seed_root=args.seed, k=args.k)
    _write_run(records, metadata, args.out)
    scored = [s for s in (getattr(r, args.score) for r in records) if s is not None]
    mean = sum(scored) / len(scored) if scored else float("nan")
    print("evaluated %d lesions, mean %s %.4f -> %s"
          % (len(records), args.score, mean, args.out))
    return 0


def _cmd_compare(args) -> int:
    rec_a = pipeline.read_records_csv(Path(args.run_a) / RECORDS_NAME)
    rec_b = pipeline.read_records_csv(Path(args.run_b) / RECORDS_NAME)
    m = args.bonferroni_m
    results = pipeline.compare_models(rec_a, rec_b, m_comparisons=m, alpha=args.alpha)
    doc = {
        "metadata": {
            "run_a": str(args.run_a), "run_b": str(args.run_b),
            "alpha": args.alpha,
            "bonferroni_m": m if m is not None else max(1, len(results)),
            "pairing": "per-lesion within dataset",
        },
        "comparisons": [asdict(t) for t in results],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for t in results:
        if t.degenerate:
            print("%s: degenerate (all differences equal), n=%d"
                  % (t.comparison_id, t.n_pairs))
        else:
            print("%s: t=%.4f df=%d p=%.3g adj=%.3g%s"
                  % (t.comparison_id, t.t_stat, t.df, t.p_two_tailed, t.p_adjusted,
                     " *" if t.significant else ""))
    return 0


def _cmd_report(args) -> int:
    run = Path(args.run)
    records = pipeline.read_records_csv(run / RECORDS_NAME)
    metadata = {}
    report_path = run / REPORT_NAME
    if report_path.exists():
        metadata = pipeline.read_report(report_path).metadata
    report = pipeline.aggregate_by_location(records, metadata)
    pipeline.emit_report(report, args.format, args.out)
    print("wrote %s report for %d records -> %s" % (args.format, len(records), args.out))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "split": _cmd_split,
    "extract": _cmd_extract,
    "eval": _cmd_run,
    "robustness": _cmd_run,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "workers"):  # checked like --workers, before any file is read
        try:
            pipeline._workers_cap()
        except ValueError as e:
            parser.error(str(e))
    try:
        return _COMMANDS[args.command](args)
    except (UlsforgeError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
