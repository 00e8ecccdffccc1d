"""Spans around the calls into each ulsforge module, recorded from outside.

``Tracer.install`` replaces module attributes with timing wrappers at
the names through which ``pipeline``, ``voi``, ``clicks``, ``segmenter``
and ``cli`` call them, so the program runs unchanged. Each call becomes
a span (name, start, end, parent, thread) kept in memory; ``write``
dumps them as JSON lines at the end and ``layer_metrics`` reduces them
to per-layer self times, call counts and volumes.

Self time is a span's duration minus its direct children's durations.
Worker threads have no span of their own around each lesion, so their
top-level spans are children of the open ``pipeline.run`` span, whose
self time is therefore ``workers x duration - children``: instance
resolution in the private ``_resolve_lesion``, ``argwhere``, scheduling,
idle workers and GIL waits outside any traced call.
"""

from __future__ import annotations

import json
import threading
import time

def _nbytes_result(args, result):
    return {"bytes": result.data.nbytes}


def _nbytes_arg(args, result):
    return {"bytes": args[0].data.nbytes}


def _nvox_arg(args, result):
    return {"vox": args[0].nvox}


def _truncated(args, result):
    return {"truncated": bool(result.truncated)}


def _external(args):
    return {"external": args[2].kind == "external"}


def _targets():
    """(span name, [(owner, attribute)], after, before) for every traced call.

    ``after(args, result)`` measures a call that returned and
    ``before(args)`` one about to start; both give fields for the span.
    """
    from ulsforge import cli, clicks, metrics, pipeline, segmenter, voi, volume

    return [
        ("volume.read", [(pipeline, "read_volume"), (segmenter, "read_volume")], _nbytes_result),
        ("volume.write", [(segmenter, "write_volume"), (cli, "write_volume")], _nbytes_arg),
        ("volume.binarize", [(volume.Volume3D, "as_binary_mask")], None),
        ("lesions.label", [(pipeline, "label_components"), (voi, "label_components")], _nvox_arg),
        ("voi.crop", [(pipeline, "crop_voi"), (clicks, "crop_voi"), (cli, "crop_voi")], None),
        ("voi.isolate", [(pipeline, "isolate_central_lesion"), (clicks, "isolate_central_lesion"),
                         (cli, "isolate_central_lesion")], None),
        ("voi.place_back", [(pipeline, "place_back")], _nbytes_result),
        ("clicks.plan", [(pipeline, "build_click_plan"), (cli, "build_click_plan")], None),
        ("segmenter.segment", [(pipeline, "segment")], _truncated, _external),
        ("metrics.dice", [(pipeline, "dice"), (metrics, "dice")], _nvox_arg),
        ("pipeline.manifest", [(pipeline, "load_manifest")], None),
        ("pipeline.write", [(pipeline, "write_records_csv"), (pipeline, "aggregate_by_location"),
                            (pipeline, "emit_report")], None),
        ("pipeline.run", [(pipeline, "run_dice_eval"), (pipeline, "run_robustness_eval")], None),
    ]


class Tracer:
    def __init__(self, workers: int):
        self.workers = workers
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: dict | None = None  # the open pipeline.run span

    def install(self) -> None:
        for name, owners, after, *before in _targets():
            for owner, attr in owners:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), after, *before))

    def _wrap(self, name, fn, after, before=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "thread": threading.get_ident(),
                    "parent": stack[-1]["id"] if stack else (self._root or {}).get("id")}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            if name == "pipeline.run":
                self._root = span
            if before is not None:
                span.update(before(args))
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span["error"] = type(e).__name__
                raise
            else:
                if after is not None:
                    span.update(after(args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if span is self._root:
                    self._root = None

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")

    def layer_metrics(self, n_entries: int) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` over the recorded spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        stats = {name: dict(_STATS) for name, _ in LAYER_METRICS.values()}
        for s in self.spans:
            st = stats[s["name"]]
            capacity = min(self.workers, n_entries) if s["name"] == "pipeline.run" else 1
            st["self_s"] += capacity * (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            st["calls"] += 1
            st["mb"] += s.get("bytes", 0) / 1e6
            st["mvox"] += s.get("vox", 0) / 1e6
            st["truncated"] += s.get("truncated", False)
            st["external"] += s.get("external", False)
            st["external_failed"] += s.get("external", False) and "error" in s
        return {metric: stats[name][stat] for metric, (name, stat) in LAYER_METRICS.items()}


_STATS = {"self_s": 0.0, "calls": 0, "mb": 0.0, "mvox": 0.0,
          "truncated": 0, "external": 0, "external_failed": 0}

# per-layer metric -> (span name, statistic over its spans)
LAYER_METRICS = {
    "volume.read_s": ("volume.read", "self_s"),
    "volume.read_calls": ("volume.read", "calls"),
    "volume.read_mb": ("volume.read", "mb"),
    "volume.write_s": ("volume.write", "self_s"),
    "volume.write_calls": ("volume.write", "calls"),
    "volume.write_mb": ("volume.write", "mb"),
    "volume.binarize_s": ("volume.binarize", "self_s"),
    "lesions.label_s": ("lesions.label", "self_s"),
    "lesions.label_calls": ("lesions.label", "calls"),
    "lesions.label_mvox": ("lesions.label", "mvox"),
    "voi.crop_s": ("voi.crop", "self_s"),
    "voi.crop_calls": ("voi.crop", "calls"),
    "voi.isolate_s": ("voi.isolate", "self_s"),
    "voi.place_back_s": ("voi.place_back", "self_s"),
    "voi.place_back_calls": ("voi.place_back", "calls"),
    "voi.place_back_mb": ("voi.place_back", "mb"),
    "clicks.plan_s": ("clicks.plan", "self_s"),
    "clicks.plan_calls": ("clicks.plan", "calls"),
    "segmenter.segment_s": ("segmenter.segment", "self_s"),
    "segmenter.segment_calls": ("segmenter.segment", "calls"),
    "segmenter.truncated_calls": ("segmenter.segment", "truncated"),
    "segmenter.external_spawns": ("segmenter.segment", "external"),
    "segmenter.external_failed": ("segmenter.segment", "external_failed"),
    "metrics.dice_s": ("metrics.dice", "self_s"),
    "metrics.dice_calls": ("metrics.dice", "calls"),
    "metrics.dice_mvox": ("metrics.dice", "mvox"),
    "pipeline.manifest_s": ("pipeline.manifest", "self_s"),
    "pipeline.write_s": ("pipeline.write", "self_s"),
    "pipeline.run_s": ("pipeline.run", "self_s"),
}
