"""CT-scale benchmark of the ulsforge CLI. See perfbench/README.md.

    python3 perfbench/run.py                      # every workload, traced
    python3 perfbench/run.py --workload ct-robustness --seed 1 --seconds 25 --trace 0

For one workload: build its seeded fixture several times (set-up),
derive every lesion's expected record from the fixture geometry, then
run the real CLI for ``--seconds`` seconds, one closed-batch command
after another, each in a fresh process (``runner.py``). Every command's
records are checked; a command with a wrong record counts its wrong
lesions as failed and its time is left out of the rate. With
``--trace 1`` one more, traced, command gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fixture

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# a median needs a few commands even when --seconds is short
MIN_RUNS = 3
K = 2  # sampled clicks per lesion in robustness runs
CSV_HEADER = ["lesion_id", "model_id", "dataset", "location", "dice", "robustness",
              "flags", "seed_root", "error"]

END_TO_END_UNITS = {"lesions_per_s": "1/s", "peak_rss_mb": "MB", "ok_share": "share",
                    "setup_s": "s"}


def _layer_unit(metric: str) -> str:
    suffix = metric.rsplit("_", 1)[1]
    return {"s": "s", "mb": "MB", "mvox": "Mvox"}.get(suffix, "count")


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("ULSFORGE_WORKERS", None)  # the workload fixes the worker count
    env["TMPDIR"] = str(work / "tmp")  # external-segmenter scratch stays in the checkout
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def _setup(name: str, seed: int, work: Path, env: dict):
    """Build the fixture and import ulsforge, SETUP_REPEATS times.

    Returns the last fixture, the set-up times and the set of digests
    (one digest when the fixture depends on the seed only).
    """
    probe = [sys.executable, "-c", "import sys; sys.path.insert(0, %r); import ulsforge" % str(SRC)]
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "fixture", ignore_errors=True)
        start = time.perf_counter()
        fx = fixture.build(name, seed, work / "fixture")
        subprocess.run(probe, env=env, check=True)
        times.append(time.perf_counter() - start)
        digests.add(fx.digest)
    return fx, times, digests


def _argv(fx: fixture.Fixture, seed: int) -> list[str]:
    wl = fx.workload
    lo, hi = fixture.HU_WINDOW
    argv = [wl.command, "--manifest", str(fx.manifest_path), "--workers", str(wl.workers)]
    if wl.external:
        script = " ".join(shlex.quote(p) for p in (sys.executable, str(HERE / "adapter.py")))
        argv += ["--segmenter", "exec:%s {image} {x} {y} {z} {output} %d %d" % (script, lo, hi)]
    else:
        argv += ["--segmenter", "builtin", "--hu-window", "%d:%d" % (lo, hi)]
    if wl.command == "robustness":
        argv += ["--seed", str(seed), "--k", str(K)]
    return argv


def _wrong_lesions(records: str | None, entries: list[dict], expected: dict,
                   seed_root: str) -> int:
    """Number of manifest lesions whose record is missing or wrong."""
    if records is None:
        return len(entries)
    rows = list(csv.reader(io.StringIO(records)))
    if (not rows or rows[0] != CSV_HEADER or any(len(r) != len(CSV_HEADER) for r in rows)
            or [r[0] for r in rows[1:]] != sorted(e["lesion_id"] for e in entries)):
        return len(entries)  # records are one per lesion, sorted by lesion id
    by_id = {row[0]: row for row in rows[1:]}
    model_ids = {row[1] for row in rows[1:]}
    wrong = 0
    for entry in entries:
        row = dict(zip(CSV_HEADER, by_id[entry["lesion_id"]]))
        exp = expected[entry["lesion_id"]]
        ok = (len(model_ids) == 1 and row["model_id"] != ""
              and row["dataset"] == entry["dataset"] and row["location"] == entry["location"]
              and math.isclose(float(row["dice"]), exp["dice"], rel_tol=1e-12, abs_tol=1e-12)
              and row["flags"] == exp["flags"] and row["seed_root"] == seed_root
              and row["error"] == "")
        if exp["robustness"] is None:
            ok = ok and row["robustness"] == ""
        else:
            ok = ok and row["robustness"] != "" and math.isclose(
                float(row["robustness"]), exp["robustness"], rel_tol=1e-12, abs_tol=1e-12)
        wrong += not ok
    return wrong


def _command(spec: dict, work: Path, env: dict, index: int, trace_path: Path | None) -> dict:
    """Run one CLI command in a fresh runner process and return its result."""
    spec = dict(spec, argv=[*spec["argv"], "--out", str(work / ("run%d" % index))],
                trace_path=str(trace_path) if trace_path else None)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "runner.py"), str(spec_path),
                           str(result_path)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("benchmark command exited %d" % proc.returncode)
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = fixture.WORKLOADS[name]
    work = WORK / ("%s-seed%d-%d" % (name, seed, os.getpid()))
    OUT.mkdir(exist_ok=True)
    try:
        env = _child_env(work)
        fx, setup_times, digests = _setup(name, seed, work, env)
        expected = fixture.expected_records(fx, seed, K)
        fx.scans.clear()
        n = len(fx.entries)
        spec = {"src": str(SRC), "argv": _argv(fx, seed), "workers": wl.workers, "entries": n}
        runs = []
        start = time.perf_counter()
        # stop before a further command would run past --seconds
        while len(runs) < MIN_RUNS or (time.perf_counter() - start) * (len(runs) + 1) / len(runs) <= seconds:
            runs.append(_command(spec, work, env, len(runs), None))
        traced = None
        if trace:
            traced = _command(spec, work, env, len(runs),
                              OUT / ("%s-seed%d.trace.jsonl" % (name, seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    seed_root = str(seed) if wl.command == "robustness" else ""
    commands = runs + ([traced] if trace else [])
    for cmd in commands:
        cmd["wrong"] = n if cmd["rc"] != 0 or cmd["report_n"] != n else \
            _wrong_lesions(cmd["records"], fx.entries, expected, seed_root)
    attempted = n * len(commands)
    failed = sum(cmd["wrong"] for cmd in commands)
    identical = len({cmd["records"] for cmd in commands}) == 1
    correct = failed == 0 and identical and len(digests) == 1
    good = [r["wall"] for r in runs if r["wrong"] == 0] or [r["wall"] for r in runs]
    wall = statistics.median(good)
    end_to_end = {
        "lesions_per_s": n / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_share": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_times),
    }
    layers = None
    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall"] - wall

    scans = len({e["image_path"] for e in fx.entries})
    print("== %s, seed %d: %s on %d lesions in %d scans of %s, %d worker(s), %s"
          % (name, seed, wl.command, n, scans, "x".join(map(str, wl.dims)), wl.workers,
             "exec: adapter" if wl.external else "builtin grower"))
    print("fixture blake2b %s (%d builds, %s)" % (sorted(digests)[0], SETUP_REPEATS,
                                                  "identical" if len(digests) == 1 else "DIFFERENT"))
    print("commands %d untraced%s, %d/%d lesion records wrong, records.csv %s"
          % (len(runs), " + 1 traced" if trace else "", failed, attempted,
             "byte-identical" if identical else "DIFFERS between runs"))
    print("lesions_per_s %.4f 1/s (median wall %.3f s of %d commands; walls %s)"
          % (end_to_end["lesions_per_s"], wall, len(good),
             " ".join("%.3f" % r["wall"] for r in runs)))
    print("peak_rss_mb %.1f MB (median of %s)"
          % (end_to_end["peak_rss_mb"], " ".join("%.1f" % r["peak_rss_mb"] for r in runs)))
    print("ok_share %.4f share (failed_share %d/%d)" % (end_to_end["ok_share"], failed, attempted))
    print("setup_s %.3f s (median of %s)" % (end_to_end["setup_s"],
                                             " ".join("%.3f" % t for t in setup_times)))
    for metric, value in (layers or {}).items():
        print("%s %s %s" % (metric, value, _layer_unit(metric)))

    summary = {"workload": name, "seed": seed, "seconds": seconds, "fixture_blake2b": sorted(digests),
               "correct": correct, "attempted": attempted, "failed": failed,
               "walls": [r["wall"] for r in runs], "setup_times": setup_times,
               "end_to_end": end_to_end, "per_layer": layers}
    (OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(trace)))).write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


def _result_line(summaries: list[dict], trace: bool, prefix: bool) -> str:
    metrics = {}
    for s in summaries:
        pre = s["workload"] + ":" if prefix else ""
        if not trace or prefix:
            for metric, value in s["end_to_end"].items():
                metrics[pre + metric] = {"value": value, "unit": END_TO_END_UNITS[metric]}
        if trace:
            for metric, value in s["per_layer"].items():
                metrics[pre + metric] = {"value": value, "unit": _layer_unit(metric)}
    return json.dumps({"correct": all(s["correct"] for s in summaries),
                       "attempted": sum(s["attempted"] for s in summaries),
                       "failed": sum(s["failed"] for s in summaries), "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *fixture.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=1, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "ulsforge" / "__init__.py").is_file():
        print("error: no ulsforge sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    names = list(fixture.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    print(_result_line(summaries, bool(args.trace), prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
