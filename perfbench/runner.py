"""One benchmark command: the ulsforge CLI run in-process, in a fresh process.

    python3 perfbench/runner.py SPEC.json RESULT.json

SPEC names the ulsforge source directory, the CLI argv (its ``--out``
directory is removed afterwards), and, for a traced command, the worker
count, the number of manifest entries and the file the spans go to. The
command runs from argv to a finished run directory. RESULT gets its exit
code, wall time, ``records.csv``, the ``(all)`` row count of
``report.json``, the peak resident memory of this process and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path


def _peak_rss_bytes() -> int:
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` also keeps the high-water mark of the parent's memory
    that this process inherited before exec, so it would count the
    fixture the parent built; the kernel's VmHWM does not.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import ulsforge
    from ulsforge import cli

    if Path(ulsforge.__file__).resolve().parent != src / "ulsforge":
        raise SystemExit("imported ulsforge from %s, not from %s" % (ulsforge.__file__, src))
    tracer = None
    if spec.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer(spec["workers"])
        tracer.install()
    argv = spec["argv"]
    out = Path(argv[argv.index("--out") + 1])
    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    result = {"rc": rc, "wall": wall, "records": None, "report_n": None,
              "peak_rss_mb": _peak_rss_bytes() / 1e6}
    if rc == 0:
        result["records"] = (out / "records.csv").read_text(encoding="utf-8")
        groups = json.loads((out / "report.json").read_text(encoding="utf-8"))["groups"]
        result["report_n"] = sum(g["n"] for g in groups if g["location"] == "(all)")
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(spec["entries"])
        tracer.write(spec["trace_path"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
