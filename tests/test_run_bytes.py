"""Pin the bytes of every command's outputs.

One fixture, built in tmp_path, holds every kind of manifest entry the
loader resolves, interleaved across scans: clicked lesions on a binary
mask (an edge lesion, a U-shaped lesion whose bend lies outside its VOI,
a pair touching only diagonally, noise voxels), a labeled mask with
touching labels addressed by component_label and by click, float32 and
int16 (negative label) masks addressed by component_label, and failing
entries sharing scans with good ones. Each command's output directory
and stdout are digested with `.nii.gz` files decompressed and tmp_path
replaced by a fixed token, and compared with recorded digests.

`report`, `compare`, `split` and `validate` run on the same fixture:
reports and comparisons read run directories written by `eval` and
`robustness`, and `split` and `validate` read the JSON manifest and a CSV
copy of it with `click_x/y/z` and `component_label` columns.
"""

import contextlib
import csv
import gzip
import hashlib
import io
import json

import numpy as np
import pytest

from ulsforge import Volume3D, write_volume
from ulsforge.cli import main

SHAPE = (40, 36, 20)
VOI = ["--voi", "16x16x8"]
FLOOD = ["--segmenter", "builtin", "--hu-window=-1100:200"]  # the -1024 padding grows too
GROW = ["--segmenter", "builtin", "--hu-window", "50:150"]

COMMANDS = {
    "eval-w1": ["eval", *FLOOD, "--workers", "1"],
    "eval-w3": ["eval", *FLOOD, "--workers", "3"],
    "rob2-w1": ["robustness", *GROW, "--k", "2", "--seed", "3", "--workers", "1"],
    "rob2-w3": ["robustness", *GROW, "--k", "2", "--seed", "3", "--workers", "3"],
    "rob0": ["robustness", *GROW, "--k", "0", "--workers", "1"],
    "rob2-c6": ["robustness", *GROW, "--k", "2", "--connectivity", "6", "--workers", "2"],
    "extract-c26": ["extract"],
    "extract-c6": ["extract", "--connectivity", "6"],
    "extract-aug-c26": ["extract", "--augment", "2", "--seed", "5"],
    "extract-aug-c6": ["extract", "--augment", "2", "--seed", "5", "--connectivity", "6"],
}

EXPECTED = {
    "eval-w1": "45397f423fba855e",
    "eval-w3": "ff50180ca460418f",
    "rob2-w1": "3b4607b3a848c6ef",
    "rob2-w3": "78a0aca2e495f954",
    "rob0": "792f0cdb725a981c",
    "rob2-c6": "4fa79b6d9d2a6ab5",
    "extract-c26": "b768dd24de0dd824",
    "extract-c6": "3820e60b36ea72fb",
    "extract-aug-c26": "a0fd90d4ee8573f2",
    "extract-aug-c6": "cccd95d64ba3c959",
}


def _write_scan(tmp_path, name, mask, truncate=False):
    image = np.where(mask != 0, 100, -1000).astype(np.int16)
    image_path = tmp_path / ("%s_img.nii.gz" % name)
    mask_path = tmp_path / ("%s_mask.nii.gz" % name)
    write_volume(Volume3D(image, spacing=(0.8, 0.8, 2.5)), image_path)
    if truncate:
        image_path.write_bytes(image_path.read_bytes()[:300])
    write_volume(Volume3D(mask, spacing=(0.8, 0.8, 2.5)), mask_path)
    return image_path.name, mask_path.name


def _fixture(tmp_path):
    multi = np.zeros(SHAPE, dtype=np.uint8)
    multi[0:3, 2:7, 0:4] = 1  # on two faces of the volume
    multi[14:16, 6:28, 8:11] = 1  # U: two arms, joined at y 26-27,
    multi[20:22, 6:28, 8:11] = 1  # outside the VOI around its centroid
    multi[14:22, 26:28, 8:11] = 1
    multi[28:31, 4:7, 2:5] = 1  # two boxes touching at one corner only
    multi[31:34, 7:10, 5:8] = 1
    rng = np.random.default_rng(7)
    for pos in rng.integers(0, SHAPE, size=(25, 3)):
        multi[tuple(pos)] = 1
    multi[38, 34, 18] = 0

    labeled = np.zeros(SHAPE, dtype=np.uint8)
    labeled[5:10, 5:10, 5:10] = 1
    labeled[10:14, 5:10, 5:10] = 2  # touches label 1
    labeled[25:30, 20:25, 10:14] = 3

    floats = np.zeros(SHAPE, dtype=np.float32)
    floats[18:24, 15:21, 8:12] = 1.0
    floats[34:40, 15:21, 14:20] = 2.0  # on the volume's far faces

    signed = np.zeros(SHAPE, dtype=np.int16)
    signed[8:14, 20:26, 4:9] = -3
    signed[14:18, 20:26, 4:9] = 5  # touches label -3

    scans = {
        "multi": _write_scan(tmp_path, "multi", multi),
        "labeled": _write_scan(tmp_path, "labeled", labeled),
        "floats": _write_scan(tmp_path, "floats", floats),
        "signed": _write_scan(tmp_path, "signed", signed),
    }
    trunc_img, _ = _write_scan(tmp_path, "trunc", multi, truncate=True)
    scans["trunc"] = (trunc_img, scans["multi"][1])
    rows = [  # (lesion id, scan, component_label, click)
        ("edge", "multi", None, (1, 4, 2)),
        ("lab1", "labeled", 1, None),
        ("float2", "floats", 2, None),
        ("u", "multi", None, (14, 10, 9)),
        ("trunc", "trunc", None, (1, 4, 2)),
        ("lab2", "labeled", 2, None),
        ("background", "multi", None, (38, 34, 18)),
        ("neg", "signed", -3, None),
        ("diag", "multi", None, (29, 5, 3)),
        ("lab2_click", "labeled", None, (12, 7, 7)),
        ("outside", "multi", None, (40, 0, 0)),
        ("absent", "labeled", 7, None),
        ("ambiguous", "multi", None, None),
        ("lab3_click", "labeled", None, (27, 22, 12)),
    ]
    entries = []
    for i, (lesion_id, scan, label, click) in enumerate(rows):
        image_path, mask_path = scans[scan]
        entry = {"lesion_id": lesion_id, "patient_id": "p%d" % (i % 3),
                 "dataset": "ab"[i % 2], "location": ["liver", "", "lung"][i % 3],
                 "image_path": image_path, "mask_path": mask_path}
        if label is not None:
            entry["component_label"] = label
        if click is not None:
            entry["click"] = list(click)
        entries.append(entry)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    return manifest


def _digest(directory, stdout, tmp_path):
    token = str(tmp_path).encode()
    h = hashlib.sha256(stdout.replace(str(tmp_path), "<tmp>").encode())
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".gz"):
            data = gzip.decompress(data)
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data.replace(token, b"<tmp>")).digest())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run_bytes")
    manifest = _fixture(tmp_path)
    found = {}
    for name, argv in COMMANDS.items():
        out = tmp_path / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([*argv, "--manifest", str(manifest), *VOI, "--out", str(out)]) == 0
        found[name] = _digest(out, stdout.getvalue(), tmp_path)
    return found


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_are_pinned(digests, name):
    assert digests[name] == EXPECTED[name]


RUNS = {  # run directories the read-side commands read
    "eval": ["eval", *FLOOD],
    "eval_grow": ["eval", *GROW],
    "rob2": ["robustness", *GROW, "--k", "2", "--seed", "3"],
    "rob2_seed4": ["robustness", *GROW, "--k", "2", "--seed", "4"],
}

READ_COMMANDS = {  # "{name}" is a run directory, a manifest, or this command's --out
    "report-eval-csv": ["report", "--run", "{eval}", "--format", "csv",
                        "--out", "{out}/agg.csv"],
    "report-eval-json": ["report", "--run", "{eval}", "--format", "json",
                         "--out", "{out}/agg.json"],
    "report-rob2-csv": ["report", "--run", "{rob2}", "--format", "csv",
                        "--out", "{out}/agg.csv"],
    "report-rob2-json": ["report", "--run", "{rob2}", "--by", "location", "--format", "json",
                         "--out", "{out}/agg.json"],
    "compare-dice": ["compare", "--run-a", "{eval}", "--run-b", "{eval_grow}",
                     "--out", "{out}/compare.json"],
    "compare-dice-m": ["compare", "--run-a", "{eval}", "--run-b", "{eval_grow}",
                       "--bonferroni-m", "5", "--alpha", "0.2", "--out", "{out}/compare.json"],
    "compare-seeds-m": ["compare", "--run-a", "{rob2}", "--run-b", "{rob2_seed4}",
                        "--bonferroni-m", "3", "--alpha", "0.5", "--out", "{out}/compare.json"],
    "split-json": ["split", "--manifest", "{json}",
                   "--out-train", "{out}/train.json", "--out-test", "{out}/test.json"],
    "split-csv": ["split", "--manifest", "{csv}", "--test-fraction", "0.5", "--seed", "2",
                  "--out-train", "{out}/train.json", "--out-test", "{out}/test.json"],
    "validate-json": ["validate", "--manifest", "{json}"],
    "validate-csv": ["validate", "--manifest", "{csv}"],
}

READ_EXPECTED = {
    "report-eval-csv": "b4e91362dd5f8749",
    "report-eval-json": "d4c0a5601f723eff",
    "report-rob2-csv": "c9deaa86f353ed2b",
    "report-rob2-json": "ab8c054a20af3745",
    "compare-dice": "53c9c3978dae72b4",
    "compare-dice-m": "0c44f5ef351206ae",
    "compare-seeds-m": "4a51f4c061863721",
    "split-json": "bbcd5ac76f9c7131",
    "split-csv": "a7bfe8a3e99e65a5",
    "validate-json": "acf83c57f5045514",
    "validate-csv": "acf83c57f5045514",
}


def _csv_copy(manifest):
    """The JSON manifest as CSV, clicks split into click_x/y/z columns."""
    columns = ["lesion_id", "patient_id", "dataset", "location", "image_path", "mask_path",
               "component_label", "click_x", "click_y", "click_z"]
    path = manifest.with_suffix(".csv")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, columns, lineterminator="\n")
        writer.writeheader()
        for entry in json.loads(manifest.read_text())["entries"]:
            click = entry.pop("click", None) or ["", "", ""]
            writer.writerow(dict(entry, click_x=click[0], click_y=click[1], click_z=click[2]))
    return path


@pytest.fixture(scope="module")
def read_digests(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("read_bytes")
    manifest = _fixture(tmp_path)
    paths = {"json": str(manifest), "csv": str(_csv_copy(manifest))}
    for name, argv in RUNS.items():
        paths[name] = str(tmp_path / name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--manifest", str(manifest), *VOI, "--workers", "1",
                         "--out", paths[name]]) == 0
    found = {}
    for name, argv in READ_COMMANDS.items():
        out = tmp_path / name
        out.mkdir()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([a.format(out=out, **paths) for a in argv]) == 0
        found[name] = _digest(out, stdout.getvalue(), tmp_path)
    return found


@pytest.mark.parametrize("name", sorted(READ_COMMANDS))
def test_read_command_bytes_are_pinned(read_digests, name):
    assert read_digests[name] == READ_EXPECTED[name]
