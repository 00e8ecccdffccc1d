"""Pin the bytes of `eval`, `robustness` and `extract` outputs.

One fixture, built in tmp_path, holds every kind of manifest entry the
loader resolves, interleaved across scans: clicked lesions on a binary
mask (an edge lesion, a U-shaped lesion whose bend lies outside its VOI,
a pair touching only diagonally, noise voxels), a labeled mask with
touching labels addressed by component_label and by click, float32 and
int16 (negative label) masks addressed by component_label, and failing
entries sharing scans with good ones. Each command's output directory
and stdout are digested with `.nii.gz` files decompressed and tmp_path
replaced by a fixed token, and compared with recorded digests.
"""

import contextlib
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
