import codecs
import errno
import gzip
import json
import os
from pathlib import Path

import numpy as np
import pytest

from adapters import (CLICK_DOT, ECHO_IMAGE_AND_FAIL, NOT_NIFTI_MASK, THREAD_ENV, WRITES_NO_MASK,
                      write_adapter)
from oracles import flood_fill_components
from synth import LESION_HU, make_case, make_manifest
from ulsforge import (
    GrowParams,
    VOICfg,
    Volume3D,
    cli,
    generate_shifted_samples,
    load_manifest,
    pipeline,
    read_records_csv,
    read_report,
    read_volume,
    write_volume,
)
from ulsforge._rng import derive_u64, shuffle_key
from ulsforge.cli import build_parser, main
from ulsforge.volume import _HEADER_DTYPE

GROW_ARGS = ["--segmenter", "builtin", "--hu-window", "50:150"]


def test_validate_ok(tmp_path, capsys):
    path = make_manifest(tmp_path, 3)
    assert main(["validate", "--manifest", str(path)]) == 0
    out = capsys.readouterr().out
    assert "3 entries" in out


def test_validate_missing_file(tmp_path, capsys):
    path = make_manifest(tmp_path, 1)
    doc = json.loads(path.read_text())
    doc["entries"][0]["mask_path"] = "nope.nii.gz"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--manifest", str(path)]) == 1
    assert "nope.nii.gz" in capsys.readouterr().err


def test_split_writes_disjoint_manifests(tmp_path):
    path = make_manifest(tmp_path, 10, lesions_per_patient=2)
    out_train = tmp_path / "train.json"
    out_test = tmp_path / "test.json"
    rc = main(["split", "--manifest", str(path), "--test-fraction", "0.2",
               "--seed", "5", "--out-train", str(out_train),
               "--out-test", str(out_test)])
    assert rc == 0
    train = load_manifest(out_train)
    test = load_manifest(out_test)
    assert len(test.patients()) == 1  # ceil(0.2 * 5)
    assert not set(train.patients()) & set(test.patients())
    assert len(train.entries) + len(test.entries) == 10


def test_extract_writes_pairs_and_index(tmp_path):
    path = make_manifest(tmp_path, 2)
    out = tmp_path / "vois"
    rc = main(["extract", "--manifest", str(path), "--voi", "16x16x8",
               "--out", str(out)])
    assert rc == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index["samples"]) == 2
    first = index["samples"][0]
    img = read_volume(out / first["image"])
    msk = read_volume(out / first["mask"])
    assert img.dims == (16, 16, 8)
    assert msk.dims == (16, 16, 8)
    assert (out / "les000_img.nii.gz").exists()
    assert (out / "les000_mask.nii.gz").exists()
    assert first["offset"] is not None and first["click"] is not None


def test_extract_with_augmentation(tmp_path):
    path = make_manifest(tmp_path, 2)
    out = tmp_path / "vois"
    rc = main(["extract", "--manifest", str(path), "--voi", "16x16x8",
               "--out", str(out), "--augment", "2", "--seed", "9"])
    assert rc == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index["samples"]) == 6  # 3 per lesion
    kinds = [s["sample"] for s in index["samples"] if s["lesion_id"] == "les000"]
    assert kinds == ["normal", "aug1", "aug2"]
    assert (out / "les000_aug1_img.nii.gz").exists()
    plans = {p["lesion_id"]: p for p in index["plans"]}
    assert set(plans) == {"les000", "les001"}
    assert plans["les000"]["seed_root"] == 9
    assert len(plans["les000"]["augmented"]) == 2
    # the recorded plan matches the clicks the samples were cropped at
    sample_clicks = [s["click"] for s in index["samples"] if s["lesion_id"] == "les000"]
    assert sample_clicks == [plans["les000"]["normal"], *plans["les000"]["augmented"]]


def test_extract_writes_only_inside_out_and_each_file_once(tmp_path, monkeypatch):
    cases = tmp_path / "cases"
    path = make_manifest(cases, 4)
    doc = json.loads(path.read_text())
    (tmp_path / "abs").mkdir()
    ids = ["../escaped", str(tmp_path / "abs" / "x"), "a", "a_aug1"]
    for entry, lesion_id in zip(doc["entries"], ids):
        entry["lesion_id"] = lesion_id
    path.write_text(json.dumps(doc))
    written = []
    real_write = cli.write_volume
    monkeypatch.setattr(cli, "write_volume",
                        lambda vol, p: (written.append(Path(p)), real_write(vol, p)))
    before = set(tmp_path.rglob("*"))
    out = tmp_path / "run" / "vois"
    assert main(["extract", "--manifest", str(path), "--voi", "16x16x8",
                 "--out", str(out), "--augment", "1"]) == 0
    assert all(p.parent == out for p in set(tmp_path.rglob("*")) - before - {out, out.parent})
    assert sorted(p.name for p in written) == sorted({p.name for p in written})
    assert sorted(p.name for p in out.glob("*.nii.gz")) == [
        "a_aug1_img.nii.gz", "a_aug1_mask.nii.gz", "a_img.nii.gz", "a_mask.nii.gz"]
    index = json.loads((out / "index.json").read_text())
    errors = {r["lesion_id"]: r["error"] for r in index["samples"] if "error" in r}
    assert set(errors) == {"../escaped", ids[1], "a_aug1"}
    assert "not a plain file name" in errors["../escaped"]
    assert "would overwrite" in errors["a_aug1"]
    assert [p["lesion_id"] for p in index["plans"]] == ["a"]


@pytest.mark.parametrize("message, error", [("", "MemoryError"),
                                            ("Unable to allocate 2.00 GiB", "Unable to allocate 2.00 GiB")])
def test_an_extract_lesion_that_runs_out_of_memory_fails_alone(tmp_path, monkeypatch, message, error):
    """A MemoryError while writing one lesion's VOIs is that lesion's error
    row; the command exits 0 and every other lesion's rows and files are an
    unpatched run's."""
    path = make_manifest(tmp_path / "cases", 3)
    argv = ["extract", "--manifest", str(path), "--voi", "16x16x8", "--augment", "1", "--seed", "2"]
    plain, failed = tmp_path / "plain", tmp_path / "failed"
    assert main([*argv, "--out", str(plain)]) == 0
    real_write = cli.write_volume

    def write_or_fail(vol, p):
        if Path(p).name.startswith("les001"):
            raise MemoryError(message)
        real_write(vol, p)

    monkeypatch.setattr(cli, "write_volume", write_or_fail)
    assert main([*argv, "--out", str(failed)]) == 0
    want, got = (json.loads((d / "index.json").read_text()) for d in (plain, failed))
    assert [r for r in got["samples"] if r["lesion_id"] == "les001"] == [
        {"lesion_id": "les001", "error": error}]
    assert [r for r in got["samples"] if r["lesion_id"] != "les001"] == [
        r for r in want["samples"] if r["lesion_id"] != "les001"]
    kept = sorted(p.name for p in plain.glob("*.nii.gz") if not p.name.startswith("les001"))
    assert sorted(p.name for p in failed.glob("*.nii.gz")) == kept and kept
    assert all((failed / name).read_bytes() == (plain / name).read_bytes() for name in kept)


def test_an_extract_lesion_whose_write_fails_leaves_no_file_and_one_error_row(tmp_path, monkeypatch):
    """A full disk on a lesion's second pair: the index keeps only that
    lesion's error row and no plan, and its first pair's files are gone."""
    path = make_manifest(tmp_path / "cases", 3)
    argv = ["extract", "--manifest", str(path), "--voi", "16x16x8", "--augment", "1", "--seed", "2"]
    plain, failed = tmp_path / "plain", tmp_path / "failed"
    assert main([*argv, "--out", str(plain)]) == 0
    real_write = cli.write_volume

    def write_or_fail(vol, p):
        if Path(p).name == "les001_aug1_img.nii.gz":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_write(vol, p)

    monkeypatch.setattr(cli, "write_volume", write_or_fail)
    assert main([*argv, "--out", str(failed)]) == 0
    want, got = (json.loads((d / "index.json").read_text()) for d in (plain, failed))
    assert [r for r in got["samples"] if r["lesion_id"] == "les001"] == [
        {"lesion_id": "les001", "error": "[Errno 28] %s" % os.strerror(errno.ENOSPC)}]
    assert [r for r in got["samples"] if r["lesion_id"] != "les001"] == [
        r for r in want["samples"] if r["lesion_id"] != "les001"]
    assert got["plans"] == [p for p in want["plans"] if p["lesion_id"] != "les001"]
    kept = sorted(p.name for p in plain.glob("*.nii.gz") if not p.name.startswith("les001"))
    assert sorted(p.name for p in failed.glob("*")) == sorted(kept + ["index.json"]) and kept
    assert all((failed / name).read_bytes() == (plain / name).read_bytes() for name in kept)


def extract_manifest(tmp_path, cases, entries) -> Path:
    """A manifest of ``entries``, each (lesion id, case name, click or None),
    over ``cases``, each case's name and its lesions' centers."""
    for case, centers in cases.items():
        make_case(tmp_path, case, shape=(24, 24, 16), centers=centers, radius=2)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [
        {"lesion_id": lesion_id, "patient_id": "p", "image_path": "%s_image.nii.gz" % case,
         "mask_path": "%s_mask.nii.gz" % case, **({"click": click} if click else {})}
        for lesion_id, case, click in entries]}))
    return path


def test_extract_writes_the_same_directory_at_every_worker_count(tmp_path, monkeypatch):
    """Two lesions of one scan, one clicked on background, and an ``a``/``a_aug1``
    collision: the files and the index at 2 and 3 workers are those at 1."""
    cases = {"one": [(6, 6, 5), (16, 16, 10)], "two": [(12, 12, 8)], "three": [(8, 12, 8)]}
    path = extract_manifest(tmp_path / "cases", cases, [
        ("b", "one", [6, 6, 5]), ("a", "one", [16, 16, 10]), ("c", "two", None),
        ("a_aug1", "three", None), ("miss", "two", [2, 2, 2])])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # so 3 workers are not capped on 2 CPUs
    written = []
    for n in ("1", "2", "3"):
        monkeypatch.setenv("ULSFORGE_WORKERS", n)
        assert main(["extract", "--manifest", str(path), "--voi", "16x16x8", "--augment", "2",
                     "--seed", "3", "--out", str(tmp_path / n)]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / n).iterdir()})
    serial = written[0]
    assert written[1] == serial and written[2] == serial
    index = json.loads(serial["index.json"])
    assert [r["lesion_id"] for r in index["samples"]] == ["b"] * 3 + ["a"] * 3 + ["c"] * 3 + [
        "a_aug1", "miss"]
    assert "would overwrite the files of lesion 'a'" in index["samples"][9]["error"]
    assert "is background" in index["samples"][10]["error"]
    assert len(serial) == 1 + 2 * 9


def test_an_earlier_lesion_that_fails_still_owns_its_file_stems(tmp_path):
    """``a`` comes first in the manifest, so ``a_aug1``'s files are its own even
    though its mask is empty: lesion ``a_aug1`` writes nothing. A lesion whose
    id is not a plain file name owns no stem, so ``._aug1`` is written."""
    cases = tmp_path / "cases"
    path = extract_manifest(cases, {"empty": [], "full": [(12, 12, 8)]}, [
        ("a", "empty", None), ("a_aug1", "full", None), (".", "full", None),
        ("._aug1", "full", None)])
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(path), "--voi", "16x16x8", "--augment", "1",
                 "--out", str(out)]) == 0
    errors = {r["lesion_id"]: r["error"]
              for r in json.loads((out / "index.json").read_text())["samples"] if "error" in r}
    assert set(errors) == {"a", "a_aug1", "."}
    assert "is empty" in errors["a"]
    assert errors["a_aug1"] == "lesion 'a_aug1' would overwrite the files of lesion 'a'"
    assert "not a plain file name" in errors["."]
    assert sorted(p.name for p in out.iterdir()) == [
        "._aug1_aug1_img.nii.gz", "._aug1_aug1_mask.nii.gz", "._aug1_img.nii.gz",
        "._aug1_mask.nii.gz", "index.json"]


@pytest.mark.parametrize("argv", [
    ["robustness", "--segmenter", "builtin", "--out", "{out}", "--seed", "-1"],
    ["robustness", "--segmenter", "builtin", "--out", "{out}", "--seed", str(2 ** 64)],
    ["split", "--out-train", "{out}", "--out-test", "{out}", "--seed", "-1"],
    ["extract", "--out", "{out}", "--augment", "1", "--seed", "-1"],
    ["extract", "--out", "{out}", "--augment", "1", "--seed", str(2 ** 64)],
])
def test_a_seed_outside_its_range_exits_before_reading(tmp_path, monkeypatch, capsys, argv):
    path = make_manifest(tmp_path, 1)
    for name in ("load_manifest", "read_volume", "_NiftiFile"):
        monkeypatch.setattr(pipeline, name, lambda p: pytest.fail("read %s" % p))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([a.format(out=out) for a in argv] + ["--manifest", str(path)])
    assert exc.value.code == 2
    assert "seed in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_a_seed_outside_its_range_is_a_value_error_in_the_library(tmp_path):
    manifest = load_manifest(make_manifest(tmp_path, 2))
    for seed in (-1, 2 ** 64):
        for call in (lambda: pipeline.split_patients(manifest, 0.5, seed=seed),
                     lambda: derive_u64(seed, "click:a", 0), lambda: shuffle_key(seed, "split:a")):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                call()
    assert derive_u64(2 ** 64 - 1, "click:a", 0) != derive_u64(0, "click:a", 0)
    assert pipeline.split_patients(manifest, 0.5, seed=2 ** 64 - 1)


@pytest.mark.parametrize("argv", [
    ["robustness", "--segmenter", "builtin", "--k", "-1"],
    ["extract", "--augment", "-2"],
    ["extract", "--augment", "two"],
])
def test_negative_counts_exit_before_reading(tmp_path, monkeypatch, capsys, argv):
    path = make_manifest(tmp_path, 1)
    for name in ("read_volume", "_NiftiFile"):  # a scan load opens its files through _NiftiFile
        monkeypatch.setattr(pipeline, name, lambda p: pytest.fail("read %s" % p))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--manifest", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--segmenter", "builtin", "--workers", "-4"],
    ["robustness", "--segmenter", "builtin", "--workers", "0"],
    ["eval", "--segmenter", "builtin", "--voi", "7x8x8"],
    ["extract", "--voi", "16x16x0"],
    ["compare", "--bonferroni-m", "0"],
    ["compare", "--bonferroni-m", "-3"],
    ["eval", "--segmenter", "builtin", "--hu-window", "nan:nan"],
    ["eval", "--segmenter", "builtin", "--hu-window", "0:nan"],
    ["eval", "--segmenter", "builtin", "--hu-window", "5"],
    ["robustness", "--segmenter", "builtin", "--hu-window", "200:100"],
    ["eval", "--segmenter", "exec:cp {image} {x} {y} {z} {output}", "--timeout", "nan"],
    ["eval", "--segmenter", "exec:cp {image} {x} {y} {z} {output}", "--timeout", "0"],
    ["robustness", "--segmenter", "builtin", "--timeout", "-1"],
    ["compare", "--alpha", "7"],
    ["compare", "--alpha", "nan"],
    ["compare", "--alpha", "0"],
    ["compare", "--alpha", "1"],
    ["eval", "--segmenter", "bogus"],
    ["robustness", "--segmenter", "nonsense"],
    ["eval", "--segmenter", "exec:cmd {image}"],
    ["eval", "--segmenter", "exec:cmd {image} {x} {y} {output}"],  # {z} missing
    ["robustness", "--segmenter", "exec:cmd '{image} {x} {y} {z} {output}"],  # unclosed quote
    ["eval", "--segmenter", "builtin", "--timeout", "abc"],
    ["compare", "--alpha", "abc"],
])
def test_bad_numeric_options_exit_before_reading(tmp_path, monkeypatch, capsys, argv):
    path = make_manifest(tmp_path, 1)
    for name in ("load_manifest", "read_volume", "_NiftiFile", "read_records_csv"):
        monkeypatch.setattr(pipeline, name, lambda p, name=name: pytest.fail("%s %s" % (name, p)))
    inputs = (["--run-a", str(tmp_path), "--run-b", str(tmp_path)] if argv[0] == "compare"
              else ["--manifest", str(path)])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, *inputs, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument %s" % argv[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " 2", ""])
@pytest.mark.parametrize("command", [["eval", *GROW_ARGS], ["robustness", "--k", "1", *GROW_ARGS],
                                     ["extract"]])
def test_a_bad_workers_variable_exits_before_reading(tmp_path, monkeypatch, capsys, command, value):
    path = make_manifest(tmp_path, 1)
    monkeypatch.setenv("ULSFORGE_WORKERS", value)
    for name in ("load_manifest", "read_volume", "_NiftiFile"):
        monkeypatch.setattr(pipeline, name, lambda p, name=name: pytest.fail("%s %s" % (name, p)))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--manifest", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert "ULSFORGE_WORKERS must be a positive integer, got %r" % value in capsys.readouterr().err
    assert not out.exists()


def test_extract_takes_the_options_it_always_took():
    sub = build_parser()._subparsers._group_actions[0].choices["extract"]
    assert sorted(a.dest for a in sub._actions) == [
        "augment", "connectivity", "help", "manifest", "out", "seed", "voi"]


@pytest.mark.parametrize("fraction", ["nan", "0", "1", "1.5", "abc"])
def test_bad_test_fraction_exits_before_reading(tmp_path, monkeypatch, capsys, fraction):
    path = make_manifest(tmp_path, 1)
    monkeypatch.setattr(pipeline, "load_manifest", lambda p: pytest.fail("load_manifest %s" % p))
    train, test = tmp_path / "train.json", tmp_path / "test.json"
    with pytest.raises(SystemExit) as exc:
        main(["split", "--manifest", str(path), "--test-fraction", fraction,
              "--out-train", str(train), "--out-test", str(test)])
    assert exc.value.code == 2
    assert "argument --test-fraction" in capsys.readouterr().err
    assert not train.exists() and not test.exists()


def test_option_ranges_include_infinite_bounds():
    args = build_parser().parse_args(["eval", "--manifest", "m.json", "--out", "run",
                                      "--segmenter", "builtin", "--hu-window=-inf:inf",
                                      "--timeout", "inf"])
    assert args.hu_window == GrowParams(hu_window=(float("-inf"), float("inf")))
    assert args.timeout == float("inf")
    args = build_parser().parse_args(["compare", "--run-a", "a", "--run-b", "b",
                                      "--alpha", "0.05", "--out", "c.json"])
    assert args.alpha == 0.05


@pytest.mark.parametrize("command", [["eval"], ["robustness", "--k", "1"]])
def test_empty_manifest_writes_no_run_directory(tmp_path, capsys, command):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": []}))
    out = tmp_path / "run"
    rc = main([*command, "--segmenter", "builtin", "--manifest", str(path), "--out", str(out)])
    assert rc == 1
    assert "no records to aggregate" in capsys.readouterr().err
    assert not out.exists()


def test_eval_and_report(tmp_path, capsys):
    path = make_manifest(tmp_path, 3)
    run_dir = tmp_path / "run"
    rc = main(["eval", "--manifest", str(path), "--voi", "32x32x16",
               "--out", str(run_dir), *GROW_ARGS])
    assert rc == 0
    records = read_records_csv(run_dir / "records.csv")
    assert len(records) == 3
    assert all(r.dice == 1.0 for r in records)
    report = read_report(run_dir / "report.json")
    assert report.metadata["voi_size"] == [32, 32, 16]

    out_csv = tmp_path / "agg.csv"
    rc = main(["report", "--run", str(run_dir), "--by", "location",
               "--format", "csv", "--out", str(out_csv)])
    assert rc == 0
    assert out_csv.exists()
    out_json = tmp_path / "agg.json"
    assert main(["report", "--run", str(run_dir), "--format", "json",
                 "--out", str(out_json)]) == 0
    assert read_report(out_json).groups == read_report(run_dir / "report.json").groups


def test_robustness_and_compare(tmp_path, capsys):
    path = make_manifest(tmp_path, 4)
    run_a = tmp_path / "runA"
    run_b = tmp_path / "runB"
    for run_dir, seed in ((run_a, "1"), (run_b, "1")):
        rc = main(["robustness", "--manifest", str(path), "--voi", "32x32x16",
                   "--seed", seed, "--k", "2", "--out", str(run_dir), *GROW_ARGS])
        assert rc == 0
    records = read_records_csv(run_a / "records.csv")
    assert all(r.robustness == 1.0 for r in records)

    out = tmp_path / "cmp.json"
    rc = main(["compare", "--run-a", str(run_a), "--run-b", str(run_b),
               "--alpha", "0.0001", "--bonferroni-m", "AUTO", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["alpha"] == 0.0001
    assert all(c["degenerate"] for c in doc["comparisons"])  # identical runs
    assert "degenerate" in capsys.readouterr().out


def test_default_voi_size(tmp_path):
    from ulsforge.cli import build_parser
    args = build_parser().parse_args(
        ["eval", "--manifest", "m", "--segmenter", "builtin", "--out", "o"])
    assert args.voi == (128, 128, 64)


@pytest.mark.parametrize("timeout", ["inf", "1e9"])
def test_external_timeout_beyond_the_os_wait_scores(tmp_path, timeout):
    path = make_manifest(tmp_path, 1)
    command = write_adapter(tmp_path, CLICK_DOT)
    run_dir = tmp_path / "run"
    rc = main(["eval", "--manifest", str(path), "--voi", "32x32x16", "--out", str(run_dir),
               "--segmenter", "exec:" + command, "--timeout", timeout])
    assert rc == 0
    [record] = read_records_csv(run_dir / "records.csv")
    assert not record.flags and not record.error
    assert 0 < record.dice < 1  # one voxel of the lesion


@pytest.mark.parametrize("body, named", [
    (ECHO_IMAGE_AND_FAIL, "{image} 16 16 8 {output} stderr: cannot segment {image}"),
    (WRITES_NO_MASK, "segmenter exited 0 but wrote no mask at {output}"),
    (NOT_NIFTI_MASK, "{output}: file shorter than a NIfTI-1 header"),
], ids=["exits-3", "no-mask", "not-nifti"])
def test_a_failing_external_model_writes_the_same_records_on_every_run(tmp_path, body, named):
    path = make_manifest(tmp_path, 2)
    segmenter = "exec:" + write_adapter(tmp_path, body)
    written = set()
    for i, workers in enumerate(["1", "1", "2", "2"]):
        run_dir = tmp_path / ("run%d" % i)
        assert main(["eval", "--manifest", str(path), "--voi", "32x32x16", "--out", str(run_dir),
                     "--segmenter", segmenter, "--workers", workers]) == 0
        written.add((run_dir / "records.csv").read_bytes())
    assert len(written) == 1  # no temp directory reaches a record
    for record in read_records_csv(run_dir / "records.csv"):
        assert named in record.error and "ulsforge-seg-" not in record.error, record.error


@pytest.mark.parametrize("user_set, model_reads", [
    ({}, "OMP_NUM_THREADS='1' OPENBLAS_NUM_THREADS='1' MKL_NUM_THREADS='1'"),
    ({"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": ""},
     "OMP_NUM_THREADS='3' OPENBLAS_NUM_THREADS='' MKL_NUM_THREADS='1'"),
], ids=["unset", "user-set"])
def test_an_exec_model_gets_one_thread_per_pool_unless_the_user_set_a_count(tmp_path, monkeypatch,
                                                                            user_set, model_reads):
    """The model sees ulsforge's environment, with each thread count the user
    left unset at 1, at every worker count; ulsforge's own is left as it was."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in {**user_set, "ULSFORGE_TEST_SENTINEL": "kept as is"}.items():
        monkeypatch.setenv(name, value)
    before = dict(os.environ)
    path = make_manifest(tmp_path, 2)
    segmenter = "exec:" + write_adapter(tmp_path, THREAD_ENV)
    written = set()
    for workers in ("1", "2"):
        run_dir = tmp_path / ("run" + workers)
        assert main(["eval", "--manifest", str(path), "--voi", "32x32x16", "--out", str(run_dir),
                     "--segmenter", segmenter, "--workers", workers]) == 0
        written.add((run_dir / "records.csv").read_bytes())
    assert len(written) == 1
    assert dict(os.environ) == before
    records = read_records_csv(run_dir / "records.csv")
    assert len(records) == 2
    for record in records:
        assert record.error.endswith("stderr: %s ULSFORGE_TEST_SENTINEL='kept as is'" % model_reads), \
            record.error


def test_cli_reports_domain_errors(tmp_path, capsys):
    rc = main(["validate", "--manifest", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _read_back(command, run, out):
    """The argv of ``compare`` (a run against itself) or ``report`` over ``run``."""
    if command == "compare":
        return ["compare", "--run-a", str(run), "--run-b", str(run), "--out", str(out)]
    return ["report", "--run", str(run), "--format", "json", "--out", str(out)]


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("records, named", [
    ("lesion_id,model_id,dataset,dice\nl1,m,d,0.5\n", ["records.csv", "location"]),
    ("", ["records.csv", "lesion_id, model_id, dataset, location, dice"]),
    (",".join(pipeline.CSV_COLUMN_ORDER) + "\nl1,m\n", []),
], ids=["no-location", "empty", "short-row"])
def test_a_records_csv_it_cannot_read_is_an_error_not_a_traceback(tmp_path, capsys, command,
                                                                  records, named):
    run = tmp_path / "run"
    run.mkdir()
    (run / "records.csv").write_text(records)
    assert main(_read_back(command, run, tmp_path / "out.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(word in err for word in named), err


def test_a_report_json_without_its_groups_is_an_error_not_a_traceback(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "records.csv").write_text(",".join(pipeline.CSV_COLUMN_ORDER) + "\nl1,m,d,liver,0.5,,,,\n")
    (run / "report.json").write_text(json.dumps({"metadata": {}, "comparisons": [], "records": []}))
    assert main(_read_back("report", run, tmp_path / "out.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report.json" in err and "groups" in err, err


@pytest.mark.parametrize("entry, named", [
    ({"groups": [{"model_id": "m", "n": 1}]}, "KeyError: 'location'"),
    ({"comparisons": [{"n_pairs": 2, "t_stat": None, "df": 1, "p_two_tailed": None,
                       "p_adjusted": None, "mystery": 1}]}, "TypeError"),
    ({"summary": ["ab"]}, "ValueError"),
    ({"metadata": 5}, "metadata is not a JSON object"),
    ({"metadata": [1, 2]}, "metadata is not a JSON object"),
    ({"metadata": "ab"}, "metadata is not a JSON object"),
], ids=["group-without-location", "comparison-with-unknown-key", "summary-entry-not-an-object",
        "metadata-a-number", "metadata-a-list", "metadata-a-string"])
def test_a_report_json_with_a_malformed_entry_is_an_error_not_a_traceback(tmp_path, capsys, entry,
                                                                          named):
    run = tmp_path / "run"
    run.mkdir()
    (run / "records.csv").write_text(",".join(pipeline.CSV_COLUMN_ORDER) + "\nl1,m,d,liver,0.5,,,,\n")
    doc = dict({"metadata": {}, "groups": [], "comparisons": [], "records": []}, **entry)
    (run / "report.json").write_text(json.dumps(doc))
    assert main(_read_back("report", run, tmp_path / "out.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report.json" in err and named in err, err


def test_a_nan_score_is_an_error_not_p_0(tmp_path, capsys):
    header = ",".join(pipeline.CSV_COLUMN_ORDER)
    for name, cells in (("a", ["0.%d" % (50 + i) for i in range(16)]),
                        ("b", ["0.%d" % (60 + 2 * i) for i in range(15)] + ["nan"])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "records.csv").write_text(
            "\n".join([header] + ["l%02d,m,d,liver,%s,,,," % (i, c) for i, c in enumerate(cells)]) + "\n")
    rc = main(["compare", "--run-a", str(tmp_path / "a"), "--run-b", str(tmp_path / "b"),
               "--out", str(tmp_path / "cmp.json")])
    out, err = capsys.readouterr()
    assert rc == 1 and "p=" not in out
    assert err.startswith("error: ") and "1 of 16 pairs hold a NaN or infinite value" in err, err


def test_compare_refuses_a_lesion_whose_dataset_differs_between_the_runs(tmp_path, capsys):
    header = ",".join(pipeline.CSV_COLUMN_ORDER)
    for name, datasets in (("a", "AABB"), ("b", "BBBB")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "records.csv").write_text("\n".join(
            [header] + ["l%d,m,%s,liver,0.%d,,,," % (i, d, 5 + i) for i, d in enumerate(datasets)]) + "\n")
    for (run_a, run_b), (in_a, in_b) in ((("a", "b"), ("A", "B")), (("b", "a"), ("B", "A"))):
        out = tmp_path / ("%s%s.json" % (run_a, run_b))
        assert main(["compare", "--run-a", str(tmp_path / run_a), "--run-b", str(tmp_path / run_b),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "l0 is in %r in a, %r in b" % (in_a, in_b) in err, err
        assert not out.exists()


def test_a_report_over_a_record_at_the_overall_location_is_an_error(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "records.csv").write_text(",".join(pipeline.CSV_COLUMN_ORDER) + "\nl1,m,d,(all),0.5,,,,\n")
    out = tmp_path / "agg.json"
    assert main(["report", "--run", str(run), "--format", "json", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'(all)' is reserved" in err, err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_over_a_non_finite_score_is_an_error_not_a_nan(tmp_path, capsys, fmt):
    run = tmp_path / "run"
    run.mkdir()
    (run / "records.csv").write_text(",".join(pipeline.CSV_COLUMN_ORDER) + "\nl1,m,d,liver,0.5,,,,\n"
                                     "l2,m,d,liver,nan,,,,\nl3,m,d,lung,0.7,inf,,,\n")
    out = tmp_path / ("agg." + fmt)
    assert main(["report", "--run", str(run), "--format", fmt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2 of 3 records hold a NaN or infinite" in err, err
    assert not out.exists()


def test_run_files_with_a_byte_order_mark_read_as_without_one(tmp_path):
    path = make_manifest(tmp_path, 3)
    run = tmp_path / "run"
    assert main(["eval", "--manifest", str(path), "--voi", "32x32x16", "--out", str(run),
                 *GROW_ARGS]) == 0
    for command in ("compare", "report"):
        assert main(_read_back(command, run, tmp_path / ("%s.json" % command))) == 0
    for name in ("records.csv", "report.json"):
        (run / name).write_bytes(codecs.BOM_UTF8 + (run / name).read_bytes())
    for command in ("compare", "report"):
        assert main(_read_back(command, run, tmp_path / ("%s_bom.json" % command))) == 0
    assert (tmp_path / "report_bom.json").read_bytes() == (tmp_path / "report.json").read_bytes()
    assert (tmp_path / "report_bom_records.csv").read_bytes() == \
        (tmp_path / "report_records.csv").read_bytes()
    cmp, cmp_bom = (json.loads((tmp_path / n).read_text()) for n in ("compare.json", "compare_bom.json"))
    assert cmp_bom["comparisons"] == cmp["comparisons"] != []


def test_extract_writes_isolated_masks(tmp_path):
    # at any click in either lesion, a 16x24x8 VOI holds both; they do not touch
    image_path, mask_path = make_case(tmp_path, "pair", centers=((24, 20, 16), (24, 28, 16)))
    entries = [{"lesion_id": name, "patient_id": "p", "image_path": image_path.name,
                "mask_path": mask_path.name, "click": [24, y, 16]}
               for name, y in (("near", 20), ("far", 28))]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": entries}))
    out = tmp_path / "vois"
    rc = main(["extract", "--manifest", str(path), "--voi", "16x24x8",
               "--out", str(out), "--augment", "2", "--seed", "4"])
    assert rc == 0
    masks = sorted(out.glob("*_mask.nii.gz"))
    assert len(masks) == 6
    for mask in masks:
        image = read_volume(str(mask).replace("_mask", "_img")).data
        assert flood_fill_components(image == LESION_HU, 26).max() == 2
        assert flood_fill_components(read_volume(mask).data, 26).max() == 1


@pytest.mark.parametrize("connectivity", [6, 26])
def test_extracted_pairs_are_the_shifted_samples_without_the_mask_header(tmp_path, connectivity):
    """extract writes generate_shifted_samples' pairs: crops of the lesion's
    whole-volume mask, which carry no header, even when the input files' do."""
    mask = np.zeros((32, 28, 16), dtype=np.uint8)
    mask[0:3, 0:4, 0:3] = 1  # on a corner: its VOIs hang off the volume
    mask[12:15, 10:13, 6:9] = 1  # two cubes touching only at a corner voxel
    mask[15:17, 13:15, 9:11] = 1
    mask[22:24, 4:26, 4:6] = mask[27:29, 4:26, 4:6] = mask[22:29, 24:26, 4:6] = 1  # a U
    plain = Volume3D(mask, spacing=(0.8, 0.8, 2.5))
    write_volume(plain, tmp_path / "plain.nii")
    header = bytearray(read_volume(tmp_path / "plain.nii").header_meta)
    fields = np.frombuffer(header, dtype=_HEADER_DTYPE)[0]
    fields["descrip"] = b"scanner export"
    fields["xyzt_units"] = 10  # mm and s
    header[254:256] = np.array(1, dtype="<i2").tobytes()  # sform_code
    header[280:296] = np.array([0.8, 0.0, 0.0, -12.5], dtype="<f4").tobytes()  # srow_x
    header = bytes(header)
    write_volume(Volume3D(mask, plain.spacing, header_meta=header), tmp_path / "m.nii.gz")
    write_volume(Volume3D(np.where(mask, 100, -1000).astype(np.int16), plain.spacing,
                          header_meta=header), tmp_path / "i.nii.gz")
    assert b"scanner export" in read_volume(tmp_path / "m.nii.gz").header_meta
    clicks = {"corner": [1, 1, 1], "cubes": [13, 11, 7], "u": [22, 5, 4]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [
        {"lesion_id": name, "patient_id": "p", "image_path": "i.nii.gz",
         "mask_path": "m.nii.gz", "click": click} for name, click in clicks.items()]}))
    out = tmp_path / "vois"
    assert main(["extract", "--manifest", str(path), "--voi", "12x12x8", "--augment", "2",
                 "--seed", "3", "--connectivity", str(connectivity), "--out", str(out)]) == 0
    expected = tmp_path / "expected.nii"
    for entry in load_manifest(path).entries:
        samples = generate_shifted_samples(*pipeline.resolve_lesion(entry, connectivity),
                                           VOICfg(size=(12, 12, 8)), 3, k=2,
                                           lesion_id=entry.lesion_id, connectivity=connectivity)
        stems = [entry.lesion_id, entry.lesion_id + "_aug1", entry.lesion_id + "_aug2"]
        for stem, sample in zip(stems, samples):
            for part, vol in (("img", sample.image), ("mask", sample.mask)):
                write_volume(vol, expected)
                written = gzip.decompress((out / ("%s_%s.nii.gz" % (stem, part))).read_bytes())
                assert written == expected.read_bytes(), (stem, part)
