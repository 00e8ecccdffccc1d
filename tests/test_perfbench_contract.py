"""The benchmark tracer wraps module attributes by name; they must all exist,
every import kept unused in the package must be one of them, and a traced run
must finish with the untraced run's records. Every private module-level name
of the package is read by the package itself, not by tests alone."""

import ast
import importlib
import json
from pathlib import Path

import pytest

from synth import make_case
from ulsforge.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ulsforge"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    pairs = [(owner, attr) for _, owners, *_ in tracer._targets() for owner, attr in owners]
    assert pairs
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr in pairs if not hasattr(owner, attr)]
    assert missing == []


def names_read(tree: ast.AST, attributes: bool = False) -> set[str]:
    """The names that the code of ``tree`` reads; with ``attributes``, also
    the names of the attributes it reads."""
    kinds = (ast.Name, ast.Attribute) if attributes else ast.Name
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}


def unused_kept_imports(path: Path) -> set[str]:
    """The names that an import marked ``# noqa: F401`` binds in the module at
    ``path`` and that the module's code never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = names_read(tree)
    kept = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            kept.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return kept - read


def test_every_unused_import_is_one_the_tracer_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    wrapped = {(getattr(owner, "__name__", None), attr)
               for _, owners, *_ in tracer._targets() for owner, attr in owners}
    kept = {("ulsforge." + path.stem, name)
            for path in sorted(PACKAGE.glob("*.py")) for name in unused_kept_imports(path)}
    assert kept  # the tracer-only imports: they go once the tracer no longer wraps names
    assert kept - wrapped == set()


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names that the module's top level defines or assigns."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_module_level_name_is_read_by_the_package():
    """A private helper that only tests call belongs with the tests."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(names_read(tree, attributes=True) for tree in trees.values()))
    defined = {(stem, name) for stem, tree in trees.items() for name in private_definitions(tree)}
    assert len(defined) > 10
    assert {(stem, name) for stem, name in defined if name not in read} == set()


@pytest.mark.parametrize("command, lesion_segments", [
    (["eval", "--workers", "2"], 1),
    (["robustness", "--k", "2", "--seed", "4", "--workers", "1"], 3),
])
def test_traced_run_writes_the_untraced_records(tmp_path, monkeypatch, command, lesion_segments):
    # lesions at a corner, a face and inside: windows hang off the volume and overlap
    centers = ((1, 2, 1), (30, 15, 10), (14, 30, 17))
    img, msk = make_case(tmp_path, "case", shape=(32, 32, 20), centers=centers)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"lesion_id": "l%d" % i, "patient_id": "p", "image_path": img.name,
         "mask_path": msk.name, "click": list(c)} for i, c in enumerate(centers)]}))
    argv = [*command, "--manifest", str(manifest), "--voi", "16x16x8",
            "--segmenter", "builtin", "--hu-window=-1100:200"]  # the padding grows too
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    for _, owners, *_ in tracer_module._targets():
        for owner, attr in owners:  # monkeypatch puts every wrapped attribute back
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = tracer_module.Tracer(workers=2)
    tracer.install()
    assert main([*argv, "--out", str(tmp_path / "traced")]) == 0

    traced = (tmp_path / "traced" / "records.csv").read_bytes()
    assert traced == (tmp_path / "plain" / "records.csv").read_bytes()
    assert len(traced.splitlines()) == 1 + len(centers)
    layers = tracer.layer_metrics(len(centers))
    assert layers["segmenter.segment_calls"] == lesion_segments * len(centers)
    assert layers["voi.isolate_s"] > 0
    # scores are counted in the VOIs: nothing is placed back or compared in a global frame
    assert layers["voi.place_back_calls"] == layers["metrics.dice_calls"] == 0
