import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ladder():
    spec = importlib.util.spec_from_file_location("bench_ladder", ROOT / "tools" / "bench_ladder.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_source_sha256_identifies_a_tree_without_git(tmp_path):
    # a copy of src/ outside any repository has no commit but the source
    # digest of the tree it was copied from; files other than *.py do not
    # count, and one changed byte or file name changes the digest
    ladder = _ladder()
    pkg = tmp_path / "src" / "avgrank"
    shutil.copytree(ROOT / "src" / "avgrank", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    assert ladder.git_commit(tmp_path) is None
    want = ladder.source_sha256(ROOT)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"\0")
    assert ladder.source_sha256(tmp_path) == want
    cli = pkg / "cli.py"
    text = cli.read_bytes()
    cli.write_bytes(text + b"\n")
    assert ladder.source_sha256(tmp_path) != want
    cli.write_bytes(text)
    cli.rename(pkg / "cli2.py")
    assert ladder.source_sha256(tmp_path) != want
