"""Import graph of a CLI process and the lazy package API.

Each check runs in a fresh interpreter, because this test process has
loaded numpy and every avgrank module long before the test starts.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avgrank

ENGINE = ("avgrank.curves", "avgrank.families", "avgrank.twists")
# standard-library modules that no numpy-free process needs: dataclasses
# pulls in inspect (and ast, dis, tokenize); json is for JSON files only
UNUSED_STDLIB = ("dataclasses", "inspect", "json")
MODULES = (
    "arith", "cache", "cli", "curves", "families", "moments", "oracles", "twists", "verify", "weights",
)


def _run(code: str, **env_overrides):
    """Run code in a fresh interpreter and decode the value it passes to report()."""
    env = dict(os.environ, PYTHONPATH=str(Path(avgrank.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    prelude = (
        "import io, os, sys, contextlib\n"
        "def loaded(*names):\n"
        "    return sorted(n for n in names if n in sys.modules)\n"
        "def report(value):\n"
        "    import json  # only now, so that loaded('json') sees the code's own imports\n"
        "    print(json.dumps(value))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, check=True, env=env
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule_and_no_numpy():
    got = _run(
        "import avgrank\n"
        "report(sorted(m for m in sys.modules if m.startswith(('avgrank', 'numpy'))))\n"
    )
    assert got == ["avgrank"]


def test_no_module_loads_dataclasses():
    names = [f"avgrank.{m}" for m in MODULES]
    imports = "".join(f"import {n}\n" for n in names)
    got = _run(imports + f"report([loaded(*{names!r}), loaded('dataclasses')])\n")
    assert got == [sorted(names), []]


def test_help_and_bad_values_return_before_numpy_loads(tmp_path):
    got = _run(
        "from avgrank import cli\n"
        "after_import = loaded('numpy')\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    rc = cli.main(['density', '--T', 'nan', '--X', '100', '--out-csv', {str(tmp_path / 'd.csv')!r},\n"
        f"                   '--out-json', {str(tmp_path / 'd.json')!r}])\n"
        "    missing = [cli.main(['average-rank', '--T', '1e3']), cli.main(['cache', 'check'])]\n"
        "    threads = cli.main(['verify', '--threads', '0'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        help_code = exc.code\n"
        f"report([after_import, rc, missing, threads, help_code, loaded('numpy', *{UNUSED_STDLIB!r})])\n"
    )
    assert got == [[], 2, [2, 2], 2, 0, []]


def test_twists_process_loads_no_numpy_ma(tmp_path):
    got = _run(
        "from avgrank import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['twists', '--r', '1', '--s', '1', '--N', '49', '--w', '1', '--T', '200', '--X', '30',\n"
        f"                   '--out-csv', {str(tmp_path / 't.csv')!r}, '--out-json', {str(tmp_path / 't.json')!r}])\n"
        "report([rc, loaded('numpy', 'numpy.ma')])\n"
    )
    assert got == [0, ["numpy"]]


@pytest.fixture
def cache_file(tmp_path):
    path = tmp_path / "ap.apcache"
    avgrank.cache_save(avgrank.cache_build(20, 30), path)
    return path


def test_cache_check_loads_no_engine(cache_file, tmp_path):
    # neither the engine nor numpy, whether the file is valid, corrupt or missing
    raw = bytearray(cache_file.read_bytes())
    raw[-8:] = (10**6).to_bytes(8, "little", signed=True)
    corrupt = tmp_path / "corrupt.apcache"
    corrupt.write_bytes(bytes(raw))
    paths = [str(cache_file), str(corrupt), str(tmp_path / "missing.apcache")]
    modules = (*ENGINE, "numpy", *UNUSED_STDLIB)
    got = _run(
        "import avgrank.cache\n"
        f"after_import = loaded{modules!r}\n"
        "from avgrank import cli\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    for path in {paths!r}:\n"
        "        codes.append(cli.main(['cache', 'check', '--path', path]))\n"
        f"report([after_import, codes, loaded{modules!r}])\n"
    )
    assert got == [[], [0, 4, 2], []]


def test_cli_process_starts_no_blas_pool_unless_asked(cache_file):
    code = (
        "from avgrank import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['cache', 'check', '--path', {str(cache_file)!r}])\n"
        "report(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    assert _run(code) == "1"
    # a value the user set wins
    assert _run(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_public_names_resolve_to_their_submodule():
    submodules = [importlib.import_module(f"avgrank.{m}") for m in MODULES]
    listing = dir(avgrank)
    assert avgrank.__dir__() == listing  # sorted, without duplicates
    assert avgrank.__all__ and len(set(avgrank.__all__)) == len(avgrank.__all__)
    for name in avgrank.__all__:
        owners = [m for m in submodules if name in m.__all__]
        assert len(owners) == 1, name
        assert getattr(avgrank, name) is getattr(owners[0], name), name
        assert name in listing, name
    assert avgrank.families is importlib.import_module("avgrank.families")
    with pytest.raises(AttributeError, match="no_such_name"):
        avgrank.no_such_name
