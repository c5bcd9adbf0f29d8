"""Byte-for-byte comparison of CLI outputs with committed golden files.

The files under tests/golden/ were written by the scalar-trace code that
preceded the twist-class batch engine; any change to a CSV row, a JSON
float or a cache record shows up here.  Regenerate them only for an
intended output change, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from pathlib import Path

import pytest

from avgrank.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv with {out} standing for the output directory, files written)
CASES = {
    "average-rank": (
        ["average-rank", "--T", "300", "--X", "100",
         "--out-csv", "{out}/rows.csv", "--out-json", "{out}/summary.json"],
        ("rows.csv", "summary.json"),
    ),
    # R-max 16 makes rows 15 and 16 admissible for the Markov bound
    "density": (
        ["density", "--T", "400", "--X", "60", "--R-max", "16",
         "--out-csv", "{out}/density.csv", "--out-json", "{out}/density.json"],
        ("density.csv", "density.json"),
    ),
    "twists": (
        ["twists", "--r", "1", "--s", "1", "--N", "49", "--w", "1", "--T", "400", "--X", "60",
         "--out-csv", "{out}/twists.csv", "--out-json", "{out}/twists.json"],
        ("twists.csv", "twists.json"),
    ),
    # N = 389 puts the odd class in both supports, so W_minus and
    # avg_bound_minus pin one correctly rounded sum per sign over rows from
    # both supports
    "twists-389": (
        ["twists", "--r", "-2", "--s", "3", "--N", "389", "--w", "-1", "--T", "400", "--X", "60",
         "--out-csv", "{out}/twists.csv", "--out-json", "{out}/twists.json"],
        ("twists.csv", "twists.json"),
    ),
    "cache-build": (
        ["cache", "build", "--T", "60", "--X", "30", "--out", "{out}/ap.apcache"],
        ("ap.apcache",),
    ),
}


def run_case(name: str, out: Path) -> None:
    argv, _ = CASES[name]
    assert main([a.format(out=out) for a in argv]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    run_case(name, tmp_path)
    for fname in CASES[name][1]:
        got = (tmp_path / fname).read_bytes()
        want = (GOLDEN / name / fname).read_bytes()
        assert got == want, f"{name}/{fname} differs from the golden file"


if __name__ == "__main__":
    for name in CASES:
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        run_case(name, GOLDEN / name)
