"""Every function in src/avgrank is run by a command or is a named oracle.

A fresh interpreter runs the CLI commands of _runs through cli.main
under sys.setprofile, so that no lru_cache warmed by an earlier test
hides a call, and reports the file and first line of every avgrank code
object it entered.  Each module- and class-level function of src/avgrank
(found by walking the AST) must be among them or be a key of REGISTRY,
which names the engine function the oracle checks, or the acceptance
criterion, paper lemma or builtin it serves.  A function is matched by
its file and first line (the decorator line for a decorated one), which
is co_firstlineno on every supported Python; a nested closure such as
bump's ev counts with the function that encloses it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import avgrank

PACKAGE = Path(avgrank.__file__).parent
TESTS = Path(__file__).parent

# function (module.qualname) -> the engine function it is the oracle of, or
# the criterion, lemma or builtin it serves
REGISTRY = {
    # scalar oracles of the engine paths
    "curves.TraceData.__init__": "curves.sigma_p_batch",
    "curves.ap": "curves.sigma_p_batch",
    "curves.c_pk": "families._add_terms",
    "curves.is_minimal": "families._product_grid",
    "curves._minimality_bound": "families._product_grid",
    "curves.star_map": "twists._minimal_twists",
    "curves.conductor_surrogate": "twists._minimal_twists",
    "families._conductor_batch": "families._conductor_grid",
    "families.U1": "families.prime_sums",
    "families.U2": "families.prime_sums",
    "families.rank_bound": "families.rank_bound_terms",
    "families.enumerate_D": "families._box",
    "families.enumerate_C": "families._box",
    "families.weight_wT": "families._weighted_grid",
    "families.S_T": "families.average_rank_experiment",
    "moments.V": "moments.V_family",
    "twists.twist_curve": "twists._minimal_twists",
    "twists.root_number": "twists.twist_batch",
    "twists.class_decompose": "twists.twist_average_experiment",
    # density_bound is the oracle of the census's Markov admission; the CLI
    # reaches V_family, moment_2k's engine, only at T >= 101^6, which the
    # box's memory check rejects
    "moments.density_bound": "moments.high_rank_census",
    "moments.V_family": "moments.moment_2k",
    # the paper's lemmas behind the acceptance criteria
    "moments.type1_S": "criterion 9",
    "oracles.ramanujan_exponential_sweep": "criterion 3",
    "oracles.delta_of": "criterion 4",
    "oracles.f_of": "criterion 4",
    "oracles.g_of": "criterion 5",
    "oracles.beta_of": "criterion 5",
    "oracles.gamma_of": "criterion 5",
    "weights.kernel_k_hat": "criterion 7",
    "weights.plateau_bump": "criterion 11",
    "weights._smooth_step": "criterion 11",
    "twists.fundamental_discriminants": "criterion 14",
    "families.lemma2_lhs": "Lemma 2",
    # the package's lazy dir(), PEP 562
    "__init__.__dir__": "builtin dir",
}
ROLE = re.compile(r"criterion \d+|Lemma \d+|builtin \w+")


def _runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of each CLI run, writing into tmp."""

    def out(name):
        return ["--out-csv", str(tmp / f"{name}.csv"), "--out-json", str(tmp / f"{name}.json")]

    curve_file = tmp / "curves.txt"
    curve_file.write_text("-2 3 389 -1\n0 1 36 1\n")
    cache = str(tmp / "ap.apcache")
    return [
        (["average-rank", "--T", "1e4", "--X", "100", *out("a")], 0),
        (["density", "--T", "3e5", "--X", "50", "--R-max", "30", *out("d")], 0),
        (["twists", "--r", "-2", "--s", "3", "--N", "389", "--w", "-1", "--T", "300", "--X", "300", *out("t")], 0),
        (["twists", "--curve-file", str(curve_file), "--base-index", "1", "--T", "100", "--X", "50", *out("f")], 0),
        # |Delta| has the cofactor 1009^2 1013^2, which factorize splits by rho
        (["twists", "--r", "0", "--s", "1022117", "--N", "11", "--w", "1", "--T", "100", "--X", "50", *out("r")], 0),
        (["cache", "build", "--T", "100", "--X", "30", "--out", cache], 0),
        (["cache", "check", "--path", cache], 0),
        (["verify"], 0),
    ]


CHILD = """
import contextlib, io, json, sys
root, runs = sys.argv[1], json.loads(sys.argv[2])
seen = {}
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen[id(code)] = code
sys.setprofile(hook)
from avgrank import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        codes.append(cli.main(argv))
sys.setprofile(None)
lines = sorted({(c.co_filename, c.co_firstlineno) for c in seen.values() if c.co_filename.startswith(root)})
print(json.dumps([codes, lines]))
"""


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every module- and class-level
    function of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node, "") for node in tree.body]
        while scopes:
            node, prefix = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes += [(child, f"{prefix}{node.name}.") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                out[(str(path), first)] = f"{path.stem}.{prefix}{node.name}"
    return out


@pytest.fixture(scope="module")
def functions():
    return _functions()


@pytest.fixture(scope="module")
def reached(functions, tmp_path_factory):
    """module.qualname of every function that the runs of _runs enter."""
    tmp = tmp_path_factory.mktemp("reach")
    runs = _runs(tmp)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE) + os.sep, json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True, check=True, env=env,
    )
    codes, lines = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [code for _, code in runs]
    return {functions[(f, n)] for f, n in lines if (f, n) in functions}


def test_every_function_is_reached_or_registered(functions, reached):
    orphans = sorted(set(functions.values()) - reached - set(REGISTRY))
    assert orphans == [], f"functions no command runs and no oracle registry names: {orphans}"


def test_registry_names_only_existing_unreached_functions(functions, reached):
    names = set(functions.values())
    assert sorted(set(REGISTRY) - names) == [], "registered functions that do not exist"
    assert sorted(set(REGISTRY) & reached) == [], "registered functions that a command runs"
    for name, role in REGISTRY.items():
        assert role in names or ROLE.fullmatch(role), (name, role)


def test_every_registered_function_is_used_by_a_test():
    texts = [p.read_text() for p in TESTS.glob("*.py") if p.name != Path(__file__).name]
    for name in REGISTRY:
        # a constructor is used through its class; any other function by its name
        parts = name.split(".")
        word = parts[-2] if parts[-1] == "__init__" else parts[-1]
        pattern = re.compile(rf"\b{re.escape(word)}\b")
        assert any(pattern.search(t) for t in texts), f"no test uses the registered {name}"
