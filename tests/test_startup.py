"""What a run loads: the package resolves its public names on first access,
and each CLI subcommand imports only the library modules it uses."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import helpers
from helpers import cli_env

import stochastihedron

# the CLI's module-level imports, loaded by every run
BASE = {"errors", "limits", "jsonwriter"}
CENSUS = BASE | {"contingency", "frozen", "partitions"}
# CmPoset(n) counts CM_n and its covers off the meta-matrix
POSET = CENSUS | {"counting"}


def imported(argv):
    """Exit code and the modules a child imported, read off -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, names


def library_modules(names):
    prefix = "stochastihedron."
    return {name[len(prefix):] for name in names if name.startswith(prefix)}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    config = root / "config.json"
    config.write_text(json.dumps({"points": [{"re": "0", "im": "1"}, {"re": "1", "im": "0"}]}))
    rep = root / "rep.json"
    rep.write_text(json.dumps({"n": 1, "spaces": {"0": 1}, "maps": []}))
    return {"config": str(config), "rep": str(rep)}


# argv (with {config} and {rep} for the input files), exit code, and the
# library modules the run loads
RUNS = [
    (["--help"], 0, BASE),
    (["f-vector", "--n", "1"], 0, BASE | {"counting", "frozen"}),
    (["metamatrix", "--n", "3"], 0, BASE | {"counting", "frozen"}),
    (["metamatrix", "--n", "3", "--method", "enumeration"], 0, CENSUS | {"counting"}),
    (["enumerate", "--n", "2"], 0, CENSUS),
    (["enumerate", "--what", "partitions", "--n", "3"], 0, BASE | {"frozen", "partitions"}),
    (["poset", "--n", "2"], 0, POSET),
    (["poset", "--n", "8"], 3, POSET),
    (["sphericity", "--n", "2", "--jobs", "2"], 0, POSET | {"exactlinalg", "topology"}),
    (["verify-identities", "--n", "3"], 0,
     CENSUS | {"counting", "exactlinalg", "identities"}),
    (["total-positivity", "--n", "3"], 0,
     BASE | {"counting", "exactlinalg", "frozen", "identities"}),
    (["classify", "--input", "{config}"], 0, CENSUS | {"exactlinalg", "strata"}),
    (["anodyne-classes", "--n", "2"], 0, POSET | {"exactlinalg", "strata"}),
    (["meet-join", "--n", "2"], 0, POSET | {"exactlinalg", "strata"}),
    (["constant-sheaf", "--n", "1", "--dim", "1"], 0, POSET | {"exactlinalg", "sheaf"}),
    (["sheaf-check", "--input", "{rep}"], 0, POSET | {"exactlinalg", "sheaf"}),
]


@pytest.mark.parametrize("argv, code, modules", RUNS, ids=[" ".join(r[0]) for r in RUNS])
def test_each_subcommand_loads_only_its_modules(inputs, argv, code, modules):
    argv = [a.format(**inputs) for a in argv]
    got_code, names = imported(["-m", "stochastihedron.cli", "--stable", *argv])
    assert got_code == code
    assert library_modules(names) == modules


def test_f_vector_loads_no_rational_arithmetic():
    code, names = imported(["-m", "stochastihedron.cli", "f-vector", "--n", "1"])
    assert code == 0
    assert not {"fractions", "decimal"} & names


def test_importing_the_package_loads_no_module():
    code, names = imported(["-c", "import stochastihedron"])
    assert code == 0
    assert "stochastihedron" in names and library_modules(names) == set()


def test_every_public_name_is_its_defining_modules_object():
    for name in stochastihedron.__all__:
        module = importlib.import_module(
            f"stochastihedron.{stochastihedron._MODULE_OF[name]}")
        assert getattr(stochastihedron, name) is getattr(module, name), name
    assert set(stochastihedron.__all__) <= set(dir(stochastihedron))
    for name in ("FinitePoset", "lower_interval", "HomologyProfile", "verify_sphericity"):
        assert stochastihedron._MODULE_OF[name] == "topology", name


# the order-complex route, the S_n oracle and the reference sheaf are test
# oracles (tests/helpers.py), not public names
ORACLES = (
    "homology",
    "order_complex",
    "SimplicialComplex",
    "double_coset_count",
    "colored_lift_count",
    "generalized_count",
    "skyscraper",
)


def test_an_unknown_name_is_an_attribute_error():
    for name in ("no_such_name", *ORACLES):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(stochastihedron, name)
        assert not hasattr(stochastihedron, name)


def test_the_oracles_left_their_modules():
    from stochastihedron import contingency, counting, sheaf

    assert not hasattr(counting, "generalized_count")
    assert not hasattr(counting, "metamatrix_entry")
    assert not hasattr(contingency, "double_coset_count")
    assert not hasattr(contingency, "colored_lift_count")
    assert not hasattr(sheaf, "skyscraper")


def test_the_s_n_oracle_reads_nothing_of_the_library():
    # double cosets and colored lifts are counted inside S_n from plain
    # tuples, independently of the enumeration they check
    tree = ast.parse(pathlib.Path(helpers.__file__).read_text(encoding="utf-8"))
    library = {"stochastihedron"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("stochastihedron"):
            library.update(alias.asname or alias.name for alias in node.names)
    oracles = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("double_coset_count", "colored_lifts")
    }
    assert set(oracles) == {"double_coset_count", "colored_lifts"}
    for name, node in oracles.items():
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert not read & library, name
        assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stochastihedron import *", namespace)
    for name in stochastihedron.__all__:
        assert namespace[name] is getattr(stochastihedron, name)


def test_metamatrix_stays_the_function_once_counting_is_imported():
    code = (
        "import stochastihedron.counting, stochastihedron; "
        "print(stochastihedron.metamatrix is stochastihedron.counting.metamatrix, "
        "stochastihedron.metamatrix(2).entries)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True ((1, 1), (1, 2))\n"
