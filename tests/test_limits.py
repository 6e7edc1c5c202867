import ast
import pathlib

from stochastihedron import limits

SRC = pathlib.Path(limits.__file__).resolve().parent

# a new cap is a visible decision: it is added here with its default
CAPS = {
    "ENUMERATION_CAP": 7,
    "SPHERICITY_CAP": 6,
    "ANODYNE_CAP": 5,
    "DOUBLE_COSET_CAP": 6,
    "CONSTANT_SHEAF_CAP": 6,
    "SHEAF_DIM_CAP": 8,
    "METAMATRIX_CAP": 40,
    "PARTITION_CAP": 20,
}


def _guarded_names():
    """The names passed to a ``guard`` or ``effective_cap`` call in any
    src/ module other than ``limits``."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "limits.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("guard", "effective_cap")
            ):
                names.update(a.id for a in node.args if isinstance(a, ast.Name))
    return names


def test_the_caps_and_their_defaults_are_pinned():
    caps = {name: getattr(limits, name) for name in dir(limits) if name.endswith("_CAP")}
    assert caps == CAPS


def test_no_cap_is_dead():
    assert set(CAPS) <= _guarded_names()
