"""The exact layer starts without the float layer's dependencies.

The `sys.modules` checks run in a fresh interpreter each.
"""

import json
import subprocess
import sys

import pytest

import toriccontact
from toriccontact import potential

from conftest import ENV

HEAVY = ("numpy", "scipy", "sympy")
SEGMENT = {"dim": 1, "facets": [
    {"normal": ["1"], "constant": "0"},
    {"normal": ["-1"], "constant": "1"},
]}
SQUARE_CONE = {"dim": 3, "labels": [[1, 0, 0], [-1, 0, 1], [0, 1, 0], [0, -1, 1]]}


def loaded_after(code, stdin="", modules=HEAVY):
    """Which of `modules` a fresh interpreter has loaded after running `code`."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], input=stdin,
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


def test_exact_package_names_load_no_float_layer():
    code = "import toriccontact\ntoriccontact.cone\ntoriccontact.reduce_cone"
    assert loaded_after(code) == set()
    float_layer = ("toriccontact.potential", "toriccontact.moments")
    assert loaded_after(code, modules=float_layer) == set()


def test_exact_cli_commands_load_no_float_layer():
    main = "from toriccontact import cli\ncli.main({!r})"
    assert loaded_after(main.format(["cone", "check"]), json.dumps(SQUARE_CONE)) == set()
    payload = {"p1": SEGMENT, "p2": SEGMENT, "l1": 1, "l2": 2}
    assert loaded_after(main.format(["join", "polytope"]), json.dumps(payload)) == set()


def test_canonical_extremal_loads_numpy_only():
    code = "from toriccontact import cli\ncli.main(['potential', 'extremal', '--grid', '8'])"
    assert loaded_after(code, json.dumps({"polytope": SEGMENT})) == {"numpy"}


def test_canonical_curvature_loads_numpy_only():
    code = "from toriccontact import cli\ncli.main(['potential', 'curvature', '--grid', '8'])"
    assert loaded_after(code, json.dumps({"polytope": SEGMENT})) == {"numpy"}


def test_polynomial_relative_extremal_loads_no_scipy():
    code = "from toriccontact import cli\ncli.main(['potential', 'extremal', '--grid', '8'])"
    payload = {"polytope": SEGMENT, "relative": "x0**4/20 + x0**2"}
    assert loaded_after(code, json.dumps(payload)) == {"numpy"}


def test_polynomial_tree_curvature_loads_numpy_only():
    code = "from toriccontact import cli\ncli.main(['potential', 'curvature', '--grid', '8'])"
    square = {"kind": "pow", "base": {"kind": "coord", "index": 0}, "exponent": 2}
    relative = {"kind": "add", "args": [
        {"kind": "mul", "args": [{"kind": "const", "value": "1/2"}, square]},
        {"kind": "const", "value": 3}]}
    payload = {"polytope": SEGMENT, "relative": relative}
    assert loaded_after(code, json.dumps(payload)) == {"numpy"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toriccontact.no_such_name


def test_public_names_unchanged():
    names = toriccontact.__all__
    assert len(names) == 45 and names == sorted(set(names))
    lazy = {"ExtremalAffine", "ExtremalReport", "Grid", "RelativePotential",
            "SymplecticPotential", "abreu_scalar_curvature", "average_split",
            "donaldson_identity_check", "extremal_affine_function",
            "extremality_residual", "guillemin_eval", "split_defect"}
    assert lazy <= set(names)
    for name in lazy:
        assert getattr(toriccontact, name) is getattr(potential, name)
    star: dict = {}
    exec("from toriccontact import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert all(star[name] is getattr(toriccontact, name) for name in names)
    assert set(names) | {"moments", "potential"} <= set(dir(toriccontact))
    assert not {"_importlib", "__getattr__"} & set(dir(toriccontact))
