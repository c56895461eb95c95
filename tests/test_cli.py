import json
import subprocess
import sys

from conftest import ENV


def run_cli(args, payload):
    proc = subprocess.run(
        [sys.executable, "-m", "toriccontact.cli", *args],
        input=json.dumps(payload), capture_output=True, text=True, env=ENV,
    )
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else None


SEGMENT = {"dim": 1, "facets": [
    {"normal": ["1"], "constant": "0"},
    {"normal": ["-1"], "constant": "1"},
]}
SQUARE_CONE = {"dim": 3, "labels": [[1, 0, 0], [-1, 0, 1], [0, 1, 0], [0, -1, 1]]}
BAD_CONE = {"dim": 3, "labels": [[1, 0, 0], [1, 2, 0], [0, 0, 1]]}


def test_cone_check():
    code, body = run_cli(["cone", "check"], SQUARE_CONE)
    assert code == 0 and body["good"] and body["strictly_convex"]
    code, body = run_cli(["cone", "check"], BAD_CONE)
    assert code == 1
    assert body["violating_face"] == [0, 1]
    assert body["invariant_factors"] == [1, 2]


def test_cone_slice_and_quasiregular():
    code, body = run_cli(["cone", "slice", "--reeb", "0,0,1"], SQUARE_CONE)
    assert code == 0
    assert body["polytope"]["dim"] == 2
    code, body = run_cli(["cone", "quasiregular", "--reeb", "1/3,1/2,1"], SQUARE_CONE)
    assert code == 0 and body["quasi_regular"]
    half_space = {"cone": {"dim": 3, "labels": [[1, 0, 0]]},
                  "reeb": {"rational": ["-1", "5", "0"]}}
    for command in ("quasiregular", "slice"):
        code, body = run_cli(["cone", command], half_space)
        assert code == 2 and body["error"] == "invalid-cone"


def test_cone_slice_rejects_redundant_labels():
    # (1, 1, 0) vanishes only on the ray (0, 0, 1); (1, 0, 0) is given twice.
    for labels, detail in (
        ([[1, 0, 0], [0, 1, 0], [-1, 0, 1], [0, -1, 1], [1, 1, 0]], "facet 4 is redundant"),
        ([[1, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 1], [0, -1, 1]], "facet 1 is redundant"),
    ):
        payload = {"dim": 3, "labels": labels, "reeb": ["0", "0", "1"]}
        code, body = run_cli(["cone", "slice"], payload)
        assert code == 2
        assert body == {"detail": detail, "error": "invalid-polytope"}


def test_cone_reduce():
    code, body = run_cli(["cone", "reduce"], SQUARE_CONE)
    assert code == 0
    assert body["b"] == [0, 0, 1]
    assert body["weights"] == [[1, 1], [1, 1]]
    assert len(body["factors"]) == 2


def test_polytope_subcommands():
    code, body = run_cli(["polytope", "rational"], SEGMENT)
    assert code == 0 and body["rational"]
    code, body = run_cli(["polytope", "characteristic"], SEGMENT)
    assert code == 0 and body["characteristic"]
    square = {"dim": 2, "facets": [
        {"normal": ["1", "0"], "constant": "0"},
        {"normal": ["-1", "0"], "constant": "1"},
        {"normal": ["0", "1"], "constant": "0"},
        {"normal": ["0", "-1"], "constant": "1"},
    ]}
    code, body = run_cli(["polytope", "product-split"], square)
    assert code == 0 and body["groups"] == [[0, 1], [2, 3]]


def test_join_subcommands():
    code, body = run_cli(["join", "reverse"],
                         {"n": 2, "m1": 2, "m2": 2, "k1": 4, "k2": 1})
    assert code == 1
    assert body == {"joinable": False, "l": [1, 1], "r": "1/5",
                    "smooth": False, "w": [3, 2]}
    code, body = run_cli(["join", "smooth"], {"l1": 1, "l2": 2, "order2": 3})
    assert code == 0 and body["smooth"]
    code, body = run_cli(["join", "generators"], {"l1": 1, "l2": 2})
    assert body["reeb"] == ["1/2", "1/4"]
    code, body = run_cli(["join", "easy-reverse"], {"n": 3, "v1": 2, "v2": 3})
    assert code == 0 and body == {"w": [1, 1], "l": [3, 1]}


def test_potential_extremal():
    code, body = run_cli(
        ["potential", "extremal", "--grid", "32"], {"polytope": SEGMENT}
    )
    assert code == 0
    assert body["extremal"]
    assert body["extremal_affine"] == {"constant": "4", "normal": ["0"]}


def test_potential_split():
    payload = {
        "p1": SEGMENT, "p2": SEGMENT,
        "f": {"kind": "mul", "args": [
            {"kind": "coord", "index": 0}, {"kind": "coord", "index": 1}]},
    }
    code, body = run_cli(["potential", "split"], payload)
    assert code == 0
    assert body["defect"] > 1e-3


def test_input_error_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "toriccontact.cli", "cone", "check"],
        input="not json", capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert "error" in body and "detail" in body


def test_flag_validation_exit_2():
    code, body = run_cli(
        ["potential", "extremal", "--grid", "4"], {"polytope": SEGMENT}
    )
    assert code == 2 and body["error"] == "invalid-argument"


def test_grid_and_tol_only_where_read():
    # argparse rejects a flag the command does not take, with exit code 2
    code, body = run_cli(["cone", "check", "--tol", "1"], SQUARE_CONE)
    assert code == 2 and body is None
    code, body = run_cli(["potential", "curvature", "--tol", "1"], {"polytope": SEGMENT})
    assert code == 2 and body is None
    code, body = run_cli(["potential", "extremal", "--tol", "0"], {"polytope": SEGMENT})
    assert code == 2 and body["error"] == "invalid-argument"


def test_output_determinism():
    a = subprocess.run(
        [sys.executable, "-m", "toriccontact.cli", "cone", "reduce"],
        input=json.dumps(SQUARE_CONE), capture_output=True, text=True, env=ENV,
    )
    b = subprocess.run(
        [sys.executable, "-m", "toriccontact.cli", "cone", "reduce"],
        input=json.dumps(SQUARE_CONE), capture_output=True, text=True, env=ENV,
    )
    assert a.stdout == b.stdout
