"""Command-line frontend.

Exit codes: 0 = decided true / success, 1 = decided false (a certificate is
included in the JSON body), 2 = input error (body {"error": code, "detail":
text}).  Output is deterministic: keys are sorted and no timestamps are
emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cone as cone_mod
from . import join as join_mod
from . import reduction
from .errors import InvalidArgumentError, ToricError
from .polytope import LabelledPolytope, frac, frac_str


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        code, body = args.handler(args)
    except ToricError as exc:
        code, body = 2, {"error": exc.code, "detail": str(exc)}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        code, body = 2, {"error": "invalid-argument", "detail": str(exc)}
    _emit(args, body)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriccontact",
        description="Exact toric contact/Sasaki decision procedures and "
        "extremal symplectic-potential numerics.",
    )
    sub = parser.add_subparsers(dest="group")

    def cmd(group_parser, name, handler, **kwargs):
        p = group_parser.add_parser(name, **kwargs)
        _common_flags(p)
        p.set_defaults(handler=handler)
        return p

    cone_p = sub.add_parser("cone", help="moment-cone decisions").add_subparsers()
    cmd(cone_p, "check", _cone_check, help="strict convexity + goodness")
    p = cmd(cone_p, "slice", _cone_slice, help="characteristic polytope at a Reeb vector")
    p.add_argument("--reeb", help="comma-separated rational entries")
    p = cmd(cone_p, "quasiregular", _cone_quasiregular, help="quasi-regularity of a Reeb vector")
    p.add_argument("--reeb", help="comma-separated rational entries")
    cmd(cone_p, "reduce", _cone_reduce, help="product-of-simplices splitting pipeline")

    poly_p = sub.add_parser("polytope", help="labelled-polytope decisions").add_subparsers()
    cmd(poly_p, "rational", _poly_rational, help="labels lie in a common lattice")
    cmd(poly_p, "characteristic", _poly_characteristic, help="labels span a lattice with a good cone")
    cmd(poly_p, "product-split", _poly_product_split, help="facet partition splitting the normals")

    join_p = sub.add_parser("join", help="join arithmetic").add_subparsers()
    cmd(join_p, "smooth", _join_smooth, help="smoothness of the (l1,l2)-join")
    cmd(join_p, "generators", _join_generators, help="Reeb/quotient generator pair")
    cmd(join_p, "polytope", _join_polytope, help="polytope of the join")
    cmd(join_p, "reverse", _join_reverse, help="reverse-join algorithm")
    cmd(join_p, "easy-reverse", _join_easy_reverse, help="degree-only reverse join")

    pot_p = sub.add_parser("potential", help="symplectic-potential numerics").add_subparsers()
    p = cmd(pot_p, "curvature", _pot_curvature, help="Abreu scalar curvature on a grid")
    p.add_argument("--grid", type=int, default=16, help="grid points per axis (>= 8)")
    p = cmd(pot_p, "extremal", _pot_extremal, help="extremal affine function and residuals")
    p.add_argument("--grid", type=int, default=16, help="grid points per axis (>= 8)")
    p.add_argument("--tol", type=float, default=1e-6, help="decision tolerance (> 0)")
    cmd(pot_p, "split", _pot_split, help="average split of a product potential")
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", default="-", help="input JSON path or - for stdin")
    p.add_argument("--output", default="-", help="output path or - for stdout")
    p.add_argument("--json-indent", type=int, default=None)


def _read_input(args) -> dict:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    return json.loads(text)


def _emit(args, body: dict):
    text = json.dumps(body, sort_keys=True, indent=getattr(args, "json_indent", None))
    output = getattr(args, "output", "-")
    if output == "-":
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _validate_flags(args):
    """Check --grid and, where the command takes it, --tol."""
    if args.grid < 8:
        raise InvalidArgumentError("grid resolution must be >= 8")
    if "tol" in args and args.tol <= 0:
        raise InvalidArgumentError("tolerance must be positive")


def _parse_reeb(args, data) -> list[Fraction]:
    if getattr(args, "reeb", None):
        return [frac(part.strip()) for part in args.reeb.split(",")]
    if "reeb" in data:
        entry = data["reeb"]
        if isinstance(entry, dict):
            return cone_mod.ReebVector.from_json(entry)
        return [frac(c) for c in entry]
    raise InvalidArgumentError("missing Reeb vector (--reeb or input key 'reeb')")


def _load_cone(data) -> cone_mod.Cone:
    src = data["cone"] if "cone" in data else data
    return cone_mod.Cone.from_json(src)


# -- cone ------------------------------------------------------------------


def _cone_check(args):
    c = _load_cone(_read_input(args))
    convex = cone_mod.is_strictly_convex(c)
    if not convex:
        return 1, {"strictly_convex": False, "good": False}
    res = cone_mod.is_good(c)
    body = {"strictly_convex": True, "good": res.good}
    if not res.good:
        body["violating_face"] = list(res.violating_face)
        body["invariant_factors"] = list(res.invariant_factors)
        return 1, body
    return 0, body


def _cone_slice(args):
    data = _read_input(args)
    c = _load_cone(data)
    b = _parse_reeb(args, data)
    slc = cone_mod.characteristic_polytope(c, b)
    return 0, {
        "polytope": slc.polytope.to_json(),
        "quotient_lattice": [list(v) for v in slc.quotient_lattice.vectors],
        "normalized_direction": slc.normalized_direction,
    }


def _cone_quasiregular(args):
    data = _read_input(args)
    c = _load_cone(data)
    b = _parse_reeb(args, data)
    qr = cone_mod.is_quasi_regular(c, b)
    return (0 if qr else 1), {"quasi_regular": qr}


def _cone_reduce(args):
    c = _load_cone(_read_input(args))
    cert = reduction.reduce_cone(c)
    if cert is None:
        return 1, {"reducible": False}
    body = cert.to_json()
    body["reducible"] = True
    body["weights"] = [list(w) for w in reduction.decompose_as_join(cert)]
    return 0, body


# -- polytope ----------------------------------------------------------------


def _poly_rational(args):
    p = LabelledPolytope.from_json(_read_input(args))
    ok = p.is_rational()
    return (0 if ok else 1), {"rational": ok}


def _poly_characteristic(args):
    p = LabelledPolytope.from_json(_read_input(args))
    res = p.is_characteristic()
    body = {"characteristic": res.ok}
    if res.ok:
        body["cone"] = res.cone.to_json()
        body["reeb"] = [frac_str(c) for c in res.reeb]
    return (0 if res.ok else 1), body


def _poly_product_split(args):
    p = LabelledPolytope.from_json(_read_input(args))
    split = p.product_split()
    if split is None:
        return 1, {"product": False}
    return 0, {"product": True, "groups": [list(split[0]), list(split[1])]}


# -- join --------------------------------------------------------------------


def _join_smooth(args):
    d = _read_input(args)
    params = join_mod.JoinParams(
        int(d["l1"]), int(d["l2"]),
        int(d.get("order1", 1)), int(d.get("order2", 1)),
    )
    ok = join_mod.join_is_smooth(params)
    return (0 if ok else 1), {"smooth": ok}


def _join_generators(args):
    d = _read_input(args)
    reeb, quotient = join_mod.join_generators(int(d["l1"]), int(d["l2"]))
    return 0, {
        "reeb": [frac_str(c) for c in reeb],
        "quotient": [frac_str(c) for c in quotient],
    }


def _join_polytope(args):
    d = _read_input(args)
    p = join_mod.join_polytope(
        LabelledPolytope.from_json(d["p1"]),
        LabelledPolytope.from_json(d["p2"]),
        int(d["l1"]), int(d["l2"]),
    )
    return 0, {"polytope": p.to_json()}


def _join_reverse(args):
    prob = join_mod.ReverseJoinProblem.from_json(_read_input(args))
    sol = join_mod.reverse_join(prob)
    return (0 if sol.joinable else 1), sol.to_json()


def _join_easy_reverse(args):
    d = _read_input(args)
    w1, w2, l1, l2 = join_mod.easy_reverse(int(d["n"]), int(d["v1"]), int(d["v2"]))
    return 0, {"w": [w1, w2], "l": [l1, l2]}


# -- potential ----------------------------------------------------------------
# The float layer is imported here only, so the exact commands above start
# without numpy and sympy.


def _load_potential(data) -> pot_mod.SymplecticPotential:
    from . import potential as pot_mod

    poly = LabelledPolytope.from_json(data["polytope"])
    if "relative" in data and data["relative"] is not None:
        rel = pot_mod.RelativePotential.from_expression(poly.dim, data["relative"])
    else:
        rel = pot_mod.RelativePotential.zero(poly.dim)
    return pot_mod.SymplecticPotential(poly, rel)


def _pot_curvature(args):
    from . import potential as pot_mod

    _validate_flags(args)
    u = _load_potential(_read_input(args))
    grid = pot_mod.Grid.interior(u.polytope, args.grid)
    values = pot_mod._curvature_scan(u, grid.points).curvature.tolist()
    rows = [list(x) + [r] for x, r in zip(grid.points, values)]
    return 0, {"grid": {"per_axis": grid.per_axis, "spacing": grid.spacing},
               "values": rows}


def _pot_extremal(args):
    from . import potential as pot_mod

    _validate_flags(args)
    u = _load_potential(_read_input(args))
    grid = pot_mod.Grid.interior(u.polytope, args.grid)
    report = pot_mod.extremality_residual(u, grid)
    body = report.to_json()
    ok = report.residual_sup < args.tol
    body["extremal"] = ok
    return (0 if ok else 1), body


def _pot_split(args):
    from . import potential as pot_mod

    d = _read_input(args)
    p1 = LabelledPolytope.from_json(d["p1"])
    p2 = LabelledPolytope.from_json(d["p2"])
    f = pot_mod.RelativePotential.from_expression(p1.dim + p2.dim, d["f"])
    f1, f2 = pot_mod.average_split(f, p1, p2)
    defect = pot_mod.split_defect(f, f1, f2, p1, p2)
    return 0, {
        "f1": str(f1.expr),
        "f2": str(f2.expr),
        "defect": defect,
    }


if __name__ == "__main__":
    sys.exit(main())
