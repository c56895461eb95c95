"""The benchmark's four workloads.

Each workload is a fixed cycle of operation kinds.  `cycle(rng)` draws one
cycle of seeded inputs as plain data (tuples, Fractions, JSON text); `run`
is the timed operation and builds every library object it uses from that
data, so no cached property survives from an earlier op unless the workload
says so; `check` runs outside the timed span and returns None or the reason
the op failed.  Runs stop on a cycle boundary, so every run executes the
kinds in the same proportions whatever the seed.

`probes` are inputs that hit defects the repository already lists (ROADMAP
items 3 and 4).  They run after the timed region under a deadline, every run,
and are reported op by op; they are not part of the timed mix.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import oracles as orc

RESIDUAL_TOL = 1e-6  # the CLI's default --tol


def _fmt(x):
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _facets_json(dim, facets):
    return {"dim": dim, "facets": [
        {"normal": [_fmt(c) for c in n], "constant": _fmt(c0)} for n, c0 in facets]}


class Workload:
    name = ""
    in_process = True
    warmup_ops = 3

    def __init__(self, root):
        self.root = root
        self.tc = None
        self.tracer = None

    def load(self):
        import toriccontact

        self.tc = toriccontact

    def polytope(self, facets):
        tc = self.tc
        return tc.LabelledPolytope(
            len(facets[0][0]), [tc.AffineFunction(n, c) for n, c in facets])

    def probes(self, rng):
        return []

    def known_defect(self, error):
        """Whether a probe's failure is the defect the probe exists to show."""
        return False


# -- reduce ----------------------------------------------------------------------


class Reduce(Workload):
    """Cone decisions: is_good, reduce_cone, and on a certificate the slice at
    cert.b and its product split, on GL(k, Z) images of cones with known answers."""

    name = "reduce"
    # 30 kinds in three blocks: ten cheap cones (non-good, hexagon, small),
    # ten Delta1 x Delta2 cones around the median, and ten larger ones whose
    # top six (15 and 16 rays) hold the 90th percentile, so neither quantile
    # sits on a boundary between kinds of different cost.
    CYCLE = (
        ("bad", 0), ("product", 1, 2), ("product", 3, 3), ("product", 1, 1),
        ("product", 1, 2), ("product", 2, 2), ("hexagon",), ("product", 1, 2),
        ("product", 3, 3), ("cube", 3), ("product", 1, 2), ("product", 1, 3),
        ("bad", 1), ("product", 1, 2), ("product", 2, 4), ("product", 1, 1),
        ("product", 1, 2), ("cube", 4), ("hexagon",), ("product", 1, 2),
        ("product", 3, 3), ("product", 1, 1), ("product", 1, 2), ("product", 2, 3),
        ("cube", 3), ("product", 1, 2), ("product", 3, 3), ("product", 1, 1),
        ("product", 1, 2), ("product", 3, 3),
    )
    # Past the exponential cliff of proper_faces (2^32 and 2^25 ray subsets).
    PROBES = (("cube", 5), ("product", 4, 4))
    PROBE_DEADLINE_S = 1.0

    def cycle(self, rng):
        return [self._spec(kind, rng) for kind in self.CYCLE]

    def probes(self, rng):
        return [(self._spec(kind, rng), self.PROBE_DEADLINE_S) for kind in self.PROBES]

    def known_defect(self, error):
        return "deadline" in error

    def _spec(self, kind, rng):
        groups = None
        if kind[0] == "bad":
            labels, factors = orc.BAD_CONES[kind[1]]
            return self._image(kind, len(labels[0]), labels, None, rng,
                               good=False, factors=factors)
        if kind[0] == "product":
            k, labels, rays, groups = orc.simplex_product_cone(kind[1], kind[2])
        elif kind[0] == "cube":
            k, labels, rays = orc.cube_cone(kind[1])
        else:
            k, labels, rays = 3, orc.HEXAGON_LABELS, orc.HEXAGON_RAYS
        spec = self._image(kind, k, labels, rays, rng, good=True, factors=None)
        spec["groups"] = groups
        return spec

    @staticmethod
    def _image(kind, k, labels, rays, rng, good, factors):
        u = orc.rand_unimodular(k, rng, shears=k + 2)
        return {
            "kind": "-".join(map(str, kind)),
            "k": k,
            "labels": tuple(orc.mat_vec(u, l) for l in labels),
            # <l_i, r> is invariant when labels map by u and rays by u^-T.
            "profile": orc.pairing_profile(labels, rays) if rays else None,
            "good": good,
            "factors": factors,
            "groups": None,
        }

    def run(self, spec, ctx):
        tc = self.tc
        cone = tc.Cone(spec["k"], spec["labels"])
        good = tc.is_good(cone)
        try:
            cert = tc.reduce_cone(cone)
        except tc.ToricError as exc:
            return cone, good, exc, None, None
        if cert is None:
            return cone, good, None, None, None
        slc = tc.characteristic_polytope(cone, [Fraction(c) for c in cert.b])
        return cone, good, cert, slc, slc.polytope.product_split()

    def check(self, spec, out):
        cone, good, cert, slc, split = out
        if good.good != spec["good"]:
            return f"is_good returned {good.good}"
        if not spec["good"]:
            if good.invariant_factors != spec["factors"]:
                return f"invariant factors {good.invariant_factors}"
            if getattr(cert, "code", None) != "invalid-cone":
                return f"reduce_cone on a non-good cone returned {cert!r}"
            return None
        if orc.pairing_profile(cone.labels, cone.extreme_rays) != spec["profile"]:
            return "extreme rays differ from the transformed base rays"
        if spec["groups"] is None:
            return None if cert is None else "certificate for a cone not of product type"
        if cert is None or isinstance(cert, Exception):
            return f"no certificate: {cert!r}"
        part = cert.partition
        if {part.group1, part.group2} != set(spec["groups"]):
            return f"partition {part.group1} | {part.group2}"
        k, labels = spec["k"], cone.labels
        for group, coeffs in ((part.group1, cert.a1), (part.group2, cert.a2)):
            comb = tuple(sum(a * labels[i][j] for a, i in zip(coeffs, group)) for j in range(k))
            if comb != tuple(cert.b) or min(coeffs) <= 0:
                return "certificate identity b = sum a_i l_i fails"
        # Criterion-4 oracle in label coordinates: slice vertices are the rays
        # rescaled to <b, x> = 1, and <b, r> = sum_{group1} a1_i <l_i, r>.
        expected = sorted(
            tuple(Fraction(x, sum(a * p[i] for a, i in zip(cert.a1, part.group1))) for x in p)
            for p in spec["profile"])
        poly = slc.polytope
        got = sorted(tuple(orc.dot(f.normal, v) + f.constant for f in poly.facets)
                     for v in poly.vertices)
        if got != expected:
            return "slice vertices are not the rescaled rays"
        if split is None:
            return "product_split found no split of the slice"
        if any(len(f.facets) != f.dim + 1 for f in (cert.factor1, cert.factor2)):
            return "certificate factors are not simplices"
        return None


# -- join ------------------------------------------------------------------------


class Join(Workload):
    """Both bracketings of a triple join of labelled simplices, then the polytope
    decisions on the joined product (criterion 10 plus is_rational,
    is_characteristic and product_split)."""

    name = "join"
    # (dim P1, dim P3, deep); P2 is a segment as in criterion 10, so the
    # product has dimension 3 to 5.  `deep` fixes whether the labels are
    # primitive in their full-rank span, where `is_characteristic` goes on to
    # an `is_good` that costs 0.3 s in 5D; about 12% of random 5D triples do.
    # Fixing one of the two 5D ops per cycle keeps that cost the same in
    # every run and puts the 90th percentile inside the deep 5D ops.
    CYCLE = ((1, 1, None), (1, 2, None), (2, 1, None), (2, 2, True),
             (2, 1, None), (1, 2, None), (1, 1, None), (2, 2, False))

    def cycle(self, rng):
        return [self._spec(slot, rng) for slot in self.CYCLE]

    @staticmethod
    def _simplex(dim, rng):
        facets = orc.simplex_facets([rng.randint(1, 3) for _ in range(dim + 1)])
        if dim > 1:
            facets = orc.transform_normals(facets, orc.rand_unimodular(dim, rng, shears=3))
        return facets

    def _spec(self, slot, rng):
        d1, d3, deep = slot
        while True:
            simplices = [self._simplex(d1, rng), self._simplex(1, rng),
                         self._simplex(d3, rng)]
            while True:
                l2, l4 = rng.randint(1, 4), rng.randint(1, 4)
                l1 = rng.choice([x for x in range(1, 5) if math.gcd(x, l2) == 1])
                l3 = rng.choice([x for x in range(1, 5) if math.gcd(x, l4) == 1])
                if math.gcd(l1 * l3, l2) == 1 and math.gcd(l3, l2 * l4) == 1:
                    break
            spec = {"kind": f"join-{d1 + d3 + 1}d", "simplices": simplices,
                    "l": (l1, l2, l3, l4)}
            if deep is None or orc.labels_primitive_in_span(self.expected(spec)) == deep:
                return spec

    @staticmethod
    def expected(spec):
        """Labels of the joined product, l1*l3 P1 x l2*l3 P2 x l2*l4 P3."""
        l1, l2, l3, l4 = spec["l"]
        s1, s2, s3 = spec["simplices"]
        return orc.product_facets(
            orc.scaled(s1, l1 * l3), orc.scaled(s2, l2 * l3), orc.scaled(s3, l2 * l4))

    def run(self, spec, ctx):
        tc = self.tc
        p1, p2, p3 = (self.polytope(f) for f in spec["simplices"])
        l1, l2, l3, l4 = spec["l"]
        left = tc.join_polytope(tc.join_polytope(p1, p2, l1, l2), p3, l3, l2 * l4)
        right = tc.join_polytope(p1, tc.join_polytope(p2, p3, l3, l4), l1 * l3, l2)
        same = left == right
        return (left, same, left.is_rational(), left.is_characteristic(),
                left.product_split())

    def check(self, spec, out):
        left, same, rational, characteristic, split = out
        s1, s2, _ = spec["simplices"]
        expected = self.expected(spec)
        if [(f.normal, f.constant) for f in left.facets] != expected:
            return "joined labels differ from l1*l3 P1 x l2*l3 P2 x l2*l4 P3"
        if not same:
            return "the two bracketings differ"
        if rational is not True:
            return "is_rational returned False on rational labels"
        n1, n2 = len(s1), len(s2)
        groups = (tuple(range(n1)), tuple(range(n1, n1 + n2)),
                  tuple(range(n1 + n2, len(expected))))
        if characteristic.ok != orc.simplex_product_is_characteristic(expected, groups):
            return f"is_characteristic returned {characteristic.ok}"
        if split != (groups[0], groups[1] + groups[2]):
            return f"product_split returned {split}"
        return None


# -- extremal --------------------------------------------------------------------


def _convex_poly(dim, rng):
    """A convex polynomial: sum of c x_i^2 + d x_i^4 with c, d >= 0."""
    terms = []
    for i in range(dim):
        terms.append(f"{rng.randint(1, 4)}/{rng.randint(2, 6)}*x{i}**2")
        terms.append(f"{rng.randint(0, 2)}/{rng.randint(2, 6)}*x{i}**4")
    return " + ".join(terms)


def _poly_terms(dim, rng):
    """Random cubic terms (coefficient, coordinate, degree) without affine part."""
    return [(f"({rng.randint(-3, 3)}/{rng.randint(1, 3)})", i, d)
            for i in range(dim) for d in (2, 3)]


def _poly_str(terms, offset=0):
    return " + ".join(f"{c}*x{i + offset}**{d}" for c, i, d in terms)


class Extremal(Workload):
    """Extremal affine function and FD extremality residuals on grids, plus
    exact-only moment ops on 3D-4D products."""

    name = "extremal"
    warmup_ops = 2
    # (kind, polytope, grid, relative, reuse).  `polytope` names a recipe;
    # `reuse` names an earlier op in the cycle whose polytope object this op
    # takes instead of building one (11 of 24 ops).  Nine canonical 1D ops,
    # six 1D ops with a relative potential around the median, and nine 2D,
    # 3D and exact-only ops above it.
    CYCLE = (
        ("grid", "seg_even", 8, False, None),
        ("grid", "seg_even", 16, True, 0),
        ("grid", "triangle", 8, False, None),
        ("grid", "seg_weighted", 16, False, None),
        ("grid", "seg_weighted", 8, True, 3),
        ("split", "seg_x_triangle", None, False, None),
        ("grid", "seg_12", 8, False, None),
        ("grid", "seg_12", 16, True, 6),
        ("grid", "rect_even", 8, False, None),
        ("grid", "seg_unit", 16, False, None),
        ("grid", "seg_unit", 8, True, 9),
        ("grid", "triangle", 8, True, 2),
        ("grid", "seg_even", 16, False, None),
        ("grid", "seg_even", 8, False, 12),
        ("exact", "triangle_x_triangle", None, False, None),
        ("grid", "seg_weighted", 8, False, None),
        ("grid", "seg_weighted", 16, True, 15),
        ("grid", "square", 8, False, None),
        ("grid", "seg_weighted", 16, False, None),
        ("grid", "seg_weighted", 8, True, 18),
        ("split", "seg_x_triangle", None, True, 5),
        ("grid", "seg_12", 16, False, 6),
        ("grid", "rect_even", 8, True, 8),
        ("grid", "box3_even", 2, False, None),
    )

    def cycle(self, rng):
        out = []
        for kind, recipe, grid, relative, reuse in self.CYCLE:
            if reuse is not None:
                parts, facets = out[reuse]["parts"], out[reuse]["facets"]
            else:
                parts, facets = self._recipe(recipe, rng)
            dim = len(facets[0][0])
            spec = {"kind": f"{kind}-{recipe}" + (f"-g{grid}" if grid else ""),
                    "index": len(out), "op": kind, "parts": parts, "facets": facets,
                    "grid": grid, "reuse": reuse, "relative": None}
            if kind == "grid":
                spec["relative"] = _convex_poly(dim, rng) if relative else None
            elif kind == "split":
                n1 = 1 if parts[0][0] == "segment" else 2
                t1, t2 = _poly_terms(n1, rng), _poly_terms(dim - n1, rng)
                f = (f"{_poly_str(t1)} + {_poly_str(t2, n1)}"
                     f" + ({rng.randint(-3, 3)})*x0 + ({rng.randint(-3, 3)})")
                if relative:  # a cross term that no split can absorb
                    f += f" + x0*x{n1}"
                spec.update(f=f, f1=_poly_str(t1), f2=_poly_str(t2), n1=n1,
                            planted=not relative)
            out.append(spec)
        return out

    @staticmethod
    def _recipe(recipe, rng):
        def seg(m1, m2):
            return ("segment", m1, m2), orc.segment_facets(m1, m2)

        def even():
            m = rng.randint(1, 3)
            return seg(m, m)

        def weighted():
            m1, m2 = rng.sample(range(1, 5), 2)
            return seg(m1, m2)

        square = (("square",), orc.product_facets(*[orc.segment_facets(1, 1)] * 2))
        triangle = (("triangle",), orc.simplex_facets([1, 1, 1]))
        factors = {
            "seg_even": lambda: [even()],
            "seg_weighted": lambda: [weighted()],
            "seg_12": lambda: [seg(1, 2)],
            "seg_unit": lambda: [seg(1, 1)],
            "rect_even": lambda: [even(), even()],
            "square": lambda: [square],
            "triangle": lambda: [triangle],
            "box3_even": lambda: [even(), even(), even()],
            "seg_x_triangle": lambda: [weighted(), triangle],
            "triangle_x_triangle": lambda: [triangle, triangle],
        }[recipe]()
        parts = tuple(p for p, _ in factors)
        return parts, orc.product_facets(*[f for _, f in factors])

    def probes(self, rng):
        """GL(2, Z) images of the square and triangle, whose canonical potentials
        are extremal (R_E 8 and 12), and the triangle on a 16-grid: the grid
        keeps points on slanted facets (ROADMAP item 4)."""
        out = []
        for recipe in ("square", "triangle", "square", "triangle"):
            parts, facets = self._recipe(recipe, rng)
            facets = orc.transform_normals(facets, orc.rand_unimodular(2, rng, shears=3))
            out.append({"kind": f"grid-{recipe}-image-g8", "op": "grid", "parts": parts,
                        "facets": facets, "grid": 8, "relative": None, "reuse": None})
        parts, facets = self._recipe("triangle", rng)
        out.append({"kind": "grid-triangle-g16", "op": "grid", "parts": parts,
                    "facets": facets, "grid": 16, "relative": None, "reuse": None})
        return [(spec, 10.0) for spec in out]

    def known_defect(self, error):
        return error.startswith("residual_sup") or error.split(":")[0] in (
            "NotConvexHereError", "LinAlgError", "OutOfDomainError")

    def run(self, spec, ctx):
        tc = self.tc
        if spec["reuse"] is not None and spec["reuse"] in ctx:
            poly = ctx[spec["reuse"]]
        else:
            poly = self.polytope(spec["facets"])
        ctx[spec.get("index")] = poly
        op = spec["op"]
        if op == "grid":
            if spec["relative"] is None:
                u = tc.SymplecticPotential.canonical(poly)
            else:
                u = tc.SymplecticPotential(
                    poly, tc.RelativePotential.from_expression(poly.dim, spec["relative"]))
            grid = tc.Grid.interior(poly, spec["grid"])
            return tc.extremal_affine_function(poly), tc.extremality_residual(u, grid)
        if op == "exact":
            return tc.extremal_affine_function(poly), None
        n1 = spec["n1"]
        dims = (n1, poly.dim - n1)
        p1 = self.polytope([(n[:n1], c) for n, c in spec["facets"] if any(n[:n1])])
        p2 = self.polytope([(n[n1:], c) for n, c in spec["facets"] if any(n[n1:])])
        rel = tc.RelativePotential.from_expression
        defect = tc.split_defect(rel(poly.dim, spec["f"]), rel(dims[0], spec["f1"]),
                                 rel(dims[1], spec["f2"]), p1, p2)
        return tc.extremal_affine_function(poly), defect

    def check(self, spec, out):
        re, extra = out
        const, normal = orc.product_extremal(spec["parts"])
        if (re.constant, re.normal) != (const, normal):
            return f"R_E = {re.constant} + <{re.normal}, x>, expected {const} + <{normal}, x>"
        if spec["op"] == "split":
            if spec["planted"] and not extra < 1e-9:
                return f"split_defect {extra} on a planted split"
            if not spec["planted"] and not extra > 1e-6:
                return f"split_defect {extra} with a cross term"
            return None
        if spec["op"] == "grid":
            sup = extra.residual_sup
            if not math.isfinite(sup):
                return f"residual_sup {sup}"
            if self._known_extremal(spec) and not sup < RESIDUAL_TOL:
                return f"residual_sup {sup:.3g} for an extremal potential"
        return None

    @staticmethod
    def _known_extremal(spec):
        """Canonical potentials of products of equally labelled segments and
        unit-label triangles are extremal."""
        return spec["relative"] is None and all(
            p[0] != "segment" or p[1] == p[2] for p in spec["parts"])


# -- cli -------------------------------------------------------------------------

SHIM = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import toriccontact.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "rc = cli.main(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "sys.stdout.flush()\n"
    "print('PERFBENCH ' + json.dumps({'import_s': t1 - t0, 'main_s': t2 - t1}),"
    " file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


class Cli(Workload):
    """Cold `python -m toriccontact.cli <group> <cmd>` calls, one at a time,
    JSON on stdin; every command group is in the mix."""

    name = "cli"
    in_process = False
    warmup_ops = 1
    TIMEOUT_S = 60.0
    CYCLE = ("cone-check-good", "cone-check-bad", "cone-slice", "potential-extremal",
             "cone-reduce", "polytope-rational", "polytope-characteristic",
             "polytope-product-split", "join-reverse", "join-polytope",
             "potential-extremal")

    def load(self):
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                        PYTHONDONTWRITEBYTECODE="1")

    def cycle(self, rng):
        reduce_ = Reduce(self.root)
        out = []
        for kind in self.CYCLE:
            spec = {"kind": kind}
            if kind.startswith("cone"):
                recipe = ("bad", 0) if kind == "cone-check-bad" else (
                    "product", *rng.choice(((1, 1), (1, 2), (2, 2), (1, 3))))
                cone = reduce_._spec(recipe, rng)
                spec["cone"] = cone
                body = {"dim": cone["k"], "labels": [list(l) for l in cone["labels"]]}
                if kind == "cone-slice":
                    group = cone["groups"][0]
                    body["reeb"] = [str(sum(cone["labels"][i][j] for i in group))
                                    for j in range(cone["k"])]
                spec["argv"] = kind.split("-")[:2]
                spec["input"] = json.dumps(body)
            elif kind.startswith("polytope"):
                factors = [Join._simplex(rng.randint(1, 2), rng) for _ in range(2)]
                if kind == "polytope-characteristic":
                    factors = [orc.scaled(f, rng.randint(1, 3)) for f in factors]
                facets = orc.product_facets(*factors)
                n1 = len(factors[0])
                spec["groups"] = (tuple(range(n1)), tuple(range(n1, len(facets))))
                spec["facets"] = facets
                spec["argv"] = ["polytope", kind.split("-", 1)[1]]
                spec["input"] = json.dumps(_facets_json(len(facets[0][0]), facets))
            elif kind == "join-reverse":
                while True:
                    n = rng.randint(-50, 50)
                    m1, m2, k1, k2 = (rng.randint(1, 20), rng.randint(1, 20),
                                      rng.randint(1, 100), rng.randint(1, 100))
                    if n != 0 and math.gcd(m1, m2, n) == 1 and Fraction(k1, k2) > -n:
                        break
                spec["problem"] = (n, m1, m2, k1, k2)
                spec["argv"] = ["join", "reverse"]
                spec["input"] = json.dumps(dict(zip(("n", "m1", "m2", "k1", "k2"),
                                                    spec["problem"])))
            elif kind == "join-polytope":
                p1, p2 = (Join._simplex(rng.randint(1, 2), rng) for _ in range(2))
                l2 = rng.randint(1, 4)
                l1 = rng.choice([x for x in range(1, 5) if math.gcd(x, l2) == 1])
                spec["facets"] = orc.product_facets(orc.scaled(p1, l1), orc.scaled(p2, l2))
                spec["argv"] = ["join", "polytope"]
                spec["input"] = json.dumps({
                    "p1": _facets_json(len(p1[0][0]), p1),
                    "p2": _facets_json(len(p2[0][0]), p2), "l1": l1, "l2": l2})
            else:
                parts, facets = Extremal._recipe("rect_even", rng)
                spec["parts"] = parts
                spec["argv"] = ["potential", "extremal", "--grid", "8"]
                spec["input"] = json.dumps(
                    {"polytope": _facets_json(len(facets[0][0]), facets)})
            out.append(spec)
        return out

    def run(self, spec, ctx):
        traced = self.tracer is not None and self.tracer.active
        head = ["-c", SHIM] if traced else ["-m", "toriccontact.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *head, *spec["argv"]], input=spec["input"],
                              capture_output=True, text=True, cwd=self.root,
                              env=self.env, timeout=self.TIMEOUT_S)
        wall = time.perf_counter() - t0
        if traced:
            line = [l for l in proc.stderr.splitlines() if l.startswith("PERFBENCH ")]
            if line:
                self.tracer.record_cli(wall, json.loads(line[-1][len("PERFBENCH "):]))
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, spec, out):
        code, stdout, stderr = out
        try:
            body = json.loads(stdout)
        except json.JSONDecodeError:
            return f"exit {code}, no JSON on stdout: {stderr.strip()[-200:]}"
        kind = spec["kind"]
        expect = self._expected(spec, body)
        if isinstance(expect, str):
            return expect
        want_code, want = expect
        if code != want_code:
            return f"exit {code}, expected {want_code}: {stdout.strip()[:200]}"
        for key, value in want.items():
            if body.get(key) != value:
                return f"{kind}: {key} = {body.get(key)!r}, expected {value!r}"
        return None

    @staticmethod
    def _expected(spec, body):
        kind = spec["kind"]
        if kind == "cone-check-good":
            return 0, {"strictly_convex": True, "good": True}
        if kind == "cone-check-bad":
            return 1, {"good": False, "invariant_factors": list(spec["cone"]["factors"])}
        if kind == "cone-slice":
            k = spec["cone"]["k"]
            facets = body.get("polytope", {}).get("facets", [])
            if len(facets) != k + 1 or body["polytope"].get("dim") != k - 1:
                return "slice has the wrong shape"
            return 0, {"normalized_direction": False}
        if kind == "cone-reduce":
            groups = sorted(list(g) for g in spec["cone"]["groups"])
            part = body.get("partition", {})
            if sorted([part.get("group1"), part.get("group2")]) != groups:
                return f"partition {part}"
            return 0, {"reducible": True}
        if kind == "polytope-rational":
            return 0, {"rational": True}
        if kind == "polytope-characteristic":
            ok = orc.simplex_product_is_characteristic(spec["facets"], spec["groups"])
            return (0 if ok else 1), {"characteristic": ok}
        if kind == "polytope-product-split":
            return 0, {"product": True, "groups": [list(g) for g in spec["groups"]]}
        if kind == "join-reverse":
            n, m1, m2, k1, k2 = spec["problem"]
            try:
                r = Fraction(body["r"])
                (w1, w2), (l1, l2) = body["w"], body["l"]
            except (KeyError, TypeError, ValueError):
                return f"malformed reverse-join body {body}"
            if not (2 * k1 * r == n * k2 * (1 - r)
                    and r * (w1 * m2 + w2 * m1) == w1 * m2 - w2 * m1
                    and l2 * n == l1 * (w1 * m2 - w2 * m1)):
                return f"reverse-join identities fail for {spec['problem']}: {body}"
            return 0, {"joinable": True}
        if kind == "join-polytope":
            want = _facets_json(len(spec["facets"][0][0]), spec["facets"])
            return 0, {"polytope": want}
        const, normal = orc.product_extremal(spec["parts"])
        return 0, {"extremal": True, "extremal_affine": {
            "constant": _fmt(const), "normal": [_fmt(c) for c in normal]}}


WORKLOADS = {w.name: w for w in (Reduce, Join, Extremal, Cli)}
