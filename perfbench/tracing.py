"""Per-layer spans and counters, recorded from outside the library.

`Tracer.installed()` wraps the public entry points of each toriccontact module
in every namespace that holds them (the module, the package, and modules that
imported the name directly), wraps the cached properties through their
`.func`, and restores the originals on exit.  A layer's self time is its
spans' duration minus the part covered by nested spans; time outside every
span is the benchmark's own.  Very frequent small calls are counted, not
spanned, so their time stays with the calling layer.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("intlinalg", "polytope", "cone", "reduction", "join", "moments", "potential")

# layer -> (spanned functions, counted functions); "Class.attr" names methods.
ENTRY_POINTS = {
    "intlinalg": (
        ("hermite_normal_form", "smith_invariant_factors", "integer_kernel_basis",
         "lattice_row_basis", "rational_rank", "solve_exact", "rational_kernel_basis",
         "invert_exact"),
        ("gcd_ext", "is_primitive", "primitive_part"),
    ),
    "polytope": (
        ("LabelledPolytope.__init__", "LabelledPolytope.vertices",
         "LabelledPolytope.product_split", "LabelledPolytope.is_rational",
         "LabelledPolytope.is_characteristic", "LabelledPolytope.rescale",
         "product", "segment", "unit_box", "standard_simplex"),
        ("AffineFunction.__call__",),
    ),
    "cone": (
        ("Cone.extreme_rays", "is_strictly_convex", "proper_faces", "is_good",
         "sasaki_cone_contains", "is_quasi_regular", "characteristic_polytope"),
        (),
    ),
    "reduction": (
        ("find_simplex_product_partition", "find_splitting_reeb", "decompose_as_join",
         "reduce_cone"),
        (),
    ),
    "join": (
        ("join_is_smooth", "join_generators", "s1_join_cover", "join_polytope",
         "reverse_join", "easy_reverse", "harder_reverse_guarantee"),
        (),
    ),
    "moments": (
        ("triangulate", "monomial_moment", "volume", "polynomial_moment",
         "facet_sigma_moment", "boundary_moment", "boundary_polynomial_moment"),
        ("simplex_volume",),
    ),
    "potential": (
        ("RelativePotential.__init__", "Grid.interior", "abreu_scalar_curvature",
         "extremal_affine_function", "extremality_residual", "donaldson_identity_check",
         "average_split", "split_defect"),
        ("SymplecticPotential.hessian", "guillemin_eval"),
    ),
}

# Metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "intlinalg.calls": ("count", "lower"),
    "intlinalg.rational_rank.calls": ("count", "lower"),
    "intlinalg.solve_exact.calls": ("count", "lower"),
    "intlinalg.hermite_normal_form.calls": ("count", "lower"),
    "intlinalg.smith_invariant_factors.calls": ("count", "lower"),
    "polytope.constructions": ("count", "lower"),
    "polytope.vertex_subsets": ("count", "lower"),
    "polytope.vertex_yield": ("ratio", "higher"),
    "cone.extreme_rays.calls": ("count", "lower"),
    "cone.face_subsets": ("count", "lower"),
    "cone.face_yield": ("ratio", "higher"),
    "reduction.calls": ("count", "lower"),
    "join.calls": ("count", "lower"),
    "moments.triangulations": ("count", "lower"),
    "moments.triangulations_per_polytope": ("ratio", "lower"),
    "potential.curvature_points": ("count", "lower"),
    "potential.hessian_evals": ("count", "lower"),
    "potential.hessian_evals_per_point": ("ratio", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.spawn_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.ops": ("count", "higher"),
    "fail_ratio": ("ratio", "lower"),
    "defects.failed": ("count", "lower"),
}


class Tracer:
    def __init__(self, patch_library=True):
        self.patch_library = patch_library
        self.active = False
        self.stack = []
        self.self_s = defaultdict(float)
        self.top_s = 0.0
        self.calls = Counter()
        self.stats = Counter()
        self.moment_polytopes = {}
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self._patches = None

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, name, fn, hook=None):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        def span(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if hook is not None:
                hook(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- waste ratios from the wrapped calls' inputs and outputs ---------------

    def _vertices_hook(self, args, result):
        poly = args[0]
        self.stats["vertex_subsets"] += math.comb(len(poly.facets), poly.dim)
        self.stats["vertices"] += len(result)

    def _faces_hook(self, args, result):
        self.stats["face_subsets"] += 2 ** len(args[0].ray_active_sets) - 1
        self.stats["faces"] += len(result)

    def _moments_hook(self, args, result):
        self.moment_polytopes.setdefault(id(args[0]), args[0])

    # -- patching ------------------------------------------------------------

    def _build_patches(self):
        package = importlib.import_module("toriccontact")
        modules = {layer: importlib.import_module(f"toriccontact.{layer}") for layer in LAYERS}
        namespaces = [package] + [importlib.import_module(f"toriccontact.{m}")
                                  for m in ("cli", "errors", *LAYERS)]
        hooks = {
            "LabelledPolytope.vertices": self._vertices_hook,
            "proper_faces": self._faces_hook,
            **{n: self._moments_hook for n in ENTRY_POINTS["moments"][0]},
        }
        patches = []
        for layer, (spanned, counted) in ENTRY_POINTS.items():
            module = modules[layer]
            for name in spanned + counted:
                qual = f"{layer}.{name}"

                def wrap(fn, qual=qual, name=name):
                    if name in counted:
                        return self._count(qual, fn)
                    return self._span(layer, qual, fn, hooks.get(name))

                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if hasattr(raw, "attrname"):  # functools.cached_property
                        patches.append((raw, "func", raw.func, wrap(raw.func)))
                    elif isinstance(raw, classmethod):
                        patches.append((cls, attr, raw, classmethod(wrap(raw.__func__))))
                    else:
                        patches.append((cls, attr, raw, wrap(raw)))
                    continue
                original = getattr(module, name)
                wrapped = wrap(original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            patches.append((ns, key, original, wrapped))
        return patches

    @contextmanager
    def installed(self):
        if self._patches is None:
            self._patches = self._build_patches() if self.patch_library else []
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # -- cli -----------------------------------------------------------------

    def record_cli(self, wall, timings):
        self.self_s["cli.import"] += timings["import_s"]
        self.self_s["cli.main"] += timings["main_s"]
        self.self_s["cli.spawn"] += wall - timings["import_s"] - timings["main_s"]
        self.top_s += wall

    # -- report --------------------------------------------------------------

    def metrics(self, ops, fail_ratio, defects_failed):
        calls, stats = self.calls, self.stats

        def total(layer):
            spanned, counted = ENTRY_POINTS[layer]
            return sum(calls[f"{layer}.{n}"] for n in spanned + counted)

        def ratio(a, b):
            return a / b if b else 0.0

        triangulations = calls["moments.triangulate"] + calls["moments.facet_sigma_moment"]
        points = calls["potential.abreu_scalar_curvature"]
        hessians = calls["potential.SymplecticPotential.hessian"]
        values = {
            **{f"{layer}.self_s": self.self_s[layer] for layer in LAYERS},
            "intlinalg.calls": total("intlinalg"),
            **{f"intlinalg.{n}.calls": calls[f"intlinalg.{n}"]
               for n in ("rational_rank", "solve_exact", "hermite_normal_form",
                         "smith_invariant_factors")},
            "polytope.constructions": calls["polytope.LabelledPolytope.__init__"],
            "polytope.vertex_subsets": stats["vertex_subsets"],
            "polytope.vertex_yield": ratio(stats["vertices"], stats["vertex_subsets"]),
            "cone.extreme_rays.calls": calls["cone.Cone.extreme_rays"],
            "cone.face_subsets": stats["face_subsets"],
            "cone.face_yield": ratio(stats["faces"], stats["face_subsets"]),
            "reduction.calls": total("reduction"),
            "join.calls": total("join"),
            "moments.triangulations": triangulations,
            "moments.triangulations_per_polytope": ratio(
                triangulations, len(self.moment_polytopes)),
            "potential.curvature_points": points,
            "potential.hessian_evals": hessians,
            "potential.hessian_evals_per_point": ratio(hessians, points),
            "cli.import_s": self.self_s["cli.import"],
            "cli.main_s": self.self_s["cli.main"],
            "cli.spawn_s": self.self_s["cli.spawn"],
            "bench.self_s": self.traced_s - self.top_s,
            "trace.wall_s": self.traced_s,
            "trace.overhead_ratio": ratio(self.traced_s, self.untraced_s) - 1.0,
            "trace.ops": ops,
            "fail_ratio": fail_ratio,
            "defects.failed": defects_failed,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}
