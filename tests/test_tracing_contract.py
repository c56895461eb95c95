"""The benchmark tracer's entry points exist in the library.

`perfbench/tracing.py` wraps every name in its `ENTRY_POINTS` table; a name
the library no longer has breaks every `--trace 1` run, and a name that stops
being a cached property or a function called through its module silently
counts nothing. Resolving the table, and counting calls under an installed
tracer, makes either change fail the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import toriccontact as tc
from toriccontact import moments

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_resolve():
    tracing = load_tracing()
    missing = []
    for layer, (spanned, counted) in tracing.ENTRY_POINTS.items():
        module = importlib.import_module(f"toriccontact.{layer}")
        for name in spanned + counted:
            # As `Tracer._build_patches` looks them up: "Class.attr" in the
            # class's own __dict__, any other name as a module attribute.
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in cls.__dict__
            else:
                found = hasattr(module, name)
            if not found:
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_tracer_counts_vertices_and_triangulations():
    tracer = load_tracing().Tracer()
    with tracer.installed():
        box = tc.unit_box(2)
        box.vertices
        moments.volume(box)
    assert tracer.calls["polytope.LabelledPolytope.vertices"] > 0
    assert tracer.calls["moments.triangulate"] > 0
