"""The benchmark tracer's entry points exist in the library.

`perfbench/tracing.py` wraps every name in its `ENTRY_POINTS` table; a name
the library no longer has breaks every `--trace 1` run. Resolving the table
here makes such a removal fail the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

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
