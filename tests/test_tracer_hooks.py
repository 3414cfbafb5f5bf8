"""The benchmark tracer's patch points exist in the package and are restored.

perfbench/tracer.py wraps package functions by name (looked up with
getattr), so renaming or deleting one breaks the traced benchmark run.
perfbench is not a package, so the tracer is loaded from its file.
"""

import importlib.util
from pathlib import Path

from simsub import lattice

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_patch_point_and_restores_it():
    tracer = _load_tracer()
    points = ([(module, attr) for module, attr, *_ in tracer._SPANS + tracer._COUNTS]
              + [(lattice, "map_ordered")])
    originals = [getattr(module, attr) for module, attr in points]
    t = tracer.Tracer()
    try:
        t.install()
        for (module, attr), original in zip(points, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        t.uninstall()
    for (module, attr), original in zip(points, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
