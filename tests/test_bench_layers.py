"""The benchmark traces library layers by name; every name must still resolve.

``bench/spans.py`` lists ``(module, attribute)`` pairs that its tracer wraps.
A rename in ``carleman_lab`` would otherwise surface only as a crash of
``bench/run.py --trace 1``.  This test reads ``bench/`` and changes nothing there.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = load_spans()
    for mod_name, attr, *_ in spans.LAYERS:
        obj = importlib.import_module(f"carleman_lab.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{mod_name}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"


def test_tracer_installs_and_restores():
    spans = load_spans()
    import carleman_lab
    from carleman_lab import intersections

    before = intersections.separating_majorant
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert intersections.separating_majorant is not before
        assert carleman_lab.separating_majorant is intersections.separating_majorant
    finally:
        tracer.uninstall()
    assert intersections.separating_majorant is before
    assert carleman_lab.separating_majorant is before
