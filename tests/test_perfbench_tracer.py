"""The benchmark's span recorder (perfbench/tracer.py) against the package.

The tracer wraps equifan functions by name from outside the package, so a
rename or a removed function would break `perfbench/run.py --trace 1`
without any other test noticing.
"""

import importlib.util
import sys
from pathlib import Path

import equifan.cli  # noqa: F401  (loads every traced module)
import equifan.fanio
import equifan.resolve
import equifan.subdivide
from conftest import singular_cone_2d

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_unwinds():
    tracer_module = load_tracer()
    for mod, attrs in tracer_module.TARGETS.items():
        for attr in attrs:
            obj = sys.modules[f"equifan.{mod}"]
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{mod}.{attr}"

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        cx = singular_cone_2d(3)
        fan = equifan.fanio.fan_from_complex(cx)
        cert = equifan.resolve.resolve_equivariant(cx, mode="plain")
        text = equifan.fanio.write_certificate(cert, fan)
        assert equifan.fanio.verify_certificate(equifan.fanio.parse_certificate(text), fan) == []
        # resolve and verify star through the run loop `_stars`; the public
        # star is the `equifan star` command's
        equifan.subdivide.star_subdivide(cx, (1, 1))
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    traced = {span[0] for span in tracer.spans}
    assert {
        "resolve.resolve_equivariant",
        "orderfun.search_centered_order_function",
        "subdivide.star_subdivide",
        "fanio.verify_certificate",
        "complexes.Complex.faces",
    } <= traced
