"""The benchmark tracer (``perfbench/tracer.py``) wraps functions of the
package by name. Every name it lists must exist, or the benchmark reports
that layer as absent with zero calls; this suite holds that check, so a
rename or a deletion that the tracer would miss fails here too."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.absent == []
    finally:
        t.uninstall()
