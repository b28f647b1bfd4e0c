"""The benchmark's trace hooks name functions that exist.

``perfbench/spans.py`` wraps each ``TARGETS`` name of each ``redhom.<module>``
at run time; a name that was renamed or removed would only show up as a
traced metric reading 0.  Loading the file by path keeps the benchmark out
of the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"redhom.{module}.{name}" for module, names in spans.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"redhom.{module}"), name, None))]
    assert spans.TARGETS and missing == []
