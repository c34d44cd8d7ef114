"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` names its targets as strings; a rename inside
``fastla`` would break the traced benchmark run without failing a test in
this suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves():
    targets = load_targets()
    assert targets
    for modname, attr, _span in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"
