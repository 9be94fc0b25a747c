"""The benchmark's tracer wraps cpgrl functions by name from outside the
package; a rename or deletion in src/ would otherwise only break traced
benchmark runs. This reads bench/tracer.py and changes nothing under bench/."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for name, module_name, attr, _keep_spans, _after in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), name
        else:
            assert callable(getattr(module, attr, None)), name
