"""The benchmark's tracer (perfbench/spans.py) finds layer functions by name;
a rename in siftmasks must fail here, not only in a traced benchmark run."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """Executes spans.py from its source, writing no bytecode beside it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_function_and_method_resolves():
    spans = load_spans()
    missing = []
    for mod_name, attr, *_ in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            missing.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        # the tracer patches the class's own attribute, not an inherited one
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert not missing
