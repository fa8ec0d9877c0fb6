"""The benchmark tracer names ``ocf`` callables by string; a refactor that
drops or moves one should fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for table in (tracing.FUNCTIONS, tracing.CLASSES):
        for mod_name, names in table.items():
            module = importlib.import_module(f"ocf.{mod_name}")
            for name in names:
                assert callable(getattr(module, name, None)), f"ocf.{mod_name}.{name}"
    for mod_name, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"ocf.{mod_name}"), cls_name)
        assert meth in vars(cls), f"ocf.{mod_name}.{cls_name}.{meth}"
