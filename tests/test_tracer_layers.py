"""Every library name the benchmark's span tracer patches still exists.

The tracer in ``perfbench/tracing.py`` patches functions by module and
attribute name, so renaming or deleting one of them breaks the
benchmark's layer timings.  The file is read and executed here, never
imported as a module, so no bytecode cache is written beside it.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers() -> list[tuple[str, str, str]]:
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return [(layer, m, attr) for layer, targets in mod.LAYERS.items() for m, attr, _ in targets]


@pytest.mark.parametrize("layer, module, attr", _layers())
def test_layer_target_resolves(layer, module, attr):
    home = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the method where the class itself defines it
        assert callable(vars(getattr(home, cls_name)).get(meth)), f"{layer}: {module}.{attr}"
    else:
        assert callable(getattr(home, attr, None)), f"{layer}: {module}.{attr}"
