"""The benchmark's per-layer tracer finds every function it wraps.

perfbench/tracer.py names its targets by module and qualified name, and a
target that is gone is only reported as missing when the benchmark runs, so
a rename in src/ntorrent_sim/ would silently drop a layer. This check loads
the tracer from its file and resolves each target the way it does.
"""
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("label, module, qualname", tracer.TARGETS,
                         ids=[f"{module}.{qualname}" for _, module, qualname in tracer.TARGETS])
def test_tracer_target_resolves(label, module, qualname):
    assert tracer._resolve(module, qualname) is not None, f"{label}: {module}.{qualname} is gone"
