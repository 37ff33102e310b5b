"""The benchmark's tracer must find every function it hooks.

perfbench/tracer.py counts work through module-level names of the
package (for example `blowuplab.geometry.minimize`). A hook whose
target is gone turns its metrics into null, so a traced benchmark run
would report nothing for that layer. The tracer is imported from the
checkout and not modified.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    import blowuplab.geometry as geometry
    assert not hasattr(geometry.minimize, tracer_mod.HOOK_MARK)
