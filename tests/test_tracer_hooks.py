"""The benchmark tracer wraps package attributes by name; each must resolve.

``entbench/tracer.py`` patches ``(module, attribute)`` pairs of the imported
package, and ``_kernels.gate_mix`` for its gate count.  Deleting one of them
would make every traced benchmark run raise ``AttributeError``.
"""

import importlib.util
from pathlib import Path

import entdyn

TRACER = Path(__file__).resolve().parents[1] / "entbench" / "tracer.py"


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("entbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_traced_attributes_resolve():
    pairs = {(mod, attr) for mod, attr, _ in _tracer_layers()}
    pairs.add(("_kernels", "gate_mix"))
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sorted(pairs)
        if not callable(getattr(getattr(entdyn, mod, None), attr, None))
    ]
    assert not missing, f"traced attributes missing: {missing}"
