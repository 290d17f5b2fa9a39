"""The functions the benchmark's tracer wraps must exist under their pinned names.

perfbench/tracing.py wraps a fixed list of rankplane functions and methods
(`TARGETS`) and refuses to run when one has gone.  This checks the same
resolution here, without installing any wrapper, so that renaming or deleting
a pinned function fails the unit tests and not only the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, attrs in tracing.TARGETS.items():
        module = importlib.import_module(f"rankplane.{layer}")
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(fn_name)):
                missing.append(f"rankplane.{layer}.{attr}")
    assert not missing
