"""The benchmark's tracer rebinds each traced function at a list of modules;
every one of those names must stay bound there to the defining module's
function, or a traced run fails with AttributeError."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced_table()


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_bound_at_each_module(name):
    home, attr = name.split(".")
    fn = getattr(importlib.import_module(f"lscert.{home}"), attr)
    assert fn.__module__ == f"lscert.{home}"
    for mod in TRACED[name]:
        assert getattr(importlib.import_module(f"lscert.{mod}"), attr) is fn, mod
