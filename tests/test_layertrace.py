"""The span recorder of perfbench/ still finds every name it traces.

`perfbench/layertrace.py` wraps the library names listed in its TARGETS;
deleting or renaming one of them breaks every traced benchmark run.  This
installs the tracer once, so such a change fails here with the name in
the error.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "layertrace",
    Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py")
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


def test_tracer_wraps_every_target():
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert tracer.unwrapped_bindings() == []
    finally:
        tracer.uninstall()
