"""The benchmark tracer's hold on the library.

``skeinbench/tracing.py`` rebinds library names from outside, so a rename
or a dropped import in ``skein`` breaks ``skeinbench/run.py --trace 1``.
The tracer imports only the standard library and loads here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

from skein import fixtures
from skein.yamada import yamada

TRACING = Path(__file__).resolve().parent.parent / "skeinbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("skeinbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_resolves():
    tracing = _load_tracing()
    for module_name, attr in tracing.REBOUND:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    localized = importlib.import_module("skein.rings").LocalizedElement
    for attr in tracing.LOCALIZED_OPS:
        assert attr in localized.__dict__, attr


def test_yamada_resolves_without_rebuilding_diagrams():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yamada(fixtures.load_diagram("hopf"), memo={})
    finally:
        tracer.uninstall()
    assert tracer.calls["yamada.dc"] == 3**2
    assert tracer.calls["diagrams.resolve_crossing"] == 0
