"""The names perfbench's tracer rebinds must exist in jshadow.

``perfbench/tracer.py`` wraps functions and methods by name.  Its own tests
live outside this suite, so a rename in ``src/`` is caught here: the
tracer module is loaded from its path (nothing is written) and every name
it lists is looked up on the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_jshadow():
    tracer = _tracer()
    modules = {m: importlib.import_module(f"jshadow.{m}") for m in tracer.MODULES}
    for module, names in tracer.FUNCTIONS.items():
        for name in names:
            assert callable(getattr(modules[module], name, None)), f"jshadow.{module}.{name}"
    for module, cls_name, attr in tracer.METHODS:
        cls = getattr(modules[module], cls_name)
        # install() reads the attribute from the class's own namespace.
        assert callable(vars(cls).get(attr)), f"jshadow.{module}.{cls_name}.{attr}"
