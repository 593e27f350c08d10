"""The names perfbench's tracer rebinds must exist in jshadow.

``perfbench/tracer.py`` wraps functions and methods by name.  Its own tests
live outside this suite, so a rename in ``src/`` is caught here: the
tracer module is loaded from its path (nothing is written) and every name
it lists is looked up on the package."""

import importlib
import importlib.util
from pathlib import Path

from jshadow import cli

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


def test_run_calls_build_parser_once_per_run(monkeypatch, capsys):
    # The tracer wraps cli.build_parser by its module-global name, so its
    # per-layer metrics count one call per run() of an argv not of the exact
    # form, parser reused or not, and none for an argv of the exact form.
    calls = []
    build_parser = cli.build_parser

    def counting():
        calls.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    argvs = [
        (["hilbert", "--a=2", "--b=5", "--place=5"], 0),
        (["--json", "hilbert", "--a=3", "--b=5", "--place=5"], 0),
        (["hilbert", "--a", "2", "--b=5", "--place=5"], 1),
        (["sweep", "zolotarev", "--help"], 1),
        (["sweep", "zolotarev", "--p-max=11"], 1),
        (["no-such-command"], 1),
        (["no-such-command"], 1),
    ]
    for argv, built in argvs:
        calls.clear()
        cli.run(argv)
        assert len(calls) == built, argv
    capsys.readouterr()
