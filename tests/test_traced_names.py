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
    # per-layer metrics count one call per run(), parsers reused or not.
    calls = []
    build_parser = cli.build_parser

    def counting(argv=()):
        calls.append(list(argv))
        return build_parser(argv)

    monkeypatch.setattr(cli, "build_parser", counting)
    argvs = [
        ["hilbert", "--a=2", "--b=5", "--place=5"],
        ["--json", "hilbert", "--a=3", "--b=5", "--place=5"],
        ["hilbert", "--a=2", "--b=5", "--place=5"],
        ["sweep", "zolotarev", "--help"],
        ["sweep", "zolotarev", "--p-max=11"],
        ["no-such-command"],
        ["no-such-command"],
    ]
    for argv in argvs:
        cli.run(argv)
    capsys.readouterr()
    assert calls == argvs
