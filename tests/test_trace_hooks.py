"""The benchmark tracer (perfbench/tracing.py) wraps the package's entry
points by name, from outside. Installing it here on the modules this test
session already imported makes a renamed or deleted entry point fail the
tests, instead of crashing a traced benchmark run.
"""

import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from run import MODULES  # noqa: E402
from tracing import Tracer  # noqa: E402


def loaded_namespace():
    # run.load_amalgam would purge sys.modules and re-import the package,
    # splitting class identity between this test and the others
    return SimpleNamespace(MODULES=MODULES, **{
        name: importlib.import_module("amalgam." + name) for name in MODULES})


def test_tracer_installs_counts_and_uninstalls(capsys):
    am = loaded_namespace()
    multiply = inspect.getattr_static(am.engine.FreeProduct, "multiply")
    word_mul = inspect.getattr_static(am.words.ReducedWord, "__mul__")
    main = am.cli.main
    commands = dict(am.cli.COMMANDS)
    tracer = Tracer()
    tracer.install(am)
    try:
        assert inspect.getattr_static(am.engine.FreeProduct, "multiply") \
            is not multiply
        assert all(am.cli.COMMANDS[k] is not v for k, v in commands.items())
        assert am.cli.main(["--format", "machine", "oracle", "a b O(a) b' a'"]) == 0
        assert "oracle=1*O(a.b.a)" in capsys.readouterr().out
        assert tracer.span_count() > 0
        for key in ("scalars.qc_built", "words.reduced_built",
                    "words.mul_calls"):
            assert tracer.counts[key] > 0, key
    finally:
        tracer.uninstall()
    assert inspect.getattr_static(am.engine.FreeProduct, "multiply") is multiply
    assert inspect.getattr_static(am.words.ReducedWord, "__mul__") is word_mul
    assert am.cli.main is main
    assert am.cli.COMMANDS == commands
