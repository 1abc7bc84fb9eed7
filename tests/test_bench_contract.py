"""The benchmark under perfbench/ reaches into moscl by name: every function
its tracer wraps must exist where the tracer looks, and installing and
removing the tracer must leave the program as it was."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
from moscl import kernels  # noqa: E402


def _owner(module_name):
    return importlib.import_module(f"moscl.{module_name}")


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _ in tracing.TARGETS], ids=lambda v: v
)
def test_traced_target_exists(module_name, attr):
    owner = _owner(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the class's own __dict__ entry
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr, None))


def test_backend_name():
    assert kernels.backend_name() == "numpy"


def _snapshot():
    """Identity of every attribute the tracer may patch: module globals of
    each moscl module and the dicts of the traced classes."""
    for module_name, *_ in tracing.TARGETS:
        _owner(module_name)
    modules = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "moscl" or n.startswith("moscl."))}
    state = {(n, k): id(v) for n, m in modules.items() for k, v in vars(m).items()}
    for module_name, attr, _ in tracing.TARGETS:
        if "." in attr:
            cls = getattr(_owner(module_name), attr.split(".")[0])
            state.update({(cls, k): id(v) for k, v in vars(cls).items()})
    return state


def test_install_then_uninstall_restores_every_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _snapshot() != before
    finally:
        tracer.uninstall()
    assert _snapshot() == before
