"""The benchmark's traced mode finds every callable it wraps, and puts each back.

``perfbench/spans.py`` looks its callables up by name; a renamed or deleted
one would crash ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import qcsa.cli  # noqa: F401  (spans looks its callables up in the loaded modules)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def _owner(module: str, path: str):
    """The module or class that holds the wrapped attribute, and its name."""
    owner = sys.modules[module]
    *cls, attr = path.split(".")
    return (getattr(owner, cls[0]) if cls else owner), attr


def test_tracer_wraps_every_callable_and_uninstall_restores_it():
    owners = [sys.modules[name] for name in spans.QCSA_MODULES]
    owners += [_owner(module, path)[0] for _, module, path in spans.WRAPPED]
    before = {id(owner): (owner, dict(vars(owner))) for owner in owners}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, module, path in spans.WRAPPED:
            owner, attr = _owner(module, path)
            assert vars(owner)[attr] is not before[id(owner)][1][attr], name
    finally:
        tracer.uninstall()
    for owner, attrs in before.values():
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, (owner, attr)
