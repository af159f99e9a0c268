"""Spans recorded from outside the program, by wrapping qcsa's public callables.

``Tracer.install`` replaces each wrapped callable with a timing wrapper in
every qcsa module namespace that holds it (``nsumbox`` and ``cli`` import
``qcsa_matrix`` and friends by name, so patching the defining module alone
would miss those calls), and on the class for methods.  ``uninstall`` puts
the originals back.  Spans stay in memory as (name, start_ns, end_ns,
parent) tuples, parent being the index of the enclosing span or -1, until
the benchmark writes them out at the end.
"""

import sys
from collections import defaultdict
from time import perf_counter_ns

QCSA_MODULES = ("qcsa", "qcsa.field", "qcsa.matrix", "qcsa.codes",
                "qcsa.nsumbox", "qcsa.scheme", "qcsa.cli")

# (span name, module, attribute path).  A dotted path names a method.
WRAPPED = (
    ("matrix.matvec", "qcsa.matrix", "FieldMatrix.matvec"),
    ("matrix.matmul", "qcsa.matrix", "FieldMatrix.__matmul__"),
    ("matrix.inverse", "qcsa.matrix", "FieldMatrix.inverse"),
    ("matrix.rank", "qcsa.matrix", "FieldMatrix.rank"),
    ("codes.qcsa_matrix", "qcsa.codes", "qcsa_matrix"),
    ("codes.dual_multipliers", "qcsa.codes", "dual_multipliers"),
    ("codes.csa_matrix", "qcsa.codes", "csa_matrix"),
    ("nsumbox.build_qcsa_system", "qcsa.nsumbox", "build_qcsa_system"),
    ("nsumbox.build_qcsa_box", "qcsa.nsumbox", "build_qcsa_box"),
    ("nsumbox.verify_system", "qcsa.nsumbox", "verify_system"),
    ("nsumbox.verify_box", "qcsa.nsumbox", "verify_box"),
    ("nsumbox.to_dict", "qcsa.nsumbox", "QcsaSystem.to_dict"),
    ("nsumbox.from_dict", "qcsa.nsumbox", "QcsaSystem.from_dict"),
    ("nsumbox.transmit", "qcsa.nsumbox", "NSumBox.transmit"),
    ("scheme.run_trials", "qcsa.scheme", "run_trials"),
    ("scheme.qcsa_roundtrip", "qcsa.scheme", "qcsa_roundtrip"),
    ("scheme.make_instances", "qcsa.scheme", "make_instances"),
    ("scheme.server_scale", "qcsa.scheme", "server_scale"),
    ("cli.main", "qcsa.cli", "main"),
)


def _mac_ops(name, args, result):
    """rows * inner * cols of one product, computed from the operand shapes."""
    a, b = args[0], args[1]
    if name == "matrix.matvec":
        return {"matrix.mac_ops": a.rows * a.cols}
    if hasattr(b, "cols"):
        return {"matrix.mac_ops": a.rows * a.cols * b.cols}
    return {}


def _checks_failed(name, args, result):
    return {"nsumbox.checks_failed": sum(not ok for ok in result.values())}


def _trials_failed(name, args, result):
    return {"scheme.trials_failed": result["trials"] - result["passed"]}


def _nonzero_exit(name, args, result):
    return {"cli.nonzero_exits": int(result != 0)}


COUNTERS = {
    "matrix.matvec": _mac_ops,
    "matrix.matmul": _mac_ops,
    "nsumbox.verify_system": _checks_failed,
    "scheme.run_trials": _trials_failed,
    "cli.main": _nonzero_exit,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(name, args, result).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, module, path in WRAPPED:
            mod = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(mod, path)
            wrapped = self._wrap(name, original)
            for other in QCSA_MODULES:
                namespace = sys.modules[other]
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans) -> dict:
    """Inclusive time, self time and calls per span name, in seconds."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - child_ns[i]) / 1e9
        entry["calls"] += 1
    return out
