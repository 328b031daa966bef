"""Span tracer that times calls into a package's public functions from outside.

A target is named ``module.function`` or ``module.Class.method`` relative to
the package.  While the tracer is installed, every binding of a target
function inside the package (module globals, including names imported with
``from .x import f``, and class attributes) is replaced by a wrapper that
records a span; on exit the original objects are put back.  Nothing in the
package's source is changed.

A target that no longer exists is listed in ``missing`` and skipped, so a
refactor that deletes a public function does not break the benchmark.

Spans nest per thread.  A span opened on a thread with no open span of its
own (a worker of a thread pool) takes as parent the innermost open span of
the thread that installed the tracer, so a pool's work is charged to the
call that started the pool.  Self time is a span's duration minus the part
of it that the union of its children's intervals covers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "is_wrapper"]

_MARK = "__perfbench_traced__"


def is_wrapper(obj) -> bool:
    """True for a callable the tracer installed."""
    return bool(getattr(obj, _MARK, False))


@dataclass(eq=False)
class Span:
    name: str
    note: object
    parent: "Span | None"
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    """Install with ``with Tracer("pkg", targets) as tr:``; read ``tr.spans``.

    ``notes`` maps a target to a function of the call's bound arguments
    (a dict by parameter name) whose result is kept on the span, for
    counters such as the sample count of a sampler call.
    """

    def __init__(self, package: str, targets, notes=None):
        self.package = package
        self.targets = tuple(targets)
        self.notes = dict(notes or {})
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        for target in self.targets:
            if not self._install_one(target):
                self.missing.append(target)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _package_modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _install_one(self, target: str) -> bool:
        module_name, _, path = target.partition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return False
        parts = path.split(".")
        if len(parts) == 1:
            original = getattr(module, parts[0], None)
            if not callable(original):
                return False
            wrapper = self._wrap(target, original)
            for mod in self._package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            return True
        if len(parts) == 2:
            cls = getattr(module, parts[0], None)
            original = vars(cls).get(parts[1]) if isinstance(cls, type) else None
            if not callable(original):
                return False
            self._patches.append((cls, parts[1], original))
            setattr(cls, parts[1], self._wrap(target, original))
            return True
        return False

    def _wrap(self, name: str, fn):
        note = self.notes.get(name)
        signature = inspect.signature(fn) if note is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = None
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                value = note(bound.arguments)
            span = tracer._open(name, value)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        setattr(traced, _MARK, True)
        return traced

    # -------------------------------------------------------------- spans

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, note) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            tail = self._root_stack[-1:]
            parent = tail[0] if tail else None
        span = Span(name, note, parent, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children.append(span)
        self.spans.append(span)

    # ------------------------------------------------------------ reading

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]
