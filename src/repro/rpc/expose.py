"""Exposure control: which methods a remote client may call.

Mirrors Pyro4's ``@expose``: applied to a class, every public method becomes
remotely callable; applied to a single method, just that method. Anything
not exposed raises :class:`MethodNotExposedError` server-side — remote
peers must never be able to reach ``__class__`` or other dunder gadgets.

``@oneway`` marks a method fire-and-forget: the daemon replies immediately
and runs the call without returning its result, which the paper's workflow
uses for long pump operations it polls separately.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, TypeVar

_EXPOSED_ATTR = "_repro_exposed"
_ONEWAY_ATTR = "_repro_oneway"

T = TypeVar("T")


def expose(target: T) -> T:
    """Mark a class or function as remotely callable."""
    if inspect.isclass(target) or callable(target):
        setattr(target, _EXPOSED_ATTR, True)
        return target
    raise TypeError(f"@expose applies to classes or callables, not {target!r}")


def oneway(func: Callable) -> Callable:
    """Mark a method fire-and-forget (reply sent before execution result)."""
    setattr(func, _ONEWAY_ATTR, True)
    return func


@functools.lru_cache(maxsize=4096)
def _exposure(cls: type, method_name: str) -> tuple[bool, bool]:
    """``(exposed, oneway)`` for one method of ``cls``. Classes are
    marked when they are defined, so the answer is looked up once per
    (class, method) instead of on every request."""
    method = inspect.getattr_static(cls, method_name, None)
    oneway = bool(method is not None and getattr(method, _ONEWAY_ATTR, False))
    if method_name.startswith("_") or method is None or not callable(method):
        return False, oneway
    exposed = getattr(method, _EXPOSED_ATTR, False) or getattr(
        cls, _EXPOSED_ATTR, False
    )
    return bool(exposed), oneway


def is_exposed(obj: Any, method_name: str) -> bool:
    """May ``method_name`` be invoked remotely on ``obj``?"""
    return _exposure(type(obj), method_name)[0]


def is_oneway(obj: Any, method_name: str) -> bool:
    """Is ``method_name`` marked @oneway on ``obj``'s class?"""
    return _exposure(type(obj), method_name)[1]


def exposed_methods(obj: Any) -> list[str]:
    """Sorted names of all remotely callable methods of ``obj``."""
    names = []
    for name in dir(type(obj)):
        if is_exposed(obj, name):
            names.append(name)
    return sorted(names)
