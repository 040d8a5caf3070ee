"""Per-dispatch request context available to service objects.

A daemon invokes handler methods with only the REQUEST's ``args`` and
``kwargs``; optional envelope fields (PROTOCOLS §1.1/§1.8) are consumed
by the dispatch layer itself. The multi-tenant gateway needs one of
them — the ``tenant`` id — *inside* the handler, so the daemon stashes
it in a :mod:`contextvars` variable for the duration of each dispatch.

Context variables are the right vehicle here because dispatch runs on
the reactor thread or on a per-connection reader thread: either way the
set/reset pair brackets exactly one request on exactly one thread, and
nested in-process calls (a handler calling another service directly)
inherit the outer request's tenant.
"""

from __future__ import annotations

from contextvars import ContextVar, Token

_current_tenant: ContextVar[str | None] = ContextVar(
    "repro_rpc_current_tenant", default=None
)


def current_tenant() -> str | None:
    """Tenant id of the REQUEST being dispatched, or None.

    Valid only while a daemon is invoking a handler on behalf of a
    request that carried the optional ``tenant`` field; anywhere else
    (including requests without the field) it returns None.
    """
    return _current_tenant.get()


def set_current_tenant(tenant: str | None) -> Token:
    """Bind the dispatch-scoped tenant; returns the reset token."""
    return _current_tenant.set(tenant)


def reset_current_tenant(token: Token) -> None:
    """Unbind a tenant bound by :func:`set_current_tenant`."""
    _current_tenant.reset(token)
