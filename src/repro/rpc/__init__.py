"""Pyro-style remote objects, built from scratch on TCP sockets.

The paper wraps instrument control APIs as Pyro server objects on the
control agent and calls them from a remote Jupyter notebook through Pyro
proxies (paper Fig 3). Pyro4 is not available offline, so this package
reimplements the subset the paper uses, with the same shape:

- :func:`expose` marks classes/methods callable from remote clients;
- :class:`Daemon` registers objects and serves them — ``daemon.register``
  returns a ``PYRO:ObjectId@host:port`` URI, ``daemon.request_loop()``
  serves until shut down (a background-thread variant is provided).
  Serving runs on a selector reactor for TCP listeners (one event-loop
  thread, bounded per-connection outboxes with backpressure) and falls
  back to a reader thread per connection for the simulated network;
- :class:`Proxy` connects to a URI and forwards attribute calls; built
  with ``max_inflight > 1`` it pipelines requests (PROTOCOLS §1.4) and
  offers :meth:`Proxy.pipeline` for explicit bursts; each proxy is one
  connection, so independent connections are independent proxies;
- :class:`NameServer` maps logical names to URIs, itself served by a daemon.

Serialisation is JSON with explicit type tags (bytes, ndarray, tuple, set,
complex, non-string-keyed dicts); pickle is deliberately not used because
the control channel crosses facility trust boundaries. Every frame uses
binary bulk framing: bulk ndarrays and bytes travel as raw blobs after a
JSON envelope instead of base64 (PROTOCOLS §1.7).

Example::

    @expose
    class Echo:
        def ping(self, x):
            return x

    daemon = Daemon(host="127.0.0.1")
    uri = daemon.register(Echo(), object_id="Echo")
    daemon.start_background()
    with Proxy(uri) as echo:
        assert echo.ping(41) == 41
    daemon.shutdown()
"""

from repro.rpc.context import current_tenant
from repro.rpc.expose import expose, is_exposed, exposed_methods, oneway
from repro.rpc.serialization import (
    serialize,
    deserialize,
    serialize_binary,
    deserialize_binary,
)
from repro.rpc.daemon import Daemon
from repro.rpc.proxy import PendingReply, Pipeline, Proxy
from repro.rpc.naming import (
    NameServer,
    PyroURI,
    parse_uri,
    start_name_server,
    locate_name_server,
)

__all__ = [
    "current_tenant",
    "expose",
    "oneway",
    "is_exposed",
    "exposed_methods",
    "serialize",
    "deserialize",
    "serialize_binary",
    "deserialize_binary",
    "Daemon",
    "Proxy",
    "Pipeline",
    "PendingReply",
    "NameServer",
    "PyroURI",
    "parse_uri",
    "start_name_server",
    "locate_name_server",
]
