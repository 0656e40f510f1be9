"""repro.service — the serving layer (see DESIGN.md, "Serving layer").

The read path the ROADMAP's "serves heavy traffic" north star needs:
a :class:`QueryService` answering rank-list, site-lookup, traffic-curve
and analysis-artifact queries over one loaded dataset, with

* a thread-safe LRU of rendered canonical-JSON payload bytes
  (:class:`PayloadCache`) behind per-key single-flight locks, so
  concurrent identical requests compute once and receive byte-identical
  bodies;
* analysis queries resolved through the shared
  :class:`~repro.pipeline.PipelineRunner` + artifact store, so warm
  artifacts are served without recomputation;
* ``/v1/metrics`` rendered from the process-wide span aggregate
  (:mod:`repro.obs`): each response is one ``http.<endpoint>`` span,
  so per-endpoint request and error counts and latency histograms are
  span totals, as are the reload and pipeline counters;
* a stdlib :class:`ThreadingHTTPServer` JSON API (:mod:`.http`) with
  one route table and structured 4xx/5xx payloads — an unknown country,
  task or route is a 404 listing the valid choices, never a traceback;
* one :class:`ServeSpec` (:mod:`.spec`) that builds the service, and
  one handler and drain that serve it, for a single process and for
  every worker of a :mod:`repro.fleet` alike.

Quick start::

    from repro.api import load, serve
    serve("out/feb", port=8000)              # blocks; ctrl-C drains

or, composing the pieces::

    from repro.service import (ServeSpec, build_service, create_server,
                               serve_forever)

    service = build_service(ServeSpec("out/feb"))   # store: <data>/.artifacts
    server = create_server(service, port=8000)
    serve_forever(server)                    # SIGTERM/ctrl-C drains, returns 0
"""

from .cache import PayloadCache
from .errors import BadRequest, NotFound, ServiceError, Unavailable
from .http import (
    ENDPOINTS,
    ReproHTTPServer,
    ReproRequestHandler,
    create_server,
    serve_forever,
)
from .query import DEFAULT_TOP, QueryService, render_payload
from .spec import ServeSpec, build_service

__all__ = [
    "BadRequest",
    "DEFAULT_TOP",
    "ENDPOINTS",
    "NotFound",
    "PayloadCache",
    "QueryService",
    "ReproHTTPServer",
    "ReproRequestHandler",
    "ServiceError",
    "ServeSpec",
    "Unavailable",
    "build_service",
    "create_server",
    "render_payload",
    "serve_forever",
]
