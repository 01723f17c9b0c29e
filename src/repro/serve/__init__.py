"""Long-lived query serving over a persistent oracle store.

The *query often* half of the preprocess/serve split:
:mod:`repro.serve.server` answers ``d(s, t, avoiding=e)`` point queries,
batches and sweeps over asyncio HTTP from a loaded :mod:`repro.store`
directory, and :mod:`repro.serve.client` is the matching keep-alive
client used by the ``repro-msrp query``/``status`` CLI, the test-suite
and the repository benchmark.

Both halves are hardened for unattended operation (see
``docs/robustness.md``): the server sheds load past ``max_connections``
with 503 + ``Retry-After``, times out stalled request reads, and drains
gracefully on SIGTERM; the client retries transient failures with seeded
exponential backoff, reconnecting idempotently and never replaying a
possibly-processed POST.
"""

from repro.serve.client import QueryClient, RemoteQueryError
from repro.serve.server import (
    DEFAULT_LRU_SLICES,
    DEFAULT_MAX_CONNECTIONS,
    DEFAULT_RATE_WINDOW_SECONDS,
    DEFAULT_READ_TIMEOUT,
    DEFAULT_RETRY_AFTER,
    OracleService,
    QueryServer,
    RateWindow,
    ServerThread,
    SliceCache,
    make_server,
    serve_store,
)

__all__ = [
    "DEFAULT_LRU_SLICES",
    "DEFAULT_MAX_CONNECTIONS",
    "DEFAULT_RATE_WINDOW_SECONDS",
    "DEFAULT_READ_TIMEOUT",
    "DEFAULT_RETRY_AFTER",
    "OracleService",
    "QueryClient",
    "QueryServer",
    "RateWindow",
    "RemoteQueryError",
    "ServerThread",
    "SliceCache",
    "make_server",
    "serve_store",
]
