"""The long-lived KB service layer (``repro serve``).

Turns the batch engine into a *system*: a persistent
:class:`~repro.api.RunSession` held for the process lifetime, fronted by
a threaded stdlib HTTP server.  Writes (table ingest, pipeline runs)
serialize through one writer thread; reads are wait-free against
immutable published :class:`~repro.serve.snapshot.Snapshot` objects the
writer swaps atomically after each run — the service inherits all
correctness machinery from the batch engine (persistent artifact store,
corpus-epoch guard, kernel caches), so what it serves is byte-identical
to a batch ``repro run --store`` over the same store.

Layering, transport-independent core first:

* :mod:`repro.serve.snapshot` — immutable read models (entity/fact
  documents, canonical-JSON witness) built once per publish;
* :mod:`repro.serve.runs` — the run registry behind ``POST/GET /runs``;
* :mod:`repro.serve.service` — :class:`KBService`, the queue/writer/
  snapshot core the tests drive directly;
* :mod:`repro.serve.http` — the stdlib REST transport;
* :mod:`repro.serve.client` — the thin ``urllib`` client used by the
  tests, the examples and the CI smoke job.
"""

from repro.serve.client import ServiceClient, ServiceClientError
from repro.serve.http import KBRequestHandler, KBServer, make_server
from repro.serve.runs import RunRecord, RunRegistry
from repro.serve.service import KBService, ServiceError
from repro.serve.snapshot import ClassView, Snapshot, build_class_view

__all__ = [
    "ClassView",
    "KBRequestHandler",
    "KBServer",
    "KBService",
    "RunRecord",
    "RunRegistry",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "Snapshot",
    "build_class_view",
    "make_server",
]
