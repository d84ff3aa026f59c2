"""Tenant-facing SFC control-plane service (paper §V as a subsystem).

The package glues the placement core to the functional data plane behind a
single lifecycle facade:

* :mod:`~repro.controller.controller` — :class:`SfcController`
  (admit / evict / modify, drift-bounded reconfiguration);
* :mod:`~repro.controller.admission` — pre-solver admission screens;
* :mod:`~repro.controller.install` — two-phase hitless rule installation
  over the tenant-map wire-ID indirection;
* :mod:`~repro.controller.events` — churn synthesis, the one replay driver
  (:func:`replay`), reports.

The counters/gauges the benchmarks export live in
:mod:`repro.telemetry.metrics`.
"""

from repro.controller.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    check_admission,
)
from repro.controller.controller import (
    OpResult,
    SfcController,
    TenantRecord,
    default_rule_factory,
)
from repro.controller.events import (
    ChurnConfig,
    ChurnEvent,
    ChurnReport,
    EventKind,
    apply_event,
    load_events,
    read_trace_header,
    replay,
    save_events,
    synthesize_churn,
)
from repro.controller.install import (
    TENANT_MAP,
    WIRE_BASE,
    InstallOutcome,
    TransactionalInstaller,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "ChurnConfig",
    "ChurnEvent",
    "ChurnReport",
    "EventKind",
    "InstallOutcome",
    "OpResult",
    "SfcController",
    "TENANT_MAP",
    "TenantRecord",
    "TransactionalInstaller",
    "WIRE_BASE",
    "apply_event",
    "check_admission",
    "default_rule_factory",
    "load_events",
    "read_trace_header",
    "replay",
    "save_events",
    "synthesize_churn",
]
