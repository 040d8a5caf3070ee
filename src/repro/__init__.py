"""repro: cross-facility orchestration of electrochemistry experiments.

A production-quality reproduction of "Cross-Facility Orchestration of
Electrochemistry Experiments and Computations" (Al-Najjar, Rao, Bridges,
Dai -- SC-W 2023): an instrument-computing ecosystem (ICE) where a remote
analysis host steers an electrochemistry workstation over a Pyro-style
control channel and receives measurements over a CIFS-style data channel.

Hardware is simulated (see DESIGN.md for the substitution map); the
orchestration software -- Python instrument wrappers, remote-object layer,
network/firewall model, file share, workflow engine, and the GPR+EOT
normality method -- is fully implemented.

Quickstart::

    import repro

    with repro.connect() as session:
        result = session.run_workflow()
        print(result.summary())
        print(session.metrics.format_table())

Subpackages: :mod:`repro.rpc` (remote objects), :mod:`repro.net` (ICE
network model), :mod:`repro.serialio`, :mod:`repro.instruments`
(J-Kem + SP200), :mod:`repro.chemistry` (CV physics),
:mod:`repro.datachannel`, :mod:`repro.ml`, :mod:`repro.analysis`,
:mod:`repro.facility` (assembly), :mod:`repro.core` (workflows).
"""

from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.facility.workstation import (
    ElectrochemistryWorkstation,
    WorkstationConfig,
)
from repro.core.cv_workflow import (
    CVWorkflowResult,
    CVWorkflowSettings,
    build_cv_workflow,
    run_cv_workflow,
)
from repro.core.config import SessionConfig, TransportConfig
from repro.core.facade import Session, connect
from repro.errors import ReproError, code_table
from repro.obs import (
    BaselineStore,
    FlightRecorder,
    HealthEngine,
    HealthReport,
    MetricsRegistry,
    SessionStream,
    TelemetryBus,
    TelemetryEvent,
    Tracer,
)
from repro.core.campaign import (
    Campaign,
    campaign_journal_status,
    scan_rate_strategy,
    strategy_from_spec,
    window_centering_strategy,
)
from repro.durability import (
    CheckpointStore,
    DedupJournal,
    Journal,
    LeaseRegistry,
)
from repro.gateway import (
    Cell,
    Gateway,
    GatewayClient,
    GatewayServer,
    TenantSpec,
)
from repro.core.characterization_workflow import (
    CharacterizationSettings,
    CharacterizationResult,
    run_characterization_workflow,
)
from repro.chemistry.voltammogram import Voltammogram
from repro.ml.normality import NormalityClassifier

__version__ = "1.0.0"

__all__ = [
    "ElectrochemistryICE",
    "ICEConfig",
    "ElectrochemistryWorkstation",
    "WorkstationConfig",
    "CVWorkflowResult",
    "CVWorkflowSettings",
    "build_cv_workflow",
    "run_cv_workflow",
    "Session",
    "SessionConfig",
    "TransportConfig",
    "connect",
    "ReproError",
    "code_table",
    "MetricsRegistry",
    "Tracer",
    "TelemetryBus",
    "TelemetryEvent",
    "SessionStream",
    "BaselineStore",
    "FlightRecorder",
    "HealthEngine",
    "HealthReport",
    "Campaign",
    "campaign_journal_status",
    "scan_rate_strategy",
    "strategy_from_spec",
    "window_centering_strategy",
    "Journal",
    "CheckpointStore",
    "DedupJournal",
    "LeaseRegistry",
    "Gateway",
    "GatewayClient",
    "GatewayServer",
    "TenantSpec",
    "Cell",
    "CharacterizationSettings",
    "CharacterizationResult",
    "run_characterization_workflow",
    "Voltammogram",
    "NormalityClassifier",
    "__version__",
]
