"""schedlab: queue- and channel-aware scheduling simulation and decay-rate analysis."""

from .ldp import (
    IoptResult,
    aux_growth,
    compute_iopt,
    poisson_rate,
    relative_entropy,
    w_growth,
)
from .model import (
    RandomSource,
    SystemConfig,
    TraceCounters,
    config_from_json,
    config_to_json,
)
from .schedulers import (
    Exp,
    Heterogeneous,
    MaxWeight,
    Policy,
    SelectionScore,
    policy_from_json,
    policy_to_json,
    select,
)
from .simulator import (
    DecayFit,
    OverflowEstimate,
    RegionMap,
    ReplicationOutput,
    SimResult,
    SimSpec,
    decision_regions,
    empirical_phi,
    estimate_overflow,
    fit_decay_rate,
    run_replications,
    run_simulation,
)

__version__ = "0.1.0"
