"""procforge: mine procedural preconditions and causal precedence rules
from uncertain state-transition samples, then use them to repair
approximately correct step sequences."""

__version__ = "0.1.0"

from .errors import ProcforgeError
from .inventory import (
    DomainInventory,
    Interaction,
    LabObject,
    StateVariable,
    parse_inventory,
    resolve_dynamic_domains,
)
from .templates import BoundAction, MdpTemplate, build_template, enumerate_states
from .sampling import (
    EndpointConfig,
    NoiseSpec,
    OracleRule,
    OracleSpec,
    SampleBatch,
    TransitionSample,
    build_prompt,
    fetch_samples,
    ingest_samples,
    simulate_oracle,
)
from .world_model import WorldModel, aggregate
from .rules import (
    CausalRule,
    ExtractionConfig,
    Precondition,
    RuleSet,
    classify_entries,
    extract_rules,
)
from .repair import (
    ClusterConstraint,
    PrecedenceConstraint,
    Procedure,
    RepairResult,
    RepairWeights,
    SearchParams,
    Step,
    brute_force_repair,
    map_rules_to_constraints,
    objective_cost,
    repair,
)
from .metrics import (
    MetricsReport,
    breakpoints,
    displacement,
    evaluate,
    kendall_tau,
    lcs_length,
    ngram_overlap,
    raw_slack,
)
from .perturb import PerturbationSpec, perturb

__all__ = [name for name in dir() if not name.startswith("_")]
