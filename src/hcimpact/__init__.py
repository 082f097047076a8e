"""Deterministic engine for the differential impact of an unemployment
shock on public healthcare expenditure.

The pipeline: relative risks from epidemiological studies are diluted
over the working-age population, applied as a one-date mortality shock,
pushed through age-cohort expenditure models (pure demographic, constant
health, death-related costs), and differenced against the unshocked base
to isolate the crisis impact in EUR millions and as a share of GDP.
"""

from .errors import EngineError, NumericalError, ValidationError
from .grid import CohortGrid
from .population import (
    BirthRateScenario,
    MortalityTable,
    PopulationPath,
    project_population,
)
from .relative_risk import (
    ENVELOPE_POLICIES,
    SERVICES,
    LaborMarketState,
    MortalityRRTable,
    RelativeRisk,
    StudyRecord,
    StudyRecords,
    UtilizationRRSet,
    apply_mortality_shock,
    build_rr_envelope,
    dilute_relative_risk,
)
from .expenditure import (
    MODELS,
    PUBLISHED_RF_RANGE,
    CostProfile,
    DSRatioProfile,
    ExpenditurePath,
    ExpenditureShares,
    ModelParameters,
    decompose_costs,
    evaluate_model,
    expenditure_ch,
    expenditure_dc,
    expenditure_pd,
    rescaling_factor,
)
from .impact import (
    GridResult,
    GridRow,
    ImpactResult,
    ScenarioConfig,
    ScenarioInputs,
    cri,
    crimi,
    criui,
    gdp_share_pct,
    parse_selector,
    sensitivity_grid,
)
from .io import load_exogenous_path

__version__ = "0.1.0"

__all__ = [
    "EngineError",
    "NumericalError",
    "ValidationError",
    "CohortGrid",
    "BirthRateScenario",
    "MortalityTable",
    "PopulationPath",
    "project_population",
    "ENVELOPE_POLICIES",
    "SERVICES",
    "LaborMarketState",
    "MortalityRRTable",
    "RelativeRisk",
    "StudyRecord",
    "StudyRecords",
    "UtilizationRRSet",
    "apply_mortality_shock",
    "build_rr_envelope",
    "dilute_relative_risk",
    "MODELS",
    "PUBLISHED_RF_RANGE",
    "CostProfile",
    "DSRatioProfile",
    "ExpenditurePath",
    "ExpenditureShares",
    "ModelParameters",
    "decompose_costs",
    "evaluate_model",
    "expenditure_ch",
    "expenditure_dc",
    "expenditure_pd",
    "rescaling_factor",
    "GridResult",
    "GridRow",
    "ImpactResult",
    "ScenarioConfig",
    "ScenarioInputs",
    "cri",
    "crimi",
    "criui",
    "gdp_share_pct",
    "parse_selector",
    "sensitivity_grid",
    "load_exogenous_path",
]
