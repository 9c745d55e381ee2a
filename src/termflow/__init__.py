"""termflow: term-trend analytics for discipline-tagged document corpora.

Measures how concept terms are born, grow, decline, and migrate between
disciplines: binary-occurrence corpus indexing, Poisson-percentile term
ranking, technical-sense hardness reports, normalized growth-rate series,
logistic diffusion fitting, and donor/borrower migration classification.
"""

from .corpus import (
    CorpusIndex,
    DocumentRecord,
    DuplicateId,
    MalformedRecord,
    TermQuery,
    TimeBin,
    UnknownBin,
    UnknownDiscipline,
    count_matches,
    ingest,
    merge_indexes,
    read_csv_records,
    read_jsonl_records,
    tokenize,
    write_jsonl_records,
)
from .diffusion import (
    AdoptionTrajectory,
    DiffusionParams,
    FitResult,
    adoption_rate,
    adoption_series,
    fit,
    inflection_time,
    trajectory_closed_form,
    trajectory_euler,
)
from .errors import TermflowError
from .measure import (
    AnnotationSet,
    MDeltaReport,
    hardness_ranking,
    load_annotations,
    m_delta,
    m_value,
)
from .migration import (
    GrowthPeak,
    MigrationReport,
    SuccessionEvent,
    classify_roles,
    detect_peak,
    detect_succession,
    importance,
    lag,
)
from .plotting import growth_chart_svg
from .rank import (
    Dictionary,
    PoissonRank,
    Ranking,
    bottom_terms,
    load_dictionary,
    normal_percentile,
    poisson_cdf,
    poisson_percentile,
    rank_terms,
    top_terms,
)
from .synth import (
    BackgroundVocabulary,
    DisciplineSpec,
    GroundTruth,
    ScenarioSpec,
    SuccessionStage,
    generate,
    generate_succession,
)
from .trend import (
    FrequencySeries,
    GrowthSeries,
    apply_support_filter,
    frequency_series,
    growth_pipeline,
    growth_series,
)

__version__ = "0.1.0"
