"""Similarity search over Strict Content MathML expressions.

Parses expressions into immutable trees, scores documents against queries
with a recursive structural similarity metric, evaluates rankings against
expert ground truth, and tunes the metric's parameters by generational
coordinate descent over four match-depth decay models.
"""

from .mathml import (
    Apply,
    Constant,
    ExprTree,
    FormulaClass,
    FunctionSymbol,
    MathMLParseError,
    UnsupportedConstructError,
    Variable,
    classify,
    height,
    parse_expression,
    serialize_expression,
)
from .metric import (
    DecayModel,
    MetricParams,
    SymbolConfig,
    arg_list_sim_greedy,
    arg_list_sim_ordered,
    decay,
    leaf_sim,
    score_document,
    sim,
)
from .search import (
    CorpusLoadError,
    DocumentRecord,
    HitList,
    Query,
    batch_search,
    load_corpus,
    load_queries,
)
from .evaluation import (
    CriticalValueTable,
    EvalReport,
    GroundTruth,
    evaluate,
)
from .optimizer import (
    ObjectiveWeights,
    OptimizationRun,
    ParamSpace,
    SearchObjective,
    cross_validate,
    objective,
    optimize_all,
    optimize_model,
    run_generation,
    sweep_parameter,
)

__version__ = "0.1.0"
