"""Few-shot prompting harness: pools, selection, prompts, evaluation, sweeps."""

__version__ = "0.1.0"

from .corpus import (
    BINARY_FRNFR,
    BUILTIN_SCHEMES,
    ISO25010_9,
    PROMISE_12,
    Corpus,
    CorpusError,
    LabelDef,
    LabelScheme,
    RequirementRecord,
    SplitError,
    SplitPlan,
    load_corpus,
    load_scheme,
    make_split,
)
from .evaluation import (
    EvalReport,
    ParsedLabel,
    compute_report,
    parse_label,
    score_prediction,
)
from .gateway import (
    Client,
    ConstantBackend,
    EchoGoldBackend,
    ModelProfile,
    ResponseCache,
)
from .promptkit import (
    DEFAULT_TEMPLATE,
    PromptSpec,
    PromptTemplate,
    estimate_tokens,
    render_prompt,
)
from .selection import (
    FewShotPool,
    SelectionConfig,
    build_pool,
)
from .sweep import (
    DEFAULT_GRID,
    SweepCurve,
    SweepPlan,
    detect_overprompting,
    find_optimum,
    run_sweep,
)
from .vectorspace import (
    EmbeddingMatrix,
    HashEmbeddingProvider,
    Neighbor,
    TfidfModel,
    build_embedding_matrix,
    embed_query_tfidf,
    fit_tfidf,
    knn,
    tokenize,
)
