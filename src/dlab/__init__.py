"""dlab: disclosure-aware annotator modeling for AITA-style judgment corpora.

The package covers the full loop: corpus ingestion and leakage-controlled
splits, self-disclosure extraction with a theory-based category taxonomy,
hashed n-gram embeddings with exact top-k retrieval, clustering diagnostics,
per-annotator context sampling, a focal-loss linear classifier, synthetic
populations with planted ground truth, and a reproducible experiment runner.
"""

__version__ = "0.1.0"

from .corpus import (
    Comment,
    Corpus,
    CorpusError,
    Post,
    SplitSpec,
    Verdict,
    filter_annotators,
    ingest_corpus,
    make_split,
    segment_sentences,
    verify_split,
)
from .disclosure import (
    DisclosureSpan,
    HighLevelCategory,
    LowLevelCategory,
    extract_corpus,
    extract_disclosures,
    matches_phrase_filter,
)
from .embed import (
    EmbedderConfig,
    EmbeddingMatrix,
    embed_text,
    embed_texts,
    export_embeddings,
    import_embeddings,
    top_k_similar,
)
from .model import (
    EvalReport,
    Features,
    Fits,
    ModelParams,
    TrainConfig,
    build_features,
    evaluate,
    predict,
    significance_test,
    train,
)
from .sampler import Contexts, SamplerConfig, sample_context
from .synthgen import PopulationSpec, generate_population

__all__ = [
    "__version__",
    "Comment",
    "Contexts",
    "Corpus",
    "CorpusError",
    "DisclosureSpan",
    "EmbedderConfig",
    "EmbeddingMatrix",
    "EvalReport",
    "Features",
    "Fits",
    "HighLevelCategory",
    "LowLevelCategory",
    "ModelParams",
    "PopulationSpec",
    "Post",
    "SamplerConfig",
    "SplitSpec",
    "TrainConfig",
    "Verdict",
    "build_features",
    "embed_text",
    "embed_texts",
    "evaluate",
    "export_embeddings",
    "extract_corpus",
    "extract_disclosures",
    "filter_annotators",
    "generate_population",
    "import_embeddings",
    "ingest_corpus",
    "make_split",
    "matches_phrase_filter",
    "predict",
    "sample_context",
    "segment_sentences",
    "significance_test",
    "top_k_similar",
    "train",
    "verify_split",
]
