"""bimine: mining translation-equivalent sentences from comparable corpora."""

__version__ = "0.1.0"

from .align import (  # noqa: F401
    Alignment,
    GapSource,
    GapTarget,
    Match,
    MiningConfig,
    MiningOutcome,
    astar_align,
    mine_corpus,
    nw_align,
)
from .classifier import (  # noqa: F401
    SimilarityModel,
    load_model,
    make_negative_pairs,
    save_model,
    train_classifier,
)
from .corpus import (  # noqa: F401
    CorpusStats,
    Document,
    DocumentPair,
    corpus_stats,
    ingest_documents,
    pair_articles,
)
from .lexicon import Lexicon, build_lexicon, merge_title_lexicon  # noqa: F401
from .text import clean_markup, segment_sentences, tokenize  # noqa: F401
from .tuning import TuningResult, TuningSample, alignment_agreement, tune  # noqa: F401
