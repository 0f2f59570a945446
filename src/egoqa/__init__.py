"""Grounded QA dataset synthesis and evaluation for timestamped narrations.

The toolkit turns per-clip narration tracks into question-answer pairs with
temporal grounding windows (window estimation, chunking, prompt-driven
generation, distractor creation, blind filtering) and scores predictions
(grounding recall, text metrics, seeded close-ended accuracy) next to
numerically verified localization losses.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    EgoqaError,
    EvalReport,
    InvariantBreach,
    MetricValue,
    Narration,
    NarrationTrack,
    PredictionSet,
    QASample,
    ServiceError,
    TemporalWindow,
    ValidationError,
    Violation,
    normalize_answer,
    validate_track,
)
from .windows import (
    CorpusTimingStats,
    EmptyInput,
    NoIntervalData,
    UnknownClip,
    compute_stats,
    merge_windows,
    narration_window,
)
from .chunking import EmptyTrack, NarrationChunk, chunk_track
from .prompts import (
    ParsedCompletion,
    PromptTemplate,
    TemplateMismatch,
    load_template,
    parse_closeqa_completion,
    parse_openqa_completion,
    render_closeqa_prompt,
    render_openqa_prompt,
)
from .endpoint import (
    ChatEndpoint,
    EndpointConfig,
    EndpointUnavailable,
    HttpChatEndpoint,
    MockChatEndpoint,
    prompt_digest,
)
from .synthesis import (
    GenerationRecord,
    attach_distractors,
    generate_openqa,
    shuffled_choices,
)
from .blindfilter import (
    BlindAnswerer,
    FilterReport,
    FilterRow,
    FrequencyPriorAnswerer,
    MissingDistractors,
    UniformRandomAnswerer,
    filter_test_set,
    trial_outcomes,
)
from .localization import (
    HeadOutputs,
    LabelAssignment,
    LengthMismatch,
    LossBreakdown,
    NotADistribution,
    assign_labels,
    combine_losses,
    decode_windows,
    diou_loss_1d,
    focal_loss,
    jitter_window,
    resample_indices,
    token_cross_entropy,
)
from .embedding import Embedder, EmbedderUnavailable, HttpEmbedder, TrigramEmbedder
from .metrics import (
    EmptyEvaluation,
    MissingQuery,
    RunLengthMismatch,
    VLGResult,
    closeqa_accuracy,
    iou_1d,
    meteor_exact,
    openqa_report,
    rouge_l_f,
    sentence_similarity,
    vlg_recall,
)
from .seeding import derive_seed
from .stats import DatasetStats, StatsBuilder
from .jsonl_io import (
    EmptyCorpus,
    SchemaMismatch,
    UnreadableInput,
    config_hash,
    make_meta,
    query_id_for,
    read_jsonl,
    read_meta,
    write_jsonl,
)
