"""Sequence-level similarity and retrieval for cross-embodiment imitation.

The library measures how similar two sequences of frame embeddings are
(entropic optimal transport or temporal cycle consistency), retrieves
and composes short demonstrator snippets to imagine a demonstration for
a robot trajectory, and generates seeded synthetic benchmarks with a
controllable execution-mismatch ladder for evaluating both.
"""

from .data import (
    BlobError,
    DatasetError,
    Embodiment,
    EmbeddingSequence,
    FrameLabel,
    LabeledSequence,
    ManifestError,
    SnippetDatabase,
    dataset_content_hash,
    quantize_frames_f32,
    read_dataset,
    write_dataset,
)
from .losses import (
    LossWeights,
    TimeContrastiveConfig,
    combined_loss,
    swav_assignment_loss,
    swav_two_view_loss,
    task_alignment_loss,
    task_alignment_loss_from_distances,
    time_contrastive_loss,
    time_contrastive_loss_from_similarity,
)
from .ot import (
    COSINE,
    SQEUCLIDEAN,
    CostMatrix,
    ScanResult,
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    exact_ot_small,
    ot_distance,
    sinkhorn,
    sinkhorn_scan,
    sinkhorn_top2,
    swav_code_plan,
    swav_codes,
)
from .retrieval import (
    EvalReport,
    ImaginedDemo,
    OtSequenceDistance,
    PairedDataset,
    PairedEntry,
    RetrievalConfig,
    RetrievalError,
    SegmentRecord,
    TccSequenceDistance,
    TrajectoryEval,
    build_paired_dataset,
    evaluate,
    imagine_demo,
    paired_from_json_dict,
    paired_to_json_dict,
    segment,
)
from .synthgen import (
    GenConfig,
    MismatchLevel,
    MismatchSpec,
    TaskAnchors,
    gen_anchors,
    gen_benchmark,
    gen_demo_snippets,
    gen_robot_trajectory,
)
from .tcc import (
    CycleTrace,
    TccConfig,
    soft_nearest_neighbor,
    tcc_distance,
    tcc_distance_symmetric,
    tcc_frame_loss,
    tcc_scan,
)

__version__ = "0.1.0"
