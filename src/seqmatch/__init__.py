"""Sequence-level similarity and retrieval for cross-embodiment imitation.

The library measures how similar two sequences of frame embeddings are
(entropic optimal transport or temporal cycle consistency), retrieves
and composes short demonstrator snippets to imagine a demonstration for
a robot trajectory, and generates seeded synthetic benchmarks with a
controllable execution-mismatch ladder for evaluating both.

Submodules load on first use: ``import seqmatch`` imports none of them,
and so not numpy either. The first access to an exported name (an
attribute or a ``from seqmatch import ...``) imports the submodule that
defines it. Two submodules never import numpy: ``data`` (types, the
on-disk format, content hashes) and ``pairing`` (paired records and
``evaluate``); the others import it when they load, and ``data`` when it
builds, decodes or writes frames. So a program that imports
``seqmatch.cli`` runs that module's body before numpy loads, whether it
starts as ``python -m seqmatch.cli`` or through the ``seqmatch`` console
script, and a command that computes nothing numeric never loads it.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "BlobError",
            "DatasetError",
            "Embodiment",
            "EmbeddingSequence",
            "FrameLabel",
            "LabeledSequence",
            "ManifestError",
            "SnippetDatabase",
            "dataset_content_hash",
            "quantize_frames_f32",
            "read_dataset",
            "write_dataset",
        ),
        "data",
    ),
    **dict.fromkeys(
        (
            "LossWeights",
            "TimeContrastiveConfig",
            "combined_loss",
            "swav_assignment_loss",
            "swav_two_view_loss",
            "task_alignment_loss",
            "task_alignment_loss_from_distances",
            "time_contrastive_loss",
            "time_contrastive_loss_from_similarity",
        ),
        "losses",
    ),
    **dict.fromkeys(
        (
            "COSINE",
            "SQEUCLIDEAN",
            "CostMatrix",
            "ScanResult",
            "SinkhornConfig",
            "TransportPlan",
            "cost_matrix",
            "exact_ot_small",
            "ot_distance",
            "sinkhorn",
            "sinkhorn_scan",
            "sinkhorn_top2",
            "swav_code_plan",
            "swav_codes",
        ),
        "ot",
    ),
    **dict.fromkeys(
        (
            "EvalReport",
            "ImaginedDemo",
            "PairedDataset",
            "PairedEntry",
            "RetrievalError",
            "SegmentRecord",
            "TrajectoryEval",
            "evaluate",
            "paired_from_json_dict",
            "paired_to_json_dict",
        ),
        "pairing",
    ),
    **dict.fromkeys(
        (
            "OtSequenceDistance",
            "RetrievalConfig",
            "TccSequenceDistance",
            "build_paired_dataset",
            "imagine_demo",
            "segment",
        ),
        "retrieval",
    ),
    **dict.fromkeys(
        (
            "GenConfig",
            "MismatchLevel",
            "MismatchSpec",
            "TaskAnchors",
            "gen_anchors",
            "gen_benchmark",
            "gen_demo_snippets",
            "gen_robot_trajectory",
        ),
        "synthgen",
    ),
    **dict.fromkeys(
        (
            "CycleTrace",
            "TccConfig",
            "soft_nearest_neighbor",
            "tcc_distance",
            "tcc_distance_symmetric",
            "tcc_frame_loss",
            "tcc_scan",
        ),
        "tcc",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
