"""Core abstractions: index ABCs, taxonomy metadata, registry, wrappers."""

from repro.core.base import (
    Explanation,
    IndexMetadata,
    LabelConstrainedIndex,
    ReachabilityIndex,
    SizeReport,
    TriState,
    guided_query,
)
from repro.core.condensed import CondensedIndex, build_plain
from repro.core.registry import (
    all_labeled_indexes,
    all_plain_indexes,
    labeled_index,
    plain_index,
    register_labeled,
    register_plain,
)

__all__ = [
    "Explanation",
    "IndexMetadata",
    "LabelConstrainedIndex",
    "ReachabilityIndex",
    "SizeReport",
    "TriState",
    "guided_query",
    "CondensedIndex",
    "build_plain",
    "all_labeled_indexes",
    "all_plain_indexes",
    "labeled_index",
    "plain_index",
    "register_labeled",
    "register_plain",
]
