"""High-level GAM operators (paper Section 4.2, Table 2, Figure 5)."""

from repro.operators.compose import (
    compose,
    materialization_rows,
    min_evidence,
    product_evidence,
)
from repro.operators.generate_view import MappingResolver, TargetSpec, generate_view
from repro.operators.mapping import Mapping
from repro.operators.matching import (
    MatchConfig,
    evaluate_matching,
    exact_matcher,
    match_attributes,
    match_objects,
    normalized_matcher,
    token_jaccard_matcher,
)
from repro.operators.set_ops import difference, intersection, union
from repro.operators.simple import domain, map_, range_, restrict_domain, restrict_range
from repro.operators.views import NULL_DISPLAY, AnnotationView

__all__ = [
    "NULL_DISPLAY",
    "AnnotationView",
    "Mapping",
    "MatchConfig",
    "MappingResolver",
    "TargetSpec",
    "compose",
    "difference",
    "domain",
    "evaluate_matching",
    "exact_matcher",
    "generate_view",
    "intersection",
    "map_",
    "match_attributes",
    "match_objects",
    "materialization_rows",
    "min_evidence",
    "normalized_matcher",
    "product_evidence",
    "range_",
    "restrict_domain",
    "restrict_range",
    "token_jaccard_matcher",
    "union",
]
