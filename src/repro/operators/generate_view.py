"""``GenerateView`` — the annotation-view construction algorithm (Figure 5).

The implementation follows the paper's pseudo-code line by line::

    GenerateView(S, s, T1, t1, ..., Tm, tm, [AND|OR], {negated})
    V = s                                  # all given source objects
    For i = 1..m
        Determine mapping Mi: S <-> Ti     # Map or Compose
        mi = RestrictDomain(Mi, s)
        mi = RestrictRange(mi, ti)
        If negated[Ti]
            si' = s \\ Domain(mi)           # objects without the annotation
            mi' = RestrictDomain(Mi, si')
            mi  = mi' right outer join si'  # preserve objects w/o assoc.
        End If
        V = V (inner | left outer) join mi on S
    End For

``AND`` extends the view with inner joins, ``OR`` with left outer joins.
Mapping determination is delegated to a *resolver* callable so this module
stays independent of the path finder: the :class:`repro.core.GenMapper`
facade passes a resolver that first tries ``Map`` and then falls back to a
shortest-path ``Compose``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Sequence

from repro.gam.enums import CombineMethod
from repro.gam.errors import ViewGenerationError
from repro.obs import get_tracer
from repro.operators.mapping import Mapping
from repro.operators.views import AnnotationView
from repro.reliability.deadline import check_deadline

#: Resolves the mapping S <-> Ti for a target specification.
MappingResolver = Callable[[str, "TargetSpec"], Mapping]


@dataclasses.dataclass(frozen=True)
class TargetSpec:
    """One target Ti of a ``GenerateView`` call.

    Parameters
    ----------
    name:
        The target source name.
    restrict:
        Optional set of relevant target accessions (the paper's ``ti``);
        ``None`` covers all existing objects of the target.
    negated:
        When True the target contributes the objects *not* annotated with
        the (restricted) target objects, per Figure 5.
    via:
        Optional explicit mapping path (list of intermediate source names)
        a resolver should use instead of path discovery.
    """

    name: str
    restrict: frozenset[str] | None = None
    negated: bool = False
    via: tuple[str, ...] = ()

    @classmethod
    def of(
        cls,
        name: str,
        restrict: Iterable[str] | None = None,
        negated: bool = False,
        via: Iterable[str] = (),
    ) -> "TargetSpec":
        """Convenience constructor normalizing collection arguments."""
        return cls(
            name=name,
            restrict=None if restrict is None else frozenset(restrict),
            negated=negated,
            via=tuple(via),
        )


def generate_view(
    resolver: MappingResolver,
    source: str,
    source_objects: Iterable[str],
    targets: Sequence[TargetSpec],
    combine: CombineMethod | str = CombineMethod.AND,
) -> AnnotationView:
    """Build the annotation view V of ``m + 1`` attributes (Figure 5)."""
    combine = CombineMethod.parse(combine)
    relevant = sorted(set(source_objects))
    if not targets:
        return AnnotationView((source,), tuple((obj,) for obj in relevant))
    seen_names: set[str] = {source}
    for spec in targets:
        if spec.name in seen_names:
            raise ViewGenerationError(
                f"duplicate view column {spec.name!r}; use distinct targets"
            )
        seen_names.add(spec.name)

    tracer = get_tracer()
    with tracer.span(
        "operator.generate_view",
        source=source,
        targets=len(targets),
        objects=len(relevant),
        combine=combine.value,
    ) as view_span:
        # V = s: start with all given source objects.
        view_rows: list[tuple] = [(obj,) for obj in relevant]
        for spec in targets:
            # One check per target: each target resolves (and possibly
            # composes) a whole mapping, the view's unit of real work.
            check_deadline()
            with tracer.span(
                "operator.generate_view.target", target=spec.name
            ) as span:
                mapping = resolver(source, spec)
                sub_mapping = _sub_mapping(mapping, relevant, spec)
                view_rows = _join(view_rows, sub_mapping, combine)
                span.tag(rows=len(view_rows))
        view_span.tag(rows=len(view_rows))
    columns = (source, *(spec.name for spec in targets))
    return AnnotationView(columns, tuple(view_rows))


def _sub_mapping(
    mapping: Mapping, relevant: Sequence[str], spec: TargetSpec
) -> dict[str, list[str | None]]:
    """The per-target join partner lists: mi of Figure 5, keyed by S.

    Each relevant object probes the mapping's memoized per-source
    grouping once, so the cost follows the upload, not the mapping.
    """
    grouped = mapping._grouped()
    restrict = spec.restrict
    partners: dict[str, list[str | None]] = {}
    for obj in relevant:
        targets = {assoc.target_accession for assoc in grouped.get(obj, ())}
        # mi = RestrictRange(RestrictDomain(Mi, s), ti), for this object
        hits = targets if restrict is None else targets.intersection(restrict)
        if not spec.negated:
            if hits:
                partners[obj] = sorted(hits)
        elif not hits:
            # obj is in si' = s \ Domain(mi): mi' = RestrictDomain(Mi, si')
            # right outer join si' keeps it, as NULL when it has no partner.
            partners[obj] = sorted(targets) or [None]
    return partners


def _join(
    view_rows: list[tuple],
    sub_mapping: dict[str, list[str | None]],
    combine: CombineMethod,
) -> list[tuple]:
    """V = V inner/left-outer join mi on S."""
    joined: list[tuple] = []
    for row in view_rows:
        partners = sub_mapping.get(row[0], [])
        if partners:
            joined.extend(row + (partner,) for partner in partners)
        elif combine == CombineMethod.OR:
            joined.append(row + (None,))
        # AND: inner join — rows without a partner are dropped.
    return joined
