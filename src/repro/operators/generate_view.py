"""``GenerateView`` — the annotation-view construction algorithm (Figure 5).

The paper's pseudo-code::

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
Every join is on S, so the implementation determines all m mappings first
and then builds V in one pass over s: each object's rows are the product
of its partners in each mi, in target order.
Mapping determination is delegated to a *resolver* callable so this module
stays independent of the path finder: the :class:`repro.core.GenMapper`
facade passes a resolver that first tries ``Map`` and then falls back to a
shortest-path ``Compose``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, product, repeat

from repro.gam.enums import CombineMethod
from repro.gam.errors import ViewGenerationError
from repro.obs import get_tracer
from repro.operators.mapping import Mapping
from repro.operators.views import AnnotationView
from repro.reliability.deadline import check_deadline

#: Resolves the mapping S <-> Ti for a target specification.
MappingResolver = Callable[[str, "TargetSpec"], Mapping]

#: Accessions assembled between two deadline checks, so that a view over
#: a whole source stays abortable after its mappings have resolved.
DEADLINE_STRIDE = 1024


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
        probes = []
        for spec in targets:
            # One check per target: each target resolves (and possibly
            # composes) a whole mapping, the view's unit of real work.
            check_deadline()
            with tracer.span("operator.generate_view.target", target=spec.name):
                probes.append((resolver(source, spec).partner_index(), spec))
        rows = _assemble(relevant, probes, combine)
        view_span.tag(rows=len(rows))
    columns = (source, *(spec.name for spec in targets))
    return AnnotationView(columns, tuple(rows))


def _assemble(
    relevant: Sequence[str],
    probes: Sequence[tuple[dict[str, tuple[str, ...]], TargetSpec]],
    combine: CombineMethod,
) -> list[tuple]:
    """V after all m joins on S, built in one pass over the sorted upload.

    Every join is on S, so an accession's rows depend on its own partners
    alone: one tuple per target (mi of Figure 5, see :func:`_partners`).
    Its rows are the product of its tuples in target order, which is the
    row order of the nested joins.  An empty tuple yields no row, as AND's
    inner join does; OR's left outer join fills the slot with NULL.
    """
    fill = (None,) if combine == CombineMethod.OR else ()
    rows: list[tuple] = []
    for start in range(0, len(relevant), DEADLINE_STRIDE):
        check_deadline()
        chunk = relevant[start : start + DEADLINE_STRIDE]
        columns = [_partners(chunk, index, spec, fill) for index, spec in probes]
        # product((accession,), *tuples) for each accession, all in C.
        rows.extend(chain.from_iterable(map(product, zip(chunk), *columns)))
    return rows


def _partners(
    chunk: Sequence[str],
    index: dict[str, tuple[str, ...]],
    spec: TargetSpec,
    fill: tuple[None, ...],
) -> Iterable[tuple[str | None, ...]]:
    """One target's join partners of each accession in ``chunk``, in order.

    The mapping's partner index holds each accession's distinct partners,
    sorted; a restrict set filters them in order.  ``fill`` stands in for
    an accession without partners.
    """
    restrict = spec.restrict
    if restrict is None and not spec.negated:
        return map(index.get, chunk, repeat(fill))
    column = []
    for accession in chunk:
        targets = index.get(accession, ())
        # mi = RestrictRange(RestrictDomain(Mi, s), ti), for this accession
        hits = (
            targets
            if restrict is None
            else tuple(target for target in targets if target in restrict)
        )
        if spec.negated:
            # accession in si' = s \ Domain(mi): mi' = RestrictDomain(Mi, si')
            # right outer join si' keeps it, as NULL when it has no partner.
            hits = () if hits else targets or (None,)
        column.append(hits or fill)
    return column
