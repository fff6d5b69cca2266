"""The in-memory ``Mapping`` value object the operators work on.

A mapping is a set of object associations between a source and a target
(paper Section 3: a source-level relationship "typically consists of many
relationships at the object level").  Operators in :mod:`repro.operators`
take mappings as input and produce mappings or annotation views as output,
mirroring Table 2's declarative definitions.

Mappings are immutable: every operation returns a new mapping.  That
immutability is what makes the derived access structures safe to memoize:
:meth:`Mapping.pair_set` and the per-source grouping behind
:meth:`Mapping.as_dict`/:meth:`Mapping.targets_of` are computed once per
instance and cached on the (frozen) dataclass, so membership tests and
per-object lookups (GenerateView probes the grouping once per uploaded
object) are O(1) per probe instead of O(n) per call.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.gam.enums import RelType
from repro.gam.records import Association


@dataclasses.dataclass(frozen=True)
class Mapping:
    """An object-level mapping between two sources.

    Parameters
    ----------
    source, target:
        Names of the two sources the mapping connects.
    associations:
        The object associations, oriented source → target.
    rel_type:
        Relationship type; derived operations produce ``COMPOSED``.
    """

    source: str
    target: str
    associations: tuple[Association, ...]
    rel_type: RelType | None = RelType.FACT

    @classmethod
    def build(
        cls,
        source: str,
        target: str,
        pairs: Iterable[tuple],
        rel_type: RelType | None = RelType.FACT,
    ) -> "Mapping":
        """Build a mapping from ``(source_acc, target_acc[, evidence])``
        tuples, deduplicating pairs (keeping the highest evidence)."""
        best: dict[tuple[str, str], float] = {}
        for pair in pairs:
            key = (str(pair[0]), str(pair[1]))
            evidence = float(pair[2]) if len(pair) > 2 else 1.0
            if key not in best or evidence > best[key]:
                best[key] = evidence
        associations = tuple(
            Association(acc1, acc2, evidence)
            for (acc1, acc2), evidence in sorted(best.items())
        )
        return cls(source, target, associations, rel_type)

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self.associations)

    def __iter__(self) -> Iterator[Association]:
        return iter(self.associations)

    def __contains__(self, pair: object) -> bool:
        if isinstance(pair, Association):
            pair = (pair.source_accession, pair.target_accession)
        return pair in self.pair_set()

    def is_empty(self) -> bool:
        """True when the mapping holds no associations."""
        return not self.associations

    # -- Table 2 operations --------------------------------------------------

    def domain(self) -> set[str]:
        """``Domain(map)``: the distinct source objects (Table 2)."""
        return {assoc.source_accession for assoc in self.associations}

    def range(self) -> set[str]:
        """``Range(map)``: the distinct target objects (Table 2)."""
        return {assoc.target_accession for assoc in self.associations}

    def restrict_domain(self, objects: Iterable[str]) -> "Mapping":
        """``RestrictDomain(map, s)``: keep associations whose source
        object is in ``objects`` (Table 2)."""
        wanted = set(objects)
        kept = tuple(
            assoc for assoc in self.associations if assoc.source_accession in wanted
        )
        return dataclasses.replace(self, associations=kept)

    def restrict_range(self, objects: Iterable[str]) -> "Mapping":
        """``RestrictRange(map, t)``: keep associations whose target object
        is in ``objects`` (Table 2)."""
        wanted = set(objects)
        kept = tuple(
            assoc for assoc in self.associations if assoc.target_accession in wanted
        )
        return dataclasses.replace(self, associations=kept)

    # -- derived views of the association set --------------------------------

    def invert(self) -> "Mapping":
        """The same mapping oriented target → source."""
        return Mapping(
            source=self.target,
            target=self.source,
            associations=tuple(assoc.reversed() for assoc in self.associations),
            rel_type=self.rel_type,
        )

    def pair_set(self) -> set[tuple[str, str]]:
        """The associations as a set of (source, target) accession pairs.

        Memoized: built once per instance, so ``pair in mapping`` is O(1)
        after the first probe.  Treat the result as read-only.
        """
        cached = self.__dict__.get("_pair_set")
        if cached is None:
            cached = {
                (assoc.source_accession, assoc.target_accession)
                for assoc in self.associations
            }
            object.__setattr__(self, "_pair_set", cached)
        return cached

    def _grouped(self) -> dict[str, tuple[Association, ...]]:
        """Memoized source accession -> associations grouping.

        The groups are tuples: a cached mapping keeps its grouping for
        life, and tuples take about two thirds of the memory of lists.
        """
        cached = self.__dict__.get("_grouped_by_source")
        if cached is None:
            grouped: dict[str, list[Association]] = defaultdict(list)
            for assoc in self.associations:
                grouped[assoc.source_accession].append(assoc)
            cached = {source: tuple(group) for source, group in grouped.items()}
            object.__setattr__(self, "_grouped_by_source", cached)
        return cached

    def targets_of(self, source_accession: str) -> list[str]:
        """Target accessions associated with one source object, sorted."""
        return sorted(
            assoc.target_accession
            for assoc in self._grouped().get(source_accession, ())
        )

    def as_dict(self) -> dict[str, list[Association]]:
        """source accession -> its associations (insertion order).

        The outer dict and its lists are fresh copies; mutating them does
        not corrupt the memoized grouping.
        """
        return {
            source: list(associations)
            for source, associations in self._grouped().items()
        }

    def filter_evidence(self, threshold: float) -> "Mapping":
        """Keep associations with evidence >= threshold."""
        kept = tuple(
            assoc for assoc in self.associations if assoc.evidence >= threshold
        )
        return dataclasses.replace(self, associations=kept)

    def cardinality(self) -> str:
        """The mapping's cardinality class: ``1:1``, ``1:n``, ``n:1`` or
        ``n:m`` (paper Section 3: relationships of different cardinality
        can be defined at the source and object level).

        An empty mapping is classified ``1:1`` (nothing contradicts it).
        """
        per_source: dict[str, int] = {}
        per_target: dict[str, int] = {}
        for assoc in self.associations:
            per_source[assoc.source_accession] = (
                per_source.get(assoc.source_accession, 0) + 1
            )
            per_target[assoc.target_accession] = (
                per_target.get(assoc.target_accession, 0) + 1
            )
        source_fans_out = bool(per_source) and max(per_source.values()) > 1
        target_fans_out = bool(per_target) and max(per_target.values()) > 1
        if source_fans_out and target_fans_out:
            return "n:m"
        if source_fans_out:
            return "1:n"
        if target_fans_out:
            return "n:1"
        return "1:1"

    def min_evidence(self) -> float:
        """Smallest evidence value, or 1.0 for an empty mapping."""
        if not self.associations:
            return 1.0
        return min(assoc.evidence for assoc in self.associations)

    def describe(self) -> str:
        """One-line description for logs and the CLI."""
        kind = self.rel_type.value if self.rel_type else "?"
        return (
            f"{self.source} ↔ {self.target} [{kind}]:"
            f" {len(self.associations)} associations,"
            f" |domain|={len(self.domain())}, |range|={len(self.range())}"
        )
