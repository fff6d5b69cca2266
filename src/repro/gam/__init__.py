"""GAM — the Generic Annotation Model substrate (paper Section 3).

The GAM uniformly represents molecular-biological objects, annotations,
ontologies and the relationships between them in four relational tables:
``SOURCE``, ``OBJECT``, ``SOURCE_REL`` and ``OBJECT_REL``.
"""

from repro.gam.database import GamDatabase
from repro.gam.enums import (
    MAPPING_TYPES,
    CombineMethod,
    RelType,
    SourceContent,
    SourceStructure,
)
from repro.gam.errors import (
    DuplicateSourceError,
    ExportError,
    GamIntegrityError,
    GamSchemaError,
    GenMapperError,
    ImportError_,
    ParseError,
    PathNotFoundError,
    QuerySpecError,
    UnknownMappingError,
    UnknownObjectError,
    UnknownSourceError,
    ViewGenerationError,
)
from repro.gam.dump import (
    canonical_snapshot,
    dump_database,
    dump_records,
    load_database,
)
from repro.gam.integrity import IntegrityReport, IntegrityViolation, check
from repro.gam.maintenance import (
    DeletionReport,
    delete_source,
    drop_derived,
    prune_orphan_objects,
    vacuum,
)
from repro.gam.records import Association, GamObject, ObjectRel, Source, SourceRel
from repro.gam.statistics import (
    DatabaseStatistics,
    MappingStat,
    SourceStat,
    collect_statistics,
)
from repro.gam.repository import GamRepository

__all__ = [
    "MAPPING_TYPES",
    "Association",
    "CombineMethod",
    "DatabaseStatistics",
    "DeletionReport",
    "MappingStat",
    "SourceStat",
    "collect_statistics",
    "canonical_snapshot",
    "dump_database",
    "dump_records",
    "load_database",
    "delete_source",
    "drop_derived",
    "prune_orphan_objects",
    "vacuum",
    "DuplicateSourceError",
    "ExportError",
    "GamDatabase",
    "GamIntegrityError",
    "GamObject",
    "GamRepository",
    "GamSchemaError",
    "GenMapperError",
    "ImportError_",
    "IntegrityReport",
    "IntegrityViolation",
    "ObjectRel",
    "ParseError",
    "PathNotFoundError",
    "QuerySpecError",
    "RelType",
    "Source",
    "SourceContent",
    "SourceRel",
    "SourceStructure",
    "UnknownMappingError",
    "UnknownObjectError",
    "UnknownSourceError",
    "ViewGenerationError",
    "check",
]
