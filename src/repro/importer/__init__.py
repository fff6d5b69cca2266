"""Data import — the generic EAV-to-GAM Import step and its orchestration."""

from repro.importer.diff import (
    ReleaseDiff,
    TargetDiff,
    diff_against_store,
    diff_datasets,
)
from repro.importer.importer import GamImporter, ImportPlan, ImportReport, plan_import
from repro.importer.pipeline import (
    IntegrationPipeline,
    ManifestEntry,
    read_manifest,
    write_manifest,
)

__all__ = [
    "GamImporter",
    "ReleaseDiff",
    "TargetDiff",
    "diff_against_store",
    "diff_datasets",
    "ImportPlan",
    "ImportReport",
    "IntegrationPipeline",
    "ManifestEntry",
    "plan_import",
    "read_manifest",
    "write_manifest",
]
