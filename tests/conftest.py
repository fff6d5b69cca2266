"""Shared fixtures: paper constants and a populated synthetic universe."""

from __future__ import annotations

import pytest

from repro.core.genmapper import GenMapper
from repro.datagen.emit import write_universe
from repro.datagen.universe import UniverseConfig, generate_universe

#: The LocusLink record of the paper's running example (Figure 1 /
#: Table 1): locus 353, APRT, with Hugo/Location/Enzyme/GO annotations.
LOCUS_353_RECORD = """\
>>353
OFFICIAL_SYMBOL: APRT
NAME: adenine phosphoribosyltransferase
CHR: 16
MAP: 16q24
ECNUM: 2.4.2.7
GO: GO:0009116|nucleoside metabolism
OMIM: 102600
UNIGENE: Hs.28914
ALIAS_SYMBOL: AMP
"""

#: A minimal GO OBO snippet containing the term of the running example.
GO_MINI_OBO = """\
format-version: 1.2

[Term]
id: GO:0008150
name: biological process
namespace: biological_process

[Term]
id: GO:0009117
name: nucleotide metabolism
namespace: biological_process
is_a: GO:0008150 ! biological process

[Term]
id: GO:0009116
name: nucleoside metabolism
namespace: biological_process
is_a: GO:0009117 ! nucleotide metabolism
"""

#: A UniGene cluster record pointing back at locus 353.
UNIGENE_MINI = """\
ID          Hs.28914
TITLE       adenine phosphoribosyltransferase
GENE        APRT
LOCUSLINK   353
CHROMOSOME  16
//
"""


@pytest.fixture()
def genmapper():
    """An empty in-memory GenMapper."""
    with GenMapper() as gm:
        yield gm


def _paper_genmapper(**options):
    gm = GenMapper(**options)
    gm.integrate_text(LOCUS_353_RECORD, "LocusLink")
    gm.integrate_text(GO_MINI_OBO, "GO")
    gm.integrate_text(UNIGENE_MINI, "Unigene")
    return gm


@pytest.fixture()
def paper_genmapper():
    """A GenMapper loaded with the paper's running example data."""
    with _paper_genmapper() as gm:
        yield gm


@pytest.fixture()
def cached_paper_genmapper():
    """``paper_genmapper`` with the mapping cache on even under
    ``REPRO_CACHE=off``: serving a stale mapping needs a cached one."""
    with _paper_genmapper(enable_cache=True) as gm:
        yield gm


@pytest.fixture(scope="session")
def universe():
    """A small deterministic synthetic universe (shared, read-only)."""
    return generate_universe(UniverseConfig(seed=11, n_genes=60, n_go_terms=45))


@pytest.fixture(scope="session")
def universe_dir(universe, tmp_path_factory):
    """The universe written as native source files plus manifest."""
    directory = tmp_path_factory.mktemp("universe")
    write_universe(universe, directory)
    return directory


@pytest.fixture(scope="session")
def loaded_genmapper(universe_dir):
    """A GenMapper with the whole synthetic universe imported.

    Session-scoped for speed; tests must not mutate it.  Use the
    function-scoped ``genmapper`` fixture for write tests.
    """
    gm = GenMapper()
    gm.integrate_directory(universe_dir)
    yield gm
    gm.close()
