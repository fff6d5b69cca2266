"""Tests for noise injection on mappings (repro.datagen.noise)."""

import numpy as np
import pytest

from repro.datagen.noise import degrade_evidence, drop, rewire
from repro.operators.mapping import Mapping


@pytest.fixture()
def mapping():
    pairs = [(f"s{i}", f"t{i % 10}") for i in range(100)]
    return Mapping.build("A", "B", pairs)


@pytest.fixture()
def rng():
    return np.random.default_rng(5)


class TestRewire:
    def test_zero_rate_is_identity(self, mapping, rng):
        noisy, corrupted = rewire(mapping, 0.0, rng)
        assert noisy.pair_set() == mapping.pair_set()
        assert corrupted == set()

    def test_rate_one_rewires_everything(self, mapping, rng):
        noisy, corrupted = rewire(mapping, 1.0, rng)
        assert corrupted
        # No original pair survives except accidental re-collisions.
        assert noisy.pair_set() & mapping.pair_set() <= mapping.pair_set()
        assert len(corrupted) >= 0.8 * len(mapping)

    def test_corrupted_pairs_are_in_noisy_not_truth(self, mapping, rng):
        noisy, corrupted = rewire(mapping, 0.3, rng)
        assert corrupted <= noisy.pair_set()
        assert not corrupted & mapping.pair_set()

    def test_rewired_associations_carry_reduced_evidence(self, mapping, rng):
        noisy, corrupted = rewire(mapping, 0.5, rng, evidence=0.4)
        for pair in corrupted:
            assoc = next(
                a
                for a in noisy
                if (a.source_accession, a.target_accession) == pair
            )
            assert assoc.evidence == pytest.approx(0.4)

    def test_size_preserved(self, mapping, rng):
        noisy, __ = rewire(mapping, 0.3, rng)
        # Rewiring may merge onto an existing pair, so <=.
        assert len(noisy) <= len(mapping)
        assert len(noisy) >= 0.9 * len(mapping)

    def test_deterministic_given_rng_seed(self, mapping):
        first, c1 = rewire(mapping, 0.3, np.random.default_rng(9))
        second, c2 = rewire(mapping, 0.3, np.random.default_rng(9))
        assert first.pair_set() == second.pair_set()
        assert c1 == c2

    def test_invalid_rate_rejected(self, mapping, rng):
        with pytest.raises(ValueError):
            rewire(mapping, 1.5, rng)

    def test_tiny_range_returns_unchanged(self, rng):
        mapping = Mapping.build("A", "B", [("s1", "t1")])
        noisy, corrupted = rewire(mapping, 1.0, rng)
        assert noisy.pair_set() == mapping.pair_set()
        assert corrupted == set()


class TestDegradeEvidence:
    def test_pairs_unchanged(self, mapping, rng):
        degraded = degrade_evidence(mapping, 0.5, rng)
        assert degraded.pair_set() == mapping.pair_set()

    def test_evidence_within_bounds(self, mapping, rng):
        degraded = degrade_evidence(mapping, 1.0, rng, low=0.2, high=0.7)
        for assoc in degraded:
            assert 0.2 <= assoc.evidence <= 0.7

    def test_zero_rate_keeps_evidence(self, mapping, rng):
        degraded = degrade_evidence(mapping, 0.0, rng)
        assert all(a.evidence == 1.0 for a in degraded)

    def test_invalid_rate_rejected(self, mapping, rng):
        with pytest.raises(ValueError):
            degrade_evidence(mapping, -0.1, rng)


class TestDrop:
    def test_drop_removes_fraction(self, mapping, rng):
        dropped = drop(mapping, 0.5, rng)
        assert dropped.pair_set() < mapping.pair_set()
        assert 0.3 * len(mapping) <= len(dropped) <= 0.7 * len(mapping)

    def test_drop_zero_is_identity(self, mapping, rng):
        assert drop(mapping, 0.0, rng).pair_set() == mapping.pair_set()

    def test_drop_all(self, mapping, rng):
        assert drop(mapping, 1.0, rng).is_empty()

    def test_invalid_rate_rejected(self, mapping, rng):
        with pytest.raises(ValueError):
            drop(mapping, 2.0, rng)


class TestComposeUnderNoise:
    def test_precision_degrades_with_noise(self, rng):
        """The paper's caveat, quantified: composing through a noisy
        mapping produces wrong associations roughly at the noise rate."""
        from tests.oracle import compose_pair

        ab = Mapping.build(
            "A", "B", [(f"a{i}", f"b{i}") for i in range(200)]
        )
        bc = Mapping.build(
            "B", "C", [(f"b{i}", f"c{i}") for i in range(200)]
        )
        truth = {(f"a{i}", f"c{i}") for i in range(200)}
        noisy_ab, __ = rewire(ab, 0.2, rng)
        composed = compose_pair(noisy_ab, bc)
        correct = len(composed.pair_set() & truth)
        precision = correct / len(composed)
        assert 0.7 <= precision <= 0.9  # ~1 - rate

    def test_evidence_flags_untrusted_chains(self, rng):
        from tests.oracle import compose_pair

        ab = Mapping.build("A", "B", [(f"a{i}", f"b{i}") for i in range(50)])
        bc = Mapping.build("B", "C", [(f"b{i}", f"c{i}") for i in range(50)])
        truth = {(f"a{i}", f"c{i}") for i in range(50)}
        noisy_ab, corrupted = rewire(ab, 0.3, rng, evidence=0.5)
        composed = compose_pair(noisy_ab, bc)
        # Filtering by evidence recovers perfect precision: every wrong
        # chain went through a rewired (low-evidence) association.
        trusted = composed.filter_evidence(0.9)
        assert trusted.pair_set() <= truth
