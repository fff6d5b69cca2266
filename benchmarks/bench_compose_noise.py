"""Ablation: Compose under violated transitivity (noise sweep).

Paper Section 4.2's caveat — "Compose may lead to wrong associations when
the transitivity assumption does not hold" — and its future-work note on
reduced-evidence mappings, quantified:

* precision of a 2-hop composition as the first leg's rewiring rate grows
  (expected: precision ≈ 1 - rate),
* the evidence-filter countermeasure: rewired associations carry reduced
  evidence, so filtering the composed mapping by evidence restores
  precision at a recall cost.
"""

import numpy as np
import pytest

from repro.datagen.noise import rewire
from repro.operators.mapping import Mapping
from tests.oracle import compose_pair

N = 1000


@pytest.fixture(scope="module")
def legs():
    ab = Mapping.build("A", "B", [(f"a{i}", f"b{i}") for i in range(N)])
    bc = Mapping.build("B", "C", [(f"b{i}", f"c{i}") for i in range(N)])
    truth = {(f"a{i}", f"c{i}") for i in range(N)}
    return ab, bc, truth


def _precision(composed, truth):
    if not len(composed):
        return 0.0
    return len(composed.pair_set() & truth) / len(composed)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
def test_precision_tracks_noise_rate(legs, rate):
    ab, bc, truth = legs
    rng = np.random.default_rng(11)
    noisy_ab, __ = rewire(ab, rate, rng)
    composed = compose_pair(noisy_ab, bc)
    precision = _precision(composed, truth)
    assert abs(precision - (1.0 - rate)) < 0.07


def test_evidence_filter_restores_precision(legs):
    ab, bc, truth = legs
    rng = np.random.default_rng(13)
    noisy_ab, __ = rewire(ab, 0.3, rng, evidence=0.5)
    composed = compose_pair(noisy_ab, bc)
    filtered = composed.filter_evidence(0.9)
    assert _precision(filtered, truth) == 1.0
    # The cost: recall drops to the clean fraction.
    recall = len(filtered.pair_set() & truth) / len(truth)
    assert 0.6 <= recall <= 0.8


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_bench_compose_under_noise(benchmark, legs, rate):
    ab, bc, truth = legs
    rng = np.random.default_rng(17)
    noisy_ab, __ = rewire(ab, rate, rng)

    composed = benchmark(compose_pair, noisy_ab, bc)
    benchmark.extra_info["experiment"] = f"Compose noise ablation: rate={rate}"
    benchmark.extra_info["precision"] = round(_precision(composed, truth), 3)


def test_bench_noise_injection(benchmark, legs):
    ab, __, __t = legs
    rng = np.random.default_rng(19)
    noisy, corrupted = benchmark(rewire, ab, 0.3, rng)
    assert corrupted
    benchmark.extra_info["experiment"] = "Noise injection (rewire 30%)"
