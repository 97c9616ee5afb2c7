"""Layer benchmarks (pytest-benchmark), kept out of the tier-1 ``testpaths``.

Run from the repository root with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks \
        --benchmark-json=/tmp/bench.json

``benchmarks/compare.py`` merges two such files (before and after a
change) into a ``BENCH_<n>.json`` record.  Every case uses fixed inputs,
so runs on two checkouts time the same work.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nltimebin import circuit, fit, vibsim


@pytest.mark.parametrize("theta_perp", [0.0, 0.2])
@pytest.mark.parametrize("phases", [25, 101])
def test_model_triple(benchmark, phases, theta_perp):
    phis = np.linspace(0.0, 2.0 * math.pi, phases)
    out = benchmark(circuit.model_triple, phis, 0.9, 0.2, theta_perp)
    assert out.shape == (phases, 3)


def test_fit_nl_distinguishability(benchmark):
    phis = np.linspace(0.0, 2.0 * math.pi, 25)
    rng = np.random.default_rng(7)
    errors = np.full((phis.size, 3), 0.005)
    triples = circuit.model_triple(phis, 0.9, 0.2, 0.2) + errors * rng.normal(size=errors.shape)
    result = benchmark.pedantic(
        fit.fit_nl, args=(phis, triples, errors), kwargs={"fit_distinguishability": True},
        rounds=3, iterations=1,
    )
    assert result.converged


def test_vibsim_trace(benchmark):
    points = benchmark(vibsim.trace, 0.5, 51, vibsim.water_spec())
    assert len(points) == 51
