"""Layer and CLI benchmarks (pytest-benchmark), kept out of the tier-1 ``testpaths``.

Run from the repository root with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks \
        --benchmark-json=/tmp/bench.json

``benchmarks/compare.py`` merges such files, from rounds that alternate
the parent and the change, into a ``BENCH_<n>.json`` record.  Every case uses fixed inputs,
so runs on two checkouts time the same work.  The ``test_cli`` cases
time whole subcommands, start-up included, each round in a fresh
interpreter that imports the same ``src/`` as this process.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nltimebin
from nltimebin import circuit, fit, scatter, vibsim


@pytest.mark.parametrize("theta_perp", [0.0, 0.2])
@pytest.mark.parametrize("phases", [25, 101])
def test_model_triple(benchmark, phases, theta_perp):
    phis = np.linspace(0.0, 2.0 * math.pi, phases)
    out = benchmark(circuit.model_triple, phis, 0.9, 0.2, theta_perp)
    assert out.shape == (phases, 3)


@pytest.mark.parametrize("theta_perp", [0.0, 0.2])
@pytest.mark.parametrize("phases", [25, 101])
def test_peak_cell_probabilities(benchmark, phases, theta_perp):
    phis = np.linspace(0.0, 2.0 * math.pi, phases)
    out = benchmark(circuit.peak_cell_probabilities, phis, 0.9, 0.2, theta_perp)
    assert out.shape == (phases, 6, 3, 3)


def test_fit_nl(benchmark):
    phis = np.linspace(0.15, 2.95, 9)
    triples, errors = circuit.sample_statistics(phis, 1.021104, 0.275712, 100_000, 5)
    result = benchmark(fit.fit_nl, phis, triples, errors)
    assert result.converged


def test_fit_nl_distinguishability(benchmark):
    phis = np.linspace(0.0, 2.0 * math.pi, 25)
    rng = np.random.default_rng(7)
    errors = np.full((phis.size, 3), 0.005)
    triples = circuit.model_triple(phis, 0.9, 0.2, 0.2) + errors * rng.normal(size=errors.shape)
    # fit_nl takes normalized rows only.
    triples /= triples.sum(axis=1, keepdims=True)
    result = benchmark.pedantic(
        fit.fit_nl, args=(phis, triples, errors), kwargs={"fit_distinguishability": True},
        rounds=3, iterations=1,
    )
    assert result.converged


def test_fit_nl_distinguishability_null(benchmark):
    # Linear-circuit data (phi_nl = ell_nl = 0): the optimum sits at the
    # corner of the physical region, where the arc meets the edge t = 1.
    phis = np.linspace(0.0, 2.0 * math.pi, 25)
    triples, errors = circuit.sample_statistics(phis, 0.0, 0.0, 100_000, 3)
    result = benchmark(fit.fit_nl, phis, triples, errors, fit_distinguishability=True)
    assert result.converged


def test_vibsim_trace(benchmark):
    times, anharmonic, harmonic = benchmark(vibsim.trace, 0.5, 51, vibsim.water_spec())
    assert np.shape(times) == (51,)
    assert np.shape(anharmonic) == np.shape(harmonic) == (51, 3)


@pytest.mark.parametrize("delta, sigma", [(0.0, 1.0), (6.0, 0.3)])
def test_nonlinear_params_cold(benchmark, delta, sigma):
    # (6, 0.3) puts the emitter line outside the total-frequency window.
    params = benchmark(scatter.nonlinear_params, scatter.PulseSpec(delta, sigma))
    assert 0.0 < params.eta <= 1.0


def test_legendre_rules_cold(benchmark):
    # The two panel rules a fresh process builds: 256 nodes, and 512 for
    # the node-doubling check.
    def cold():
        scatter._leggauss.cache_clear()
        return scatter._leggauss(256), scatter._leggauss(512)

    rules = benchmark(cold)
    assert rules[1][0].shape == (512,)


def test_jti(benchmark):
    intensity = benchmark(scatter.jti, scatter.PulseSpec(0.0, 1.0))
    assert intensity.shape == (256, 256)


def test_sample_statistics(benchmark):
    phis = np.linspace(0.0, 2.0 * math.pi, 25)
    triples, _ = benchmark(circuit.sample_statistics, phis, 0.9, 0.2, 100_000, 3)
    assert triples.shape == (25, 3)


def test_fit_fringe(benchmark):
    phis = np.linspace(0.0, 2.0 * math.pi, 61)
    rng = np.random.default_rng(7)
    data = 0.25 * (1.0 + 0.971 * np.cos(2.0 * phis - 0.8)) + rng.normal(0.0, 0.001, phis.size)
    result = benchmark(fit.fit_fringe, phis, data, np.full(phis.size, 0.001))
    assert result.converged


@pytest.mark.parametrize("points", [512, 262_144])
def test_faddeeva(benchmark, points):
    # The bound-channel arguments of a unit-width pulse: a profile panel
    # pair has 512 of them; 512^2 is the large-array regime.
    s = np.linspace(-16.0, 16.0, points)
    z = (0.5 * s + 1j) / math.sqrt(2.0)
    out = benchmark(scatter.faddeeva, z)
    assert out.shape == (points,)


CLI_RUNS = {
    "help": ["--help"],
    # The start-up perfbench's setup_s times on the sweep workload.
    "characterize_help": ["characterize", "--help"],
    "characterize": ["characterize", "--sigma", "0.5,1,3", "--grid", "11"],
    "fringe": ["fringe", "--delta", "0.5", "--grid", "101"],
    "fringe_sampled": ["fringe", "--delta", "0.5", "--grid", "25", "--shots", "100000"],
    "jti": ["jti", "--delta", "0.5"],
    "water": ["water", "--steps", "51"],
    "fit": ["fit", "--data", "{stats}"],
    "fit_distinguishability": ["fit", "--data", "{stats}", "--distinguishability"],
}


@pytest.fixture(scope="module")
def cli_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(nltimebin.__file__).resolve().parents[1])
    return env


@pytest.fixture(scope="module")
def stats_csv(tmp_path_factory, cli_env):
    out = tmp_path_factory.mktemp("stats")
    argv = ["fringe", "--delta", "0.5", "--grid", "25", "--shots", "100000", "--seed", "7"]
    subprocess.run([sys.executable, "-m", "nltimebin", *argv, "--out", str(out)],
                   env=cli_env, check=True, capture_output=True)
    return out / "fringe.csv"


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_cli(benchmark, name, tmp_path, cli_env, stats_csv):
    argv = [arg.format(stats=stats_csv) for arg in CLI_RUNS[name]]
    if "--help" not in argv:
        argv += ["--out", str(tmp_path)]
    command = [sys.executable, "-m", "nltimebin", *argv]
    proc = benchmark.pedantic(
        subprocess.run, args=(command,), kwargs={"env": cli_env, "capture_output": True},
        rounds=5, iterations=1,
    )
    assert proc.returncode == 0, proc.stderr
