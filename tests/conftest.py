"""Shared fixtures: coarse configs and cached coupled solutions.

Session scope solves each fixture's coupled cases (banded Cholesky solves
and channel marches) once per run.
"""

import numpy as np
import pytest

from rodtwin.config import MeshConfig, TwinConfig
from rodtwin.pipeline import CaseSpec, couple_rod_channel, generate_dataset


@pytest.fixture(scope="session")
def cfg_coarse():
    return TwinConfig(mesh=MeshConfig(nr_fuel=6, nr_clad=3, nz=40))


@pytest.fixture(scope="session")
def cfg_tiny():
    return TwinConfig(mesh=MeshConfig(nr_fuel=4, nr_clad=2, nz=12))


@pytest.fixture(scope="session")
def coupled20(cfg_coarse):
    """Coupled 20 kW/m case on the coarse mesh."""
    spec = CaseSpec(case_id="c20", q0=20e3, burnup=0.0, split="test")
    return couple_rod_channel(spec, cfg_coarse)


@pytest.fixture(scope="session")
def dataset_tiny(cfg_tiny):
    """Three-case dataset on the tiny mesh, one case per split."""
    specs = [CaseSpec(case_id="tr_a", q0=14e3, burnup=0.0, split="train"),
             CaseSpec(case_id="tr_b", q0=26e3, burnup=0.0, split="train"),
             CaseSpec(case_id="va_a", q0=18e3, burnup=0.0, split="validate"),
             CaseSpec(case_id="te_a", q0=20e3, burnup=0.0, split="test")]
    return generate_dataset(specs, cfg_tiny, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# verdict lines recorded by the acceptance gate; echoed after the run so
# they survive pytest's fd-level capture
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def outlet_from_energy_balance(power, bc):
    """Invert the enthalpy integral int cp dT = power / (G A) on the water table."""
    from scipy.integrate import cumulative_trapezoid

    from rodtwin.core import WATER_T_MAX, water_properties

    T = np.arange(bc.T_in, WATER_T_MAX, 0.01)
    cp = np.array([water_properties(float(t)).cp for t in T])
    H = cumulative_trapezoid(cp, T, initial=0.0)
    target = power / (bc.G * bc.flow_area)
    return float(np.interp(target, H, T))
