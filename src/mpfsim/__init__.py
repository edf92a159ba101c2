"""Randomized sampling of multi-product formulas for Hamiltonian simulation.

The package splits into operator algebra (:mod:`mpfsim.operators`), product
formula schedules (:mod:`mpfsim.schedules`), multi-product formula
construction (:mod:`mpfsim.mpf`), closed-form error bounds and shot planning
(:mod:`mpfsim.bounds`), node-vector optimization (:mod:`mpfsim.optimize`),
the shot-level circuit simulator (:mod:`mpfsim.sampling`), benchmark
Hamiltonians (:mod:`mpfsim.models`), grid sweeps (:mod:`mpfsim.sweep`) and
the command-line harness (:mod:`mpfsim.cli`).
"""

from .bounds import (
    g_factor,
    hoeffding_shots,
    lemma_closeness_check,
    new_bound,
    resolution_shots,
    ts_bound,
    ts_oracle_calls,
    zeta_cf,
    zeta_matching,
)
from .ensembles import SamplingEnsemble, materialize, mixture_mean
from .mpf import (
    ChildsWiebe,
    ClosedFormMPF,
    MatchingMPF,
    build_closedform,
    build_matching,
    closedform_nu,
    cw_coefficients,
    matching_nu,
    mpf_ensemble,
    mpf_matrix,
    scalar_series,
    solve_vandermonde,
)
from .models import anticommuting, free_fermion, heisenberg, hubbard_2x2, jw_majorana, syk
from .operators import (
    HamiltonianSpec,
    Observable,
    QuantumState,
    exact_evolution,
    expectation,
    hamiltonian,
    hermitian_term,
    lambda_norm,
    observable,
    pauli_string,
    spectral_distance,
)
from .optimize import OptimizerConfig, OptimResult, optimize_mpf
from .sampling import expected_value, run_estimator
from .schedules import (
    ExponentSchedule,
    merge_adjacent,
    remainder_bound,
    s1_schedule,
    s2_schedule,
    schedule_matrix,
    suzuki_schedule,
)

__version__ = "0.1.0"
