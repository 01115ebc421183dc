"""Reproduction of the paper's evaluation (§6), experiment by experiment.

Every module regenerates one table or figure; see DESIGN.md for the index.
The shared scenario machinery lives in :mod:`repro.experiments.scenario`:
a single server under (optional) attack from a botnet while 15 benign
clients request text — the §6 testbed in simulation.

The paper's 600 s timeline is scaled down by default (see
``ScenarioConfig.time_scale``); rates are paper-identical.

The exports below load on first use (PEP 562 ``__getattr__``), so
importing one experiment module does not import all the others.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "Scenario": "scenario",
    "ScenarioConfig": "scenario",
    "ScenarioResult": "scenario",
    "ScenarioSummary": "summary",
    "run_scenario_summary": "summary",
    "summarize": "summary",
    "client_profile_table": "profiling_fig3",
    "server_stress_test": "profiling_fig3",
    "ConnectionTimeExperiment": "exp1_connection_time",
    "connection_time_cdf_grid": "exp1_connection_time",
    "FloodExperiment": "exp2_floods",
    "run_syn_flood_suite": "exp2_floods",
    "run_connection_flood_suite": "exp2_floods",
    "difficulty_sweep": "exp3_nash",
    "per_node_rate_sweep": "exp4_botnet",
    "botnet_size_sweep": "exp4_botnet",
    "adoption_study": "exp5_adoption",
    "iot_profile_table": "exp6_iot",
    "iot_botnet_scenario": "exp6_iot",
    "controller_ablation": "ablations",
    "expiry_window_ablation": "ablations",
    "finite_n_convergence": "ablations",
    "syncache_ablation": "ablations",
    "adaptive_difficulty_experiment": "extensions",
    "fair_queuing_experiment": "extensions",
    "keepalive_experiment": "extensions",
    "pow_fairness_table": "extensions",
    "solution_flood_experiment": "extensions",
    "dropout_prediction_table": "heterogeneous",
    "mixed_clientele_experiment": "heterogeneous",
    "run_validation": "validation",
    "bar_chart": "figures",
    "line_chart": "figures",
    "sparkline": "figures",
    "render_table": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
