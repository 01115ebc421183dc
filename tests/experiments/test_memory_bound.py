"""A run's memory is bounded by its live state.

Both event engines hold the cyclic GC off for the whole dispatch loop,
so anything that dies inside a reference cycle stays allocated until the
run ends. These tests run whole scenarios with the GC held throughout,
then ask the collector, with ``gc.DEBUG_SAVEALL``, what it would have had
to free: no connection, request, worker or event may be among it. Every
such object must have been freed by refcounting the moment it died (the
engines' release rule for fired/cancelled events, and the connections'
hook release at end of life).
"""

import gc
from collections import Counter

from repro.experiments.exp2_floods import CHALLENGES_M8, FloodExperiment
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults.chaos import default_fault_matrix
from repro.obs import TelemetrySpec
from repro.tcp.constants import DefenseMode

#: Per-connection simulation objects that must never die in a cycle.
TRACKED = ("ClientConnection", "ServerConnection", "_Request", "_Worker",
           "Event")


def run_and_count_cyclic_garbage(run):
    """Call *run* with the GC held; return its result and the cyclic
    garbage it left behind, counted by type name (:data:`TRACKED` only).

    The result is still alive when the collector looks, so everything it
    reaches is live state, not garbage.
    """
    gc.collect()  # start from a clean slate: earlier garbage is not ours
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    try:
        result = run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage
                         if type(obj).__name__ in TRACKED)
        return result, leaked
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_fig7_challenge_cell_leaks_no_connection_state():
    config = FloodExperiment(
        defense=CHALLENGES_M8, attack_style="syn",
        base=ScenarioConfig(seed=1, time_scale=0.01)).config()
    result, leaked = run_and_count_cyclic_garbage(Scenario(config).run)
    assert leaked == Counter()
    # The cell did real work: requests were served and torn down.
    assert result.server_app.stats.requests_served > 100


def test_chaos_baseline_row_leaks_no_connection_state():
    config = ScenarioConfig(
        seed=1, time_scale=0.01, n_clients=6, n_attackers=4,
        attack_style="connect", attack_enabled=True,
        defense=DefenseMode.PUZZLES, always_challenge=True,
        telemetry=TelemetrySpec(attribution=True))
    scenario = Scenario(config,
                        faults=default_fault_matrix(config)["baseline"],
                        invariant_interval=0.25)
    result, leaked = run_and_count_cyclic_garbage(scenario.run)
    assert leaked == Counter()
    assert result.server_app.stats.requests_served > 0
