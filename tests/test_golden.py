"""One sha256 over what the program does on every committed scenario.

It covers each scenario's trace under all five algorithms with observation
sharing on and off, and the offline optimum of each query, its cost as
``float.hex``. Traces are byte-identical unless a change alters behaviour
on purpose; such a change records the new digest here and says why.
"""

import hashlib
import json

from dynroute import ALGORITHMS, SimConfig, load_scenario, offline_optimal, run_simulation
from dynroute.simulate import TruthTimeline

GOLDEN = "d41c40af63517ac432d182e76a443b1b84a7aa2d0d1507f643759b8d84dc5948"


def test_committed_scenarios_match_the_golden_digest(scenario_dir):
    digest = hashlib.sha256()
    paths = sorted(scenario_dir.rglob("*.scn"))
    assert len(paths) == 124
    for path in paths:
        scn = load_scenario(path.read_text())
        digest.update(path.relative_to(scenario_dir).as_posix().encode())
        for share in (True, False):
            cfg = SimConfig(share_observations=share)
            truth = TruthTimeline(scn, cfg.epoch_s)
            for algo in ALGORITHMS:
                trace = run_simulation(scn, cfg, algo, truth)
                digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
        for q in scn.queries:
            r = offline_optimal(scn, q, truth)
            digest.update(json.dumps(
                [r.vehicle, r.optimal_realized_cost.hex(), list(r.optimal_path)]).encode())
    assert digest.hexdigest() == GOLDEN
