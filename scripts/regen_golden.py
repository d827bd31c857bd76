#!/usr/bin/env python
"""Regenerate the golden fixtures under ``tests/golden/``.

Run from the repo root::

    PYTHONPATH=src python scripts/regen_golden.py

Writes the campaign dataset digests plus the digests of the us-west1
topology selection and of the Speedchecker study over the three
differential regions (``digests.json``) and the pinned
congestion-detection output (``congestion_detection.json``).  Only
commit the result when a behaviour change was *intentional*: the
fixtures are the determinism contract that makes silent drift in the
campaign pipeline or the detector a tier-1 failure.
"""

from __future__ import annotations

import json
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.core.congestion import detect               # noqa: E402
from repro.core.export import dataset_digest          # noqa: E402
from repro.experiments.scenario import build_scenario  # noqa: E402
from repro.faults import FaultPlan                     # noqa: E402

from tests.fixtures_congestion import (                # noqa: E402
    regression_dataset, serialize_report)
from tests.fixtures_golden import (                    # noqa: E402
    BUDGET_SERVERS, DAYS, REGION, SCALE, SEED, selection_digest,
    speedchecker_digest)

GOLDEN_PATH = _ROOT / "tests" / "golden" / "digests.json"
DETECTION_PATH = (_ROOT / "tests" / "golden"
                  / "congestion_detection.json")


def run_campaign(faults):
    scenario = build_scenario(seed=SEED, scale=SCALE, faults=faults)
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    return selection, clasp.run_campaign([plan], days=DAYS)


def speedchecker_medians():
    scenario = build_scenario(seed=SEED, scale=SCALE)
    return scenario.clasp.speedchecker_medians(
        list(scenario.differential_regions))


def main() -> int:
    selection, faults_off = run_campaign(None)
    _selection, faults_default = run_campaign(FaultPlan.default())
    golden = {
        "_comment": f"Golden dataset digests: seed={SEED} scale={SCALE} "
                    f"{REGION} budget_servers={BUDGET_SERVERS} "
                    f"days={DAYS}. Regenerate with "
                    f"scripts/regen_golden.py only when an intentional "
                    f"behaviour change shifts the dataset.",
        "faults_off": dataset_digest(faults_off),
        "faults_default": dataset_digest(faults_default),
        "selection_us_west1": selection_digest(selection),
        "speedchecker_medians": speedchecker_digest(speedchecker_medians()),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n",
                           encoding="utf-8")
    print(json.dumps(golden, indent=1))
    print(f"wrote {GOLDEN_PATH}")

    detection = {
        "_comment": "Pinned detect() output over the multi-offset, "
                    "non-midnight-start dataset from "
                    "tests/fixtures_congestion.py: the "
                    "midnight-alignment contract. Regenerate with "
                    "scripts/regen_golden.py only when an intentional "
                    "behaviour change shifts detection.",
        "report": serialize_report(detect(regression_dataset(),
                                          threshold=0.5)),
    }
    DETECTION_PATH.write_text(json.dumps(detection, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {DETECTION_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
