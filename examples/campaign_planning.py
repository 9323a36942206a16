#!/usr/bin/env python
"""Plan a diagnosis campaign analytically, then check it by simulation.

Workflow a test engineer would follow:

1. profile the fault population (fault coverage, error multiplicity) with
   a quick fault-simulation pass;
2. feed the typical multiplicity into the closed-form planner to get the
   cheapest (groups x partitions) random-selection campaign meeting a DR
   target — plus its tester-cycle price;
3. validate the plan by actually diagnosing the sampled faults, and show
   what the paper's two-step scheme buys on top of the plan.

Run:  python examples/campaign_planning.py [circuit] [target_dr]
"""

import sys

import numpy as np

from repro import EmbeddedCore, LinearCompactor, ScanConfig, get_circuit
from repro.core.diagnosis import diagnostic_resolution
from repro.core.diagnosis_batch import diagnose_population
from repro.core.planner import (
    expected_population_dr,
    plan_campaign,
    plan_campaign_for_population,
)
from repro.core.time_model import TimeEstimate, campaign_cycles
from repro.core.two_step import make_partitioner
from repro.sim.coverage import coverage_report


def main():
    circuit_name = sys.argv[1] if len(sys.argv) > 1 else "s5378"
    target_dr = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25

    core = EmbeddedCore(get_circuit(circuit_name), num_patterns=128)
    scan = ScanConfig.single_chain(core.num_cells)
    print(f"{circuit_name}: {core.num_cells} scan cells, 128 patterns/session")

    # 1. profile the fault population
    report = coverage_report(
        core.fault_simulator, max_faults=200, rng=np.random.default_rng(1)
    )
    p50, p90, _p99 = report.multiplicity_percentiles()
    print(f"fault coverage {report.fault_coverage:.2f}; failing cells per "
          f"detected fault: median {p50:.0f}, p90 {p90:.0f}")

    # 2. analytic plans: the naive single-multiplicity model vs the
    #    population mixture (DR is dominated by the heavy-tailed faults).
    multiplicities = [
        p.num_failing_cells for p in report.detected_profiles
    ]
    naive = plan_campaign(core.num_cells, int(max(1, p90)), target_dr)
    plan = plan_campaign_for_population(
        core.num_cells, multiplicities, target_dr
    )
    if naive is not None:
        print(f"naive plan (p90 multiplicity): {naive.num_groups} groups x "
              f"{naive.num_partitions} partitions — optimistic, see below")
    if plan is None:
        print("no feasible plan within the group/partition limits")
        return
    cycles = campaign_cycles(plan.num_partitions, plan.num_groups, scan, 128)
    print(f"population plan for DR <= {target_dr}: {plan.num_groups} groups x "
          f"{plan.num_partitions} partitions = {plan.num_sessions} sessions "
          f"(expected DR {plan.expected_dr:.3f}, {TimeEstimate(cycles)})")

    # 3. validate by simulation
    responses = core.sample_fault_responses(120, np.random.default_rng(7))
    compactor = LinearCompactor(24, 1)
    for scheme in ("random", "two-step"):
        partitions = make_partitioner(
            scheme, core.num_cells, plan.num_groups
        ).partitions(plan.num_partitions)
        results = diagnose_population(responses, scan, partitions, compactor)
        dr = diagnostic_resolution(results)
        print(f"  measured DR with {scheme:>8}: {dr:.3f} "
              f"({len(responses)} sampled faults)")
    print(f"  analytic mixture model (random stage): "
          f"{expected_population_dr(core.num_cells, multiplicities, plan.num_groups, plan.num_partitions):.3f}")
    print()
    print("The mixture model budgets the random stage; the two-step scheme")
    print("then beats it by spending its first partition on intervals —")
    print("the paper's contribution, for free.")


if __name__ == "__main__":
    main()
