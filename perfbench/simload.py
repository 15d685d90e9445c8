"""Simulator scenarios for the traced run, and the checks on their reports.

``paper-999`` and ``paper-20`` are the paper's presets and take well under a
millisecond; they anchor correctness.  ``overflow`` is a bounded cohort of
20,000 ham machines (fp 0.6, quota 48, 3600 s burden) whose seed comes from
the workload seed; most machines overflow their day, so its time is the
simulator's per-machine walk.
"""
from __future__ import annotations

import math

OVERFLOW_MACHINES = 20_000
# a ratio may stray from the analytic one by this many standard errors of
# the binomial count of resisted ham messages, which dominates its noise
RATIO_SIGMAS = 4.0


def scenarios(sim, seed: int) -> dict:
    overflow = sim.SimConfig(
        false_positive_rate=0.6,
        false_negative_rate=0.0,
        burden_seconds=3600.0,
        cohorts=(sim.CohortSpec(name="ham", kind="ham", machines=OVERFLOW_MACHINES, quota=48),),
        seed=seed,
    )
    return {"paper-999": sim.preset("paper-999"), "paper-20": sim.preset("paper-20"), "overflow": overflow}


def check_report(name: str, report) -> list[str]:
    """Accounting invariants of every cohort, and for the presets a cost
    ratio within tolerance of the analytic one.  No exact values: a faithful
    change of the sampling changes the random stream."""
    problems = []
    config = report.config
    for c in report.cohorts:
        where = f"{name}/{c.spec.name}"
        if min(c.attempted, c.delivered, c.resisted, c.refused) < 0:
            problems.append(f"{where}: negative count")
        if c.resisted + c.refused > c.attempted:
            problems.append(f"{where}: resisted + refused > attempted")
        if c.delivered > c.attempted:
            problems.append(f"{where}: delivered > attempted")
        if c.work_seconds > c.spec.machines * config.days * config.day_seconds + 1e-6:
            problems.append(f"{where}: more work than the machines' days hold")
    if name.startswith("paper-"):
        fp = config.false_positive_rate
        ham_messages = sum(c.attempted for c in report.cohorts if c.spec.kind == "ham")
        tolerance = RATIO_SIGMAS * math.sqrt((1.0 - fp) / (fp * ham_messages))
        simulated, analytic = report.cost_ratio, report.analytic.advantage_ratio
        if not (simulated > 0 and abs(math.log(simulated / analytic)) <= tolerance):
            problems.append(
                f"{name}: simulated cost ratio {simulated:.4g} is not within "
                f"exp(+-{tolerance:.3f}) of the analytic {analytic:.4g}"
            )
    return problems
