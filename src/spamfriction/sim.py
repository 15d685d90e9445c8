"""Sender-economics simulator.

Models a day in the life of ham and spam senders facing a proof-of-work
gate.  Every message is independently resisted (ham with the filter's
false-positive rate, spam with one minus its false-negative rate); a
resisted message costs ``burden_seconds / speed_factor`` of solving time
out of the machine's daily budget, an accepted one is free.

Time is purely virtual.  Instead of stepping message by message, cohorts
are settled with the matching closed forms: the number of free messages
interleaved between ``r`` paid ones is negative-binomial ``NB(r, p)``, and
the resisted count ``k`` within a fixed quota is binomial.  A quota machine
whose day holds only ``paid < k`` solves is refused at resist ``paid + 1``;
the free messages before it are negative-hypergeometric given ``k``, i.e.
``Binomial(quota - k, Beta(paid + 1, k - paid))``.  That keeps a 10,000-bot
day at a handful of numpy draws while remaining an exact sample from the
message-level process.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .policy import CostModel, expected_costs

KIND_HAM = "ham"
KIND_SPAM = "spam"

DAY_SECONDS = 86_400.0

# unbounded senders with nothing to pay for would send forever; cut them off
DEFAULT_FREE_CAP = 100_000


@dataclass(frozen=True)
class CohortSpec:
    """A population of identical sending machines.

    ``quota`` is the number of messages each machine wants to send per day;
    ``None`` means it sends flat out until its time budget is gone.
    ``speed_factor`` scales solving speed relative to the reference machine
    the burden was calibrated for (2.0 solves twice as fast).
    """

    name: str
    kind: str
    machines: int
    quota: int | None = None
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("cohort needs a name")
        if self.kind not in (KIND_HAM, KIND_SPAM):
            raise ValueError(f"kind must be {KIND_HAM!r} or {KIND_SPAM!r}")
        if self.machines < 1:
            raise ValueError("machines must be at least 1")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be at least 1 when given")
        if not self.speed_factor > 0:
            raise ValueError("speed_factor must be positive")


@dataclass(frozen=True)
class SimConfig:
    false_positive_rate: float
    false_negative_rate: float
    burden_seconds: float
    cohorts: tuple[CohortSpec, ...]
    days: int = 1
    day_seconds: float = DAY_SECONDS
    seed: int = 0
    free_message_cap: int = DEFAULT_FREE_CAP

    def __post_init__(self) -> None:
        if not 0.0 <= self.false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in [0, 1)")
        if not 0.0 <= self.false_negative_rate < 1.0:
            raise ValueError("false_negative_rate must be in [0, 1)")
        if not self.burden_seconds >= 0:  # NaN too
            raise ValueError("burden_seconds must be non-negative")
        if self.days < 1:
            raise ValueError("days must be at least 1")
        if not self.day_seconds > 0:
            raise ValueError("day_seconds must be positive")
        if not self.cohorts:
            raise ValueError("at least one cohort is required")
        names = [c.name for c in self.cohorts]
        if len(set(names)) != len(names):
            raise ValueError("cohort names must be unique")
        if self.free_message_cap < 1:
            raise ValueError("free_message_cap must be at least 1")

    def resist_probability(self, kind: str) -> float:
        if kind == KIND_HAM:
            return self.false_positive_rate
        return 1.0 - self.false_negative_rate


@dataclass
class CohortResult:
    spec: CohortSpec
    attempted: int = 0
    delivered: int = 0
    resisted: int = 0          # completed solves
    refused: int = 0           # started but never finished (day ran out)
    work_seconds: float = 0.0
    capped: bool = False

    @property
    def avg_cost(self) -> float:
        return self.work_seconds / self.delivered if self.delivered else 0.0

    def delivered_per_machine_day(self, days: int) -> float:
        return self.delivered / (self.spec.machines * days)


@dataclass
class SimReport:
    config: SimConfig
    cohorts: list[CohortResult]

    def cohort(self, name: str) -> CohortResult:
        for result in self.cohorts:
            if result.spec.name == name:
                return result
        raise KeyError(name)

    def _totals(self, kind: str) -> tuple[int, float]:
        delivered = sum(c.delivered for c in self.cohorts if c.spec.kind == kind)
        work = sum(c.work_seconds for c in self.cohorts if c.spec.kind == kind)
        return delivered, work

    @property
    def ham_avg_cost(self) -> float:
        delivered, work = self._totals(KIND_HAM)
        return work / delivered if delivered else 0.0

    @property
    def spam_avg_cost(self) -> float:
        delivered, work = self._totals(KIND_SPAM)
        return work / delivered if delivered else 0.0

    @property
    def cost_ratio(self) -> float:
        """Per-delivery cost multiple paid by spammers relative to ham."""
        ham = self.ham_avg_cost
        spam = self.spam_avg_cost
        if ham == 0.0:
            return math.inf if spam > 0.0 else 0.0
        return spam / ham

    @property
    def spam_delivered_per_day(self) -> float:
        delivered, _ = self._totals(KIND_SPAM)
        return delivered / self.config.days

    @property
    def analytic(self) -> CostModel:
        return expected_costs(
            self.config.false_positive_rate,
            self.config.false_negative_rate,
            self.config.burden_seconds,
        )

    def table(self) -> str:
        header = (
            f"{'cohort':<14}{'kind':<6}{'machines':>9}{'attempted':>11}"
            f"{'delivered':>11}{'resisted':>10}{'refused':>9}{'avg s/msg':>11}{'msg/mach/day':>14}"
        )
        rows = [header, "-" * len(header)]
        for c in self.cohorts:
            rows.append(
                f"{c.spec.name:<14}{c.spec.kind:<6}{c.spec.machines:>9}{c.attempted:>11}"
                f"{c.delivered:>11}{c.resisted:>10}{c.refused:>9}{c.avg_cost:>11.2f}"
                f"{c.delivered_per_machine_day(self.config.days):>14.2f}"
                + ("  (capped)" if c.capped else "")
            )
        ratio = self.cost_ratio
        ratio_text = "inf" if math.isinf(ratio) else f"{ratio:.1f}"
        analytic = self.analytic
        analytic_text = "inf" if math.isinf(analytic.advantage_ratio) else f"{analytic.advantage_ratio:.1f}"
        rows.append("")
        rows.append(f"ham avg cost/delivery:  {self.ham_avg_cost:.3f} s")
        rows.append(f"spam avg cost/delivery: {self.spam_avg_cost:.3f} s")
        rows.append(f"simulated cost ratio:   {ratio_text}")
        rows.append(f"analytic cost ratio:    {analytic_text}")
        rows.append(f"spam delivered per day: {self.spam_delivered_per_day:.1f}")
        return "\n".join(rows)

    def csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "cohort", "kind", "machines", "days", "attempted", "delivered",
                "resisted", "refused", "work_seconds", "avg_cost_seconds",
                "delivered_per_machine_day", "capped",
            ]
        )
        for c in self.cohorts:
            writer.writerow(
                [
                    c.spec.name, c.spec.kind, c.spec.machines, self.config.days,
                    c.attempted, c.delivered, c.resisted, c.refused,
                    f"{c.work_seconds:.3f}", f"{c.avg_cost:.6f}",
                    f"{c.delivered_per_machine_day(self.config.days):.6f}",
                    int(c.capped),
                ]
            )
        return buf.getvalue()


def _run_unbounded(spec, config, p, cost, rng) -> CohortResult:
    result = CohortResult(spec)
    machine_days = spec.machines * config.days
    cap = config.free_message_cap
    # clamp to the cap before int(): a tiny cost makes the quotient infinite
    paid_slots = int(min(config.day_seconds // cost, cap)) if cost > 0.0 else 0
    expected_free = paid_slots * (1.0 - p) / p if p > 0.0 else math.inf
    if p == 0.0 or cost == 0.0 or paid_slots >= cap or expected_free >= cap:
        # the burden cannot meaningfully slow this machine down (never
        # resisted, free solves, or throughput past the cap even when
        # paying): cut the firehose off at the cap
        total = cap * machine_days
        result.capped = True
        result.attempted = total
        result.delivered = total
        result.resisted = int(rng.binomial(total, p)) if p > 0.0 else 0
        result.work_seconds = result.resisted * cost
        return result
    leftover = config.day_seconds - paid_slots * cost
    # one geometric run of free messages precedes each paid one, plus a
    # final run when leftover time lets the machine start (not finish)
    # one more solve
    gaps_per_day = paid_slots + (1 if leftover > 0 else 0)
    free = int(rng.negative_binomial(gaps_per_day * machine_days, p)) if gaps_per_day else 0
    tails = machine_days if leftover > 0 else 0
    result.delivered = paid_slots * machine_days + free
    result.resisted = paid_slots * machine_days
    result.refused = tails
    result.attempted = result.delivered + tails
    result.work_seconds = (paid_slots * cost + leftover) * machine_days if gaps_per_day else 0.0
    return result


def _run_bounded(spec, config, p, cost, rng) -> CohortResult:
    result = CohortResult(spec)
    machine_days = spec.machines * config.days
    quota = spec.quota
    assert quota is not None
    result.attempted = quota * machine_days
    if cost == 0.0 or quota * cost <= config.day_seconds:
        # even an all-resisted day fits the budget: totals aggregate exactly
        resisted = int(rng.binomial(quota * machine_days, p))
        result.delivered = quota * machine_days
        result.resisted = resisted
        result.work_seconds = resisted * cost
        return result
    paid = int(config.day_seconds // cost)
    per_machine = rng.binomial(quota, p, size=machine_days)
    fits = per_machine <= paid
    over = per_machine[~fits]
    free = rng.binomial(quota - over, rng.beta(paid + 1, over - paid))
    result.delivered = int(fits.sum()) * quota + len(over) * paid + int(free.sum())
    result.resisted = int(per_machine[fits].sum()) + len(over) * paid
    result.refused = len(over)
    result.work_seconds = float(result.resisted) * cost
    return result


def run(config: SimConfig) -> SimReport:
    """Play out the configured days and return per-cohort accounting."""
    seeds = np.random.SeedSequence(config.seed).spawn(len(config.cohorts))
    results = []
    for spec, child in zip(config.cohorts, seeds):
        rng = np.random.Generator(np.random.PCG64(child))
        p = config.resist_probability(spec.kind)
        cost = config.burden_seconds / spec.speed_factor
        if spec.quota is None:
            results.append(_run_unbounded(spec, config, p, cost, rng))
        else:
            results.append(_run_bounded(spec, config, p, cost, rng))
    return SimReport(config, results)


@dataclass(frozen=True)
class SweepRow:
    false_positive_rate: float
    false_negative_rate: float
    burden_seconds: float
    ham_avg_cost: float
    spam_avg_cost: float
    simulated_ratio: float
    analytic_ratio: float


def sweep(base: SimConfig, accuracies, burdens) -> list[SweepRow]:
    """Re-run the base scenario across a filter-accuracy x burden grid.

    ``accuracies`` are symmetric: accuracy a means fp = fn = 1 - a.
    """
    rows = []
    for accuracy in accuracies:
        if not 0.0 < accuracy <= 1.0:
            raise ValueError("accuracy must be in (0, 1]")
        rate = 1.0 - accuracy
        for burden in burdens:
            config = replace(
                base,
                false_positive_rate=rate,
                false_negative_rate=rate,
                burden_seconds=float(burden),
            )
            report = run(config)
            rows.append(
                SweepRow(
                    false_positive_rate=rate,
                    false_negative_rate=rate,
                    burden_seconds=float(burden),
                    ham_avg_cost=report.ham_avg_cost,
                    spam_avg_cost=report.spam_avg_cost,
                    simulated_ratio=report.cost_ratio,
                    analytic_ratio=report.analytic.advantage_ratio,
                )
            )
    return rows


def sweep_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["false_positive_rate", "false_negative_rate", "burden_seconds",
         "ham_avg_cost", "spam_avg_cost", "simulated_ratio", "analytic_ratio"]
    )
    for row in rows:
        writer.writerow(
            [row.false_positive_rate, row.false_negative_rate, row.burden_seconds,
             f"{row.ham_avg_cost:.6f}", f"{row.spam_avg_cost:.6f}",
             f"{row.simulated_ratio:.6f}", f"{row.analytic_ratio:.6f}"]
        )
    return buf.getvalue()


# Reference scenarios: a botnet of 10,000 machines sending flat out against
# 1,000 ordinary users sending two dozen messages a day, under a one-hour
# burden.  The two presets differ only in filter accuracy (99.9% vs 95%).
_PRESET_COHORTS = (
    CohortSpec(name="users", kind=KIND_HAM, machines=1000, quota=24),
    CohortSpec(name="botnet", kind=KIND_SPAM, machines=10_000, quota=None),
)

# name -> (false-positive and false-negative rate, seed)
_PRESETS = {"paper-999": (0.001, 3), "paper-20": (0.05, 5)}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> SimConfig:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset: {name!r}")
    rate, seed = _PRESETS[name]
    return SimConfig(
        false_positive_rate=rate,
        false_negative_rate=rate,
        burden_seconds=3600.0,
        cohorts=_PRESET_COHORTS,
        seed=seed,
    )
