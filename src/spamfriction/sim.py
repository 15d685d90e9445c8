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

from .policy import CostModel, expected_costs

KIND_HAM = "ham"
KIND_SPAM = "spam"

DAY_SECONDS = 86_400.0

# unbounded senders with nothing to pay for would send forever; cut them off
DEFAULT_FREE_CAP = 100_000

# the overflow path draws at most this many machine-days at once; it holds
# about 45 bytes per machine-day drawn, so its memory stays bounded
_OVERFLOW_BLOCK = 2**16


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

    def __post_init__(self) -> None:
        if not 0.0 <= self.false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in [0, 1)")
        if not 0.0 <= self.false_negative_rate < 1.0:
            raise ValueError("false_negative_rate must be in [0, 1)")
        if not 0 <= self.burden_seconds < math.inf:  # NaN too
            raise ValueError("burden_seconds must be finite and non-negative")
        if self.days < 1:
            raise ValueError("days must be at least 1")
        if not 0 < self.day_seconds < math.inf:
            raise ValueError("day_seconds must be finite and positive")
        if not self.cohorts:
            raise ValueError("at least one cohort is required")
        names = [c.name for c in self.cohorts]
        if len(set(names)) != len(names):
            raise ValueError("cohort names must be unique")

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

    def _per_delivered(self, kind: str, field_name: str) -> float:
        """A cohort field summed over one kind, per message of it delivered."""
        cohorts = [c for c in self.cohorts if c.spec.kind == kind]
        delivered = sum(c.delivered for c in cohorts)
        return sum(getattr(c, field_name) for c in cohorts) / delivered if delivered else 0.0

    @property
    def ham_avg_cost(self) -> float:
        return self._per_delivered(KIND_HAM, "work_seconds")

    @property
    def spam_avg_cost(self) -> float:
        return self._per_delivered(KIND_SPAM, "work_seconds")

    @property
    def cost_ratio(self) -> float:
        """Per-delivery cost multiple paid by spammers relative to ham.  When
        neither kind paid (a zero burden), the burden cancels and the ratio is
        that of resisted messages per delivery, as in
        :func:`policy.expected_costs`; infinite when no ham was resisted."""
        ham = self.ham_avg_cost
        spam = self.spam_avg_cost
        if ham == spam == 0.0:
            ham = self._per_delivered(KIND_HAM, "resisted")
            spam = self._per_delivered(KIND_SPAM, "resisted")
        return spam / ham if ham else math.inf

    @property
    def spam_delivered_per_day(self) -> float:
        delivered = sum(c.delivered for c in self.cohorts if c.spec.kind == KIND_SPAM)
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
        # a float format writes an infinite ratio as "inf"
        rows += [
            "",
            f"ham avg cost/delivery:  {self.ham_avg_cost:.3f} s",
            f"spam avg cost/delivery: {self.spam_avg_cost:.3f} s",
            f"simulated cost ratio:   {self.cost_ratio:.1f}",
            f"analytic cost ratio:    {self.analytic.advantage_ratio:.1f}",
            f"spam delivered per day: {self.spam_delivered_per_day:.1f}",
        ]
        return "\n".join(rows) + "\n"

    def csv(self) -> str:
        return _csv(
            ["cohort", "kind", "machines", "days", "attempted", "delivered",
             "resisted", "refused", "work_seconds", "avg_cost_seconds",
             "delivered_per_machine_day", "capped"],
            [
                [c.spec.name, c.spec.kind, c.spec.machines, self.config.days,
                 c.attempted, c.delivered, c.resisted, c.refused,
                 f"{c.work_seconds:.3f}", f"{c.avg_cost:.6f}",
                 f"{c.delivered_per_machine_day(self.config.days):.6f}",
                 int(c.capped)]
                for c in self.cohorts
            ],
        )


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _run_unbounded(spec, config, p, cost, rng) -> CohortResult:
    result = CohortResult(spec)
    machine_days = spec.machines * config.days
    # clamp to the cap before int(): a tiny cost makes the quotient infinite
    paid_slots = int(min(config.day_seconds // cost, DEFAULT_FREE_CAP)) if cost > 0.0 else 0
    expected_free = paid_slots * (1.0 - p) / p if p > 0.0 else math.inf
    if p == 0.0 or cost == 0.0 or paid_slots >= DEFAULT_FREE_CAP or expected_free >= DEFAULT_FREE_CAP:
        # the burden cannot meaningfully slow this machine down (never
        # resisted, free solves, or throughput past the cap even when
        # paying): cut the firehose off at the cap
        total = DEFAULT_FREE_CAP * machine_days
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
    for start in range(0, machine_days, _OVERFLOW_BLOCK):
        per_machine = rng.binomial(quota, p, size=min(_OVERFLOW_BLOCK, machine_days - start))
        fits = per_machine <= paid
        over = per_machine[~fits]
        free = rng.binomial(quota - over, rng.beta(paid + 1, over - paid))
        result.delivered += int(fits.sum()) * quota + len(over) * paid + int(free.sum())
        result.resisted += int(per_machine[fits].sum()) + len(over) * paid
        result.refused += len(over)
    result.work_seconds = float(result.resisted) * cost
    return result


def run(config: SimConfig) -> SimReport:
    """Play out the configured days and return per-cohort accounting."""
    # imported here so that the mail path, which never simulates, skips numpy
    import numpy as np

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


def sweep(base: SimConfig, accuracies, burdens) -> list[SimReport]:
    """Re-run the base scenario across a filter-accuracy x burden grid, one
    report per point, accuracy-major.

    ``accuracies`` are symmetric: accuracy a means fp = fn = 1 - a.
    """
    if not all(0.0 < accuracy <= 1.0 for accuracy in accuracies):
        raise ValueError("accuracy must be in (0, 1]")
    configs = [
        replace(base, false_positive_rate=1.0 - accuracy, false_negative_rate=1.0 - accuracy,
                burden_seconds=float(burden))
        for accuracy in accuracies
        for burden in burdens
    ]
    return [run(config) for config in configs]


def sweep_table(reports) -> str:
    rows = [f"{'fp':>8}{'fn':>8}{'burden':>10}{'ham avg':>12}{'spam avg':>12}{'sim ratio':>12}{'analytic':>12}"]
    for r in reports:
        c = r.config
        rows.append(
            f"{c.false_positive_rate:>8.4f}{c.false_negative_rate:>8.4f}{c.burden_seconds:>10.0f}"
            f"{r.ham_avg_cost:>12.3f}{r.spam_avg_cost:>12.3f}{r.cost_ratio:>12.3f}"
            f"{r.analytic.advantage_ratio:>12.1f}"
        )
    return "\n".join(rows) + "\n"


def sweep_csv(reports) -> str:
    return _csv(
        ["false_positive_rate", "false_negative_rate", "burden_seconds",
         "ham_avg_cost", "spam_avg_cost", "simulated_ratio", "analytic_ratio"],
        [
            [r.config.false_positive_rate, r.config.false_negative_rate, r.config.burden_seconds,
             f"{r.ham_avg_cost:.6f}", f"{r.spam_avg_cost:.6f}",
             f"{r.cost_ratio:.6f}", f"{r.analytic.advantage_ratio:.6f}"]
            for r in reports
        ],
    )


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
