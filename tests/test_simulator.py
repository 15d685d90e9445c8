"""Economics simulator: closed forms, determinism, presets, sweeps."""
import csv
import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spamfriction import sim


def one_cohort_config(
    *,
    kind="spam",
    machines=10,
    quota=None,
    speed=1.0,
    fp=0.001,
    fn=0.001,
    burden=30.0,
    day_seconds=100.0,
    days=1,
    seed=0,
):
    return sim.SimConfig(
        false_positive_rate=fp,
        false_negative_rate=fn,
        burden_seconds=burden,
        day_seconds=day_seconds,
        days=days,
        seed=seed,
        cohorts=(
            sim.CohortSpec(name="only", kind=kind, machines=machines, quota=quota, speed_factor=speed),
        ),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        one_cohort_config(fp=1.0)
    with pytest.raises(ValueError):
        one_cohort_config(fn=-0.1)
    with pytest.raises(ValueError):
        one_cohort_config(burden=-1.0)
    with pytest.raises(ValueError):
        one_cohort_config(days=0)
    with pytest.raises(ValueError):
        sim.CohortSpec(name="x", kind="other", machines=1)
    with pytest.raises(ValueError):
        sim.CohortSpec(name="x", kind="ham", machines=0)
    with pytest.raises(ValueError):
        sim.CohortSpec(name="x", kind="ham", machines=1, quota=0)
    with pytest.raises(ValueError):
        sim.SimConfig(
            false_positive_rate=0.1,
            false_negative_rate=0.1,
            burden_seconds=1.0,
            cohorts=(
                sim.CohortSpec(name="dup", kind="ham", machines=1),
                sim.CohortSpec(name="dup", kind="spam", machines=1),
            ),
        )


def test_resist_probability_mapping():
    config = one_cohort_config(fp=0.01, fn=0.2)
    assert config.resist_probability("ham") == 0.01
    assert config.resist_probability("spam") == pytest.approx(0.8)


def test_same_seed_reproduces_exactly():
    a = sim.run(one_cohort_config(fn=0.5, machines=50, seed=7))
    b = sim.run(one_cohort_config(fn=0.5, machines=50, seed=7))
    assert a.cohorts[0].delivered == b.cohorts[0].delivered
    assert a.cohorts[0].work_seconds == b.cohorts[0].work_seconds
    c = sim.run(one_cohort_config(fn=0.5, machines=50, seed=8))
    assert c.cohorts[0].delivered != a.cohorts[0].delivered


def test_unbounded_machine_day_structure():
    # budget 100, cost 30: three full solves, a 10 s stub of a fourth
    report = sim.run(one_cohort_config(machines=1, fn=0.0))
    result = report.cohorts[0]
    assert result.resisted == 3
    assert result.refused == 1
    assert result.work_seconds == pytest.approx(100.0)
    # perfect filter on an all-out spammer: every delivery is a paid one
    assert result.delivered == 3
    assert result.attempted == 4


def test_unbounded_exact_division_leaves_no_tail():
    report = sim.run(one_cohort_config(machines=5, fn=0.0, burden=25.0))
    result = report.cohorts[0]
    assert result.resisted == 4 * 5
    assert result.refused == 0
    assert result.delivered == 20
    assert result.work_seconds == pytest.approx(500.0)


def test_speed_factor_scales_cost():
    fast = sim.run(one_cohort_config(machines=1, fn=0.0, speed=2.0)).cohorts[0]
    slow = sim.run(one_cohort_config(machines=1, fn=0.0, speed=1.0)).cohorts[0]
    assert fast.resisted == 6   # cost drops to 15 s
    assert slow.resisted == 3


def test_unbounded_nothing_to_pay_is_capped():
    free = sim.run(one_cohort_config(kind="ham", machines=2, fp=0.0)).cohorts[0]
    assert free.capped
    assert free.delivered == 2 * sim.DEFAULT_FREE_CAP
    assert free.work_seconds == 0.0
    zero_burden = sim.run(one_cohort_config(machines=2, burden=0.0, fn=0.0)).cohorts[0]
    assert zero_burden.capped
    assert zero_burden.work_seconds == 0.0


def test_bounded_within_budget_delivers_quota():
    config = one_cohort_config(kind="ham", machines=10, quota=3, fp=0.5, day_seconds=1000.0)
    result = sim.run(config).cohorts[0]
    assert result.delivered == 30
    assert result.attempted == 30
    assert result.refused == 0
    assert result.work_seconds == pytest.approx(result.resisted * 30.0)
    assert 0 <= result.resisted <= 30


def test_bounded_overflow_cuts_day_short():
    # quota 10 x cost 30 = 300 > budget 100: at most three solves fit
    config = one_cohort_config(machines=20, quota=10, fn=0.0, seed=3)
    result = sim.run(config).cohorts[0]
    assert result.delivered == 20 * 3
    assert result.refused == 20
    assert result.work_seconds <= 20 * 100.0


def test_closed_form_matches_message_level_oracle():
    # same process written as an explicit per-message loop
    def brute(machine_days, day_seconds, cost, p, rng):
        delivered = work = 0
        for _ in range(machine_days):
            budget = day_seconds
            while True:
                if rng.random() < p:
                    if cost > budget:
                        work += budget
                        break
                    budget -= cost
                    work += cost
                    delivered += 1
                    if budget <= 0:
                        break
                else:
                    delivered += 1
        return delivered, work

    machine_days = 400
    closed = sim.run(
        one_cohort_config(machines=machine_days, fn=0.5, burden=30.0, day_seconds=100.0, seed=11)
    ).cohorts[0]
    brute_delivered, brute_work = brute(machine_days, 100.0, 30.0, 0.5, random.Random(17))
    # mean delivered per machine-day: 3 paid + NB(4 gaps, p=1/2) free => 7
    expected = 7.0
    se = math.sqrt(8.0 / machine_days)  # NB variance r(1-p)/p^2 = 8
    assert abs(closed.delivered / machine_days - expected) < 5 * se
    assert abs(brute_delivered / machine_days - expected) < 5 * se
    assert closed.work_seconds == pytest.approx(machine_days * 100.0)
    assert brute_work == pytest.approx(machine_days * 100.0)


def test_report_aggregates_and_ratio():
    config = sim.SimConfig(
        false_positive_rate=0.05,
        false_negative_rate=0.05,
        burden_seconds=3600.0,
        day_seconds=86400.0,
        seed=1,
        cohorts=(
            sim.CohortSpec(name="users", kind="ham", machines=100, quota=24),
            sim.CohortSpec(name="bots", kind="spam", machines=100, quota=None),
        ),
    )
    report = sim.run(config)
    users = report.cohort("users")
    bots = report.cohort("bots")
    assert report.ham_avg_cost == pytest.approx(users.work_seconds / users.delivered)
    assert report.spam_avg_cost == pytest.approx(bots.work_seconds / bots.delivered)
    assert report.cost_ratio == pytest.approx(report.spam_avg_cost / report.ham_avg_cost)
    assert report.spam_delivered_per_day == bots.delivered
    assert report.analytic.advantage_ratio == 19.0
    with pytest.raises(KeyError):
        report.cohort("nobody")


def test_ratio_infinite_when_ham_never_pays():
    config = sim.SimConfig(
        false_positive_rate=0.0,
        false_negative_rate=0.0,
        burden_seconds=60.0,
        day_seconds=600.0,
        seed=1,
        cohorts=(
            sim.CohortSpec(name="users", kind="ham", machines=2, quota=5),
            sim.CohortSpec(name="bots", kind="spam", machines=2, quota=None),
        ),
    )
    report = sim.run(config)
    assert report.ham_avg_cost == 0.0
    assert math.isinf(report.cost_ratio)


def test_table_and_csv_outputs():
    report = sim.run(one_cohort_config(machines=3, fn=0.5, seed=2))
    text = report.table()
    assert "only" in text
    assert "simulated cost ratio" in text
    rows = list(csv.reader(io.StringIO(report.csv())))
    assert rows[0][0] == "cohort"
    assert len(rows) == 2
    assert rows[1][0] == "only"
    assert int(rows[1][5]) == report.cohorts[0].delivered


def test_sweep_covers_grid():
    base = one_cohort_config(machines=5, quota=10, day_seconds=1e6)
    rows = sim.sweep(base, accuracies=[0.95, 0.999], burdens=[60.0, 3600.0])
    assert len(rows) == 4
    assert sorted({r.false_positive_rate for r in rows}) == pytest.approx([0.001, 0.05])
    for row in rows:
        assert row.analytic_ratio == pytest.approx((1 - row.false_positive_rate) / row.false_positive_rate)
    text = sim.sweep_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 5
    with pytest.raises(ValueError):
        sim.sweep(base, accuracies=[1.5], burdens=[60.0])


def test_presets_exist_and_run():
    for name in sim.PRESET_NAMES:
        config = sim.preset(name)
        report = sim.run(config)
        assert report.cohort("users").delivered > 0
        assert report.cohort("botnet").delivered > 0
    assert sim.preset("paper-999").false_positive_rate == 0.001
    assert sim.preset("paper-20").false_positive_rate == 0.05
    assert sim.preset("paper-999").burden_seconds == 3600.0
    with pytest.raises(KeyError):
        sim.preset("paper-1")


@settings(max_examples=40, deadline=None)
@given(
    fp=st.floats(0.0, 0.9),
    fn=st.floats(0.0, 0.9),
    burden=st.floats(0.0, 500.0),
    machines=st.integers(1, 30),
    quota=st.one_of(st.none(), st.integers(1, 40)),
    seed=st.integers(0, 2**31),
)
# a subnormal burden makes day_seconds // cost infinite
@example(fp=0.0, fn=0.0, burden=5e-324, machines=1, quota=None, seed=0)
def test_accounting_invariants(fp, fn, burden, machines, quota, seed):
    config = sim.SimConfig(
        false_positive_rate=fp,
        false_negative_rate=fn,
        burden_seconds=burden,
        day_seconds=300.0,
        seed=seed,
        cohorts=(sim.CohortSpec(name="c", kind="spam", machines=machines, quota=quota),),
    )
    result = sim.run(config).cohorts[0]
    assert result.delivered >= 0
    assert result.resisted >= 0
    assert result.refused >= 0
    assert result.delivered + result.refused <= result.attempted
    assert result.resisted <= result.attempted
    # nobody can spend more than the whole day
    assert result.work_seconds <= machines * 300.0 + 1e-6
    if burden > 0:
        assert result.work_seconds >= result.resisted * burden - 1e-6
