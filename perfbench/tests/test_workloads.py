import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_plans_are_a_function_of_the_seed(name):
    assert workloads.build_plan(name, 7, 30) == workloads.build_plan(name, 7, 30)
    assert workloads.build_plan(name, 7, 30) != workloads.build_plan(name, 8, 30)


def test_paper_shor_seed_only_reorders_the_two_rows():
    plan = workloads.build_plan("paper-shor", 3, 30)
    names = [spec["circuit"] for spec in plan.direct]
    assert set(names) == {"builtin:shor_33_5", "builtin:shor_55_2"}
    # Balanced: every prefix holds each row within one of the other.
    for end in range(1, 40):
        prefix = names[:end]
        assert abs(prefix.count(names[0]) * 2 - end) <= 2


def test_arrivals_fill_the_run_at_the_fixed_rate():
    plan = workloads.build_plan("serve-cached", 1, 30)
    times = [t for t, _ in plan.arrivals]
    assert len(times) == round(workloads.SERVE_RATE * 30)
    assert times == sorted(times) and 0 <= times[0] and times[-1] < 30
    assert {kind for _, kind in plan.arrivals} == set(range(len(plan.serve)))
