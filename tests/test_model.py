"""Data model: time conversion, profile validation, decisions."""

import dataclasses
import random

import pytest

from echo_sched.model import (
    US_PER_SECOND,
    CostProfile,
    Decision,
    Platform,
    Task,
    TraceError,
    from_seconds,
    to_seconds,
    validate_trace,
)
from echo_sched.objectsync import TransferCost
from conftest import mk_profile, mk_task, sec


def test_from_seconds_examples():
    assert from_seconds(1.0) == 1_000_000
    assert from_seconds(0.0015) == 1_500
    assert from_seconds(0) == 0
    for bad in (float("inf"), float("-inf"), float("nan"), 1e308):
        with pytest.raises(ValueError, match="finite"):
            from_seconds(bad)


def test_to_seconds_round_trip():
    assert to_seconds(2_500_000) == 2.5
    assert to_seconds(from_seconds(0.75)) == 0.75


def test_time_arithmetic_is_exact():
    # integer microseconds: sums associate and commute exactly
    rng = random.Random(11)
    for _ in range(200):
        parts = [rng.randrange(0, 10 * US_PER_SECOND) for _ in range(8)]
        total = sum(parts)
        rng.shuffle(parts)
        acc = 0
        for p in parts:
            acc += p
        assert acc == total


def test_profile_rejects_negative_duration():
    with pytest.raises(TraceError, match="r_mobile"):
        mk_profile(r_mobile=-1.0)


def test_profile_rejects_non_integer_duration():
    with pytest.raises(TraceError):
        CostProfile(r_mobile=1.5, r_edge=1, r_cloud=1, up_edge=0,
                    down_edge=0, up_cloud=0, down_cloud=0)


def test_profile_rejects_bool_duration():
    with pytest.raises(TraceError):
        CostProfile(r_mobile=True, r_edge=1, r_cloud=1, up_edge=0,
                    down_edge=0, up_cloud=0, down_cloud=0)


def test_profile_bool_refused_and_int_subclass_accepted():
    # the exact-int fast path must not change what the per-field checks
    # refuse or accept
    fields = dict(r_mobile=5, r_edge=1, r_cloud=1, up_edge=0, down_edge=0,
                  up_cloud=0, down_cloud=0, upload_bytes=0, download_bytes=0)
    with pytest.raises(TraceError, match=r"^r_cloud must be an integer "
                       r"microsecond count, got True$"):
        CostProfile(**{**fields, "r_cloud": True})
    with pytest.raises(TraceError, match=r"^download_bytes must be a "
                       r"non-negative integer, got False$"):
        CostProfile(**{**fields, "download_bytes": False})

    class Micros(int):
        pass

    profile = CostProfile(**{name: Micros(v) for name, v in fields.items()})
    assert profile == CostProfile(**fields)
    with pytest.raises(TraceError, match="r_edge must be > 0"):
        CostProfile(**{**fields, "r_edge": Micros(0)})
    with pytest.raises(TraceError, match="upload_bytes must be a non-negative"):
        CostProfile(**{**fields, "upload_bytes": -1})


@pytest.mark.parametrize("field", [
    "r_mobile", "r_edge", "r_cloud", "up_edge", "down_edge", "up_cloud",
    "down_cloud", "upload_bytes", "download_bytes", "arrival"])
def test_counts_must_be_below_2_64(field):
    # 10**400 us once loaded and then overflowed a float mid-run; the
    # exact-int fast path and the per-field checks (taken for an int
    # subclass) must agree on the bound.
    class Micros(int):
        pass

    fields = dict(r_mobile=5, r_edge=1, r_cloud=1, up_edge=0, down_edge=0,
                  up_cloud=0, down_cloud=0, upload_bytes=0, download_bytes=0)

    def build(value):
        if field == "arrival":
            return dataclasses.replace(mk_task("t0"), arrival=value)
        return CostProfile(**{**fields, field: value})

    for value in (2**64 - 1, Micros(2**64 - 1)):
        build(value)
    for value in (2**64, Micros(2**64), 10**400):
        with pytest.raises(TraceError, match=rf"^{field} must be below 2\*\*64$"):
            build(value)


def test_profile_rejects_zero_edge_run():
    # a zero-work chunk can be neither queued nor executed on a VM
    with pytest.raises(TraceError, match="r_edge must be > 0"):
        mk_profile(r_edge=0.0)
    assert mk_profile(r_edge=0.000001).r_edge == 1


def test_task_rejects_negative_arrival():
    with pytest.raises(TraceError, match="arrival"):
        mk_task("t0", arrival=-2.0)


@pytest.mark.parametrize("field, value", [
    ("id", 5), ("user_id", ["u"]), ("app", None),
    ("offloadable", "no"), ("offloadable", 1),
])
def test_task_rejects_mistyped_fields(field, value):
    with pytest.raises(TraceError, match=rf"^{field} must be "):
        dataclasses.replace(mk_task("t0"), **{field: value})


def test_task_and_profile_are_frozen():
    task = mk_task("t0")
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.arrival = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.profile.r_mobile = 5


def test_validate_trace_clean():
    tasks = [mk_task("t0"), mk_task("t1", arrival=1.0)]
    assert validate_trace(tasks) == []


def test_validate_trace_warns_slow_edge_upload():
    tasks = [mk_task("t0", up_edge=2.0, up_cloud=1.0)]
    warnings = validate_trace(tasks)
    assert any("edge upload slower than cloud" in w for w in warnings)


def test_validate_trace_warns_slow_cloud_run():
    tasks = [mk_task("t0", r_cloud=5.0, r_edge=4.0)]
    warnings = validate_trace(tasks)
    assert any("cloud run slower than edge" in w for w in warnings)


def test_validate_trace_warns_zero_mobile_run():
    tasks = [mk_task("t0", r_mobile=0.0)]
    warnings = validate_trace(tasks)
    assert any("r_mobile is zero" in w for w in warnings)


def test_validate_trace_rejects_duplicate_ids():
    tasks = [mk_task("t0"), mk_task("t0", arrival=1.0)]
    with pytest.raises(TraceError, match="t0"):
        validate_trace(tasks)


def test_decision_edge_requires_vm_index():
    with pytest.raises(ValueError, match="vm_index"):
        Decision(platform=Platform.EDGE, predicted_completion=sec(1.0))


def test_decision_vm_index_only_for_edge():
    with pytest.raises(ValueError, match="vm_index"):
        Decision(platform=Platform.MOBILE, predicted_completion=sec(1.0),
                 vm_index=0)


def test_decision_and_transfer_cost_refuse_assignment():
    # Both are named tuples; Decision still checks vm_index on every
    # construction, positional or by keyword.
    for platform, vm_index, message in (
            (Platform.EDGE, None, "edge decision requires a vm_index"),
            (Platform.EDGE, -1, "edge decision requires a vm_index"),
            (Platform.CLOUD, 0, "vm_index only applies to edge decisions")):
        with pytest.raises(ValueError, match=message):
            Decision(platform, sec(1.0), vm_index)
    decision = Decision(Platform.EDGE, sec(1.0), 0, sec(2.0))
    cost = TransferCost(10, 20, sec(0.5), 0)
    for value, field in ((decision, "vm_index"), (decision, "deadline"),
                         (cost, "up_bytes"), (cost, "backhaul_bytes")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            setattr(value, "extra", 1)
    assert decision == Decision(Platform.EDGE, sec(1.0), vm_index=0,
                                deadline=sec(2.0))
    assert cost == TransferCost(10, 20, sec(0.5), 0)


def test_decision_platform_labels():
    edge = Decision(platform=Platform.EDGE, predicted_completion=sec(1.0),
                    vm_index=3, deadline=sec(2.0))
    assert edge.platform_label() == "edge:3"
    cloud = Decision(platform=Platform.CLOUD, predicted_completion=sec(1.0))
    assert cloud.platform_label() == "cloud"
    assert Platform.MOBILE.value == "mobile"
