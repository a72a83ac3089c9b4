"""Trace generation and JSONL round-tripping."""

import dataclasses
import json
import math
import random
import statistics

import pytest

from echo_sched.model import (CostProfile, Task, TraceError, from_seconds,
                              to_seconds, validate_trace)
from echo_sched.traceio import (SCHEMA, MixSpec, TraceFile, _load_profiles,
                                generate, load, save)

INTERACTIVE = {"ocr", "filter"}
COMPUTE = {"chess", "sudoku", "nqueens"}


def test_save_load_round_trip(tmp_path):
    trace = generate(n=50, lam=2.0, mix=MixSpec.preset("mix-1"), seed=4)
    path = tmp_path / "trace.jsonl"
    save(trace, path)
    loaded = load(path)
    assert loaded.tasks == trace.tasks
    assert loaded.header["schema"] == SCHEMA
    assert loaded.header["generator"]["lambda"] == 2.0


def test_saved_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save(generate(n=30, lam=1.0, mix=MixSpec.preset("mix-2"), seed=9), a)
    save(generate(n=30, lam=1.0, mix=MixSpec.preset("mix-2"), seed=9), b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_file_loads_as_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    trace = load(path)
    assert trace.tasks == []
    assert trace.header["schema"] == SCHEMA


def test_load_rejects_missing_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema":"somebody-elses/9"}\n')
    with pytest.raises(TraceError, match="line 1"):
        load(path)
    path.write_text("not json\n")
    with pytest.raises(TraceError, match="line 1"):
        load(path)


def test_load_names_the_offending_line(tmp_path):
    trace = generate(n=3, lam=1.0, mix=MixSpec.preset("mix-1"), seed=0)
    path = tmp_path / "trace.jsonl"
    save(trace, path)
    lines = path.read_text().splitlines()
    lines[2] = "{broken"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError, match="line 3"):
        load(path)


def test_load_reports_bad_field_values(tmp_path):
    trace = generate(n=2, lam=1.0, mix=MixSpec.preset("mix-1"), seed=0)
    path = tmp_path / "trace.jsonl"
    save(trace, path)
    lines = path.read_text().splitlines()
    # 2**64 us once loaded, and a larger count overflowed a float mid-run
    for value in (-5, 2**64):
        row = json.loads(lines[1])
        row["profile"]["r_mobile"] = value
        lines[1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="line 2.*r_mobile"):
            load(path)


def test_load_rejects_unknown_keys(tmp_path):
    # a misspelled optional key used to be dropped silently: "offloadble"
    # loaded as offloadable=True and "upload_byte" as 0 bytes
    trace = generate(n=2, lam=1.0, mix=MixSpec.preset("mix-1"), seed=0)
    path = tmp_path / "trace.jsonl"
    save(trace, path)
    lines = path.read_text().splitlines()
    for typo in ("offloadble", "upload_byte"):
        row = json.loads(lines[1])
        if typo == "offloadble":
            del row["offloadable"]
            row[typo] = False
        else:
            row["profile"][typo] = row["profile"].pop("upload_bytes")
        bad = list(lines)
        bad[1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(TraceError, match=f"line 2.*{typo}"):
            load(path)


def test_blank_lines_are_skipped(tmp_path):
    trace = generate(n=2, lam=1.0, mix=MixSpec.preset("mix-1"), seed=0)
    path = tmp_path / "trace.jsonl"
    save(trace, path)
    path.write_text(path.read_text().replace("\n", "\n\n"))
    assert len(load(path).tasks) == 2


def test_load_reads_raw_utf8_whatever_the_locale(tmp_path):
    # save() writes ASCII escapes, but a hand-written trace may hold the
    # character itself; load() decodes UTF-8 even under an ASCII locale
    path = tmp_path / "trace.jsonl"
    path.write_bytes(
        b'{"schema":"echo-sched-trace/1"}\n'
        b'{"app":"ocr","arrival":0,"id":"caf\xc3\xa9","offloadable":true,'
        b'"profile":{"down_cloud":1,"down_edge":1,"r_cloud":1,"r_edge":1,'
        b'"r_mobile":1,"up_cloud":1,"up_edge":1},"user_id":"u"}\n')
    assert load(path).tasks[0].id == "caf\u00e9"


def reference_lines(trace: TraceFile) -> str:
    header = {"schema": SCHEMA, **trace.header}
    rows = [header] + [dataclasses.asdict(t) for t in trace.tasks]
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                   for row in rows)


def test_saved_bytes_equal_the_per_line_reference(tmp_path):
    trace = generate(n=25, lam=2.0, mix=MixSpec.preset("mix-2"), seed=6)
    odd = ['q"uote', "back\\slash", "ctrl\x00\x1f", "caf\u00e9", "\u2028", "},\n"]
    tasks = [dataclasses.replace(t, id=f"{odd[i % 6]}{i}", user_id=odd[i % 6],
                                 app=odd[(i + 1) % 6], offloadable=i != 3)
             for i, t in enumerate(trace.tasks)]
    for header in (trace.header, {}, {"note": odd, "schema": SCHEMA}):
        odd_trace = TraceFile(header=header, tasks=tasks)
        path = tmp_path / "trace.jsonl"
        save(odd_trace, path)
        assert path.read_text() == reference_lines(odd_trace)
        assert load(path).tasks == tasks
    empty = TraceFile(header={}, tasks=[])
    save(empty, path)
    assert path.read_text() == reference_lines(empty)


def test_failed_save_leaves_no_partial_trace(tmp_path):
    trace = generate(n=6, lam=1.0, mix=MixSpec.preset("mix-1"), seed=3)
    # the fifth task's id is not JSON-serializable; Task refuses a
    # non-str id, so set it past the constructor's check
    tasks = list(trace.tasks)
    tasks[4] = dataclasses.replace(tasks[4])
    object.__setattr__(tasks[4], "id", b"t00004")
    broken = TraceFile(header=trace.header, tasks=tasks)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(TypeError):
        save(broken, path)
    assert list(tmp_path.iterdir()) == []
    # an existing trace at the path survives a failed save intact
    save(trace, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(TypeError):
        save(TraceFile(header={"bad": object()}, tasks=trace.tasks), path)
    assert path.read_bytes() == before


# -------------------------------------------------------------- generator


def test_generate_is_deterministic():
    a = generate(n=40, lam=2.0, mix=MixSpec.preset("mix-1"), seed=123)
    b = generate(n=40, lam=2.0, mix=MixSpec.preset("mix-1"), seed=123)
    assert a.tasks == b.tasks
    assert a.header == b.header


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate(n=0, lam=1.0, mix=MixSpec.preset("mix-1"), seed=0)
    for lam in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            generate(n=5, lam=lam, mix=MixSpec.preset("mix-1"), seed=0)
    with pytest.raises(ValueError):
        generate(n=5, lam=1.0, seed=0,
                 mix=MixSpec(0.5, interactive_weights={"nope": 1.0}))


def test_generate_and_mix_name_a_mistyped_field():
    # these once ran with a bool lambda in the header or a float seed, or
    # died with a bare TypeError
    mix = MixSpec.preset("mix-1")
    for kwargs, message in [
            (dict(n=3, lam=True, seed=0), "^lambda must be a finite real"),
            (dict(n=3, lam="2", seed=0), "^lambda must be a finite real"),
            (dict(n=2.5, lam=1.0, seed=0), "^n must be an integer"),
            (dict(n=3, lam=1.0, seed=1.5), "^seed must be an integer")]:
        with pytest.raises(ValueError, match=message):
            generate(mix=mix, **kwargs)
    for fraction in (True, "0.5"):
        with pytest.raises(ValueError,
                           match="^interactive_fraction must be a finite real"):
            MixSpec(interactive_fraction=fraction)


def test_mix_presets():
    assert MixSpec.preset("mix-1").interactive_fraction == 0.8
    assert MixSpec.preset("mix-2").interactive_fraction == 0.5
    assert MixSpec.preset("mix-3").interactive_fraction == 0.2
    with pytest.raises(ValueError, match="mix-9"):
        MixSpec.preset("mix-9")
    with pytest.raises(ValueError):
        MixSpec(interactive_fraction=1.5)
    with pytest.raises(ValueError):
        MixSpec(0.5, compute_weights={})


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, True, "1"])
@pytest.mark.parametrize("label", ["interactive", "compute"])
def test_mix_rejects_a_weight_that_is_not_a_finite_real(label, bad):
    weights = {"interactive": {"ocr": 1.0, "filter": bad},
               "compute": {"chess": bad, "sudoku": 1.0}}[label]
    with pytest.raises(ValueError, match=f"^{label} weight of"):
        MixSpec(0.5, **{f"{label}_weights": weights})


def test_mix_rejects_non_finite_weights_of_a_class_never_drawn():
    # with no interactive draws this once wrote a trace silently
    with pytest.raises(ValueError, match="^interactive weight of 'ocr'"):
        MixSpec(0.0, interactive_weights={"ocr": math.inf})
    # finite weights whose total overflows
    with pytest.raises(ValueError, match="^compute weight total"):
        MixSpec(1.0, compute_weights={"chess": 1e308, "sudoku": 1e308})
    with pytest.raises(ValueError, match="positive, got 0 for 'filter'"):
        MixSpec(1.0, interactive_weights={"ocr": 1, "filter": 0})


def test_generated_ids_arrivals_and_users():
    trace = generate(n=100, lam=2.0, mix=MixSpec.preset("mix-1"), seed=7)
    assert [t.id for t in trace.tasks] == [f"t{i:05d}" for i in range(100)]
    arrivals = [t.arrival for t in trace.tasks]
    assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
    assert all(t.user_id.startswith("u") and len(t.user_id) >= 3
               for t in trace.tasks)
    assert validate_trace(trace.tasks) == []


def test_interarrival_mean_matches_lambda():
    n, lam = 10_000, 2.0
    trace = generate(n=n, lam=lam, mix=MixSpec.preset("mix-1"), seed=11)
    gaps = [to_seconds(b.arrival - a.arrival)
            for a, b in zip(trace.tasks, trace.tasks[1:])]
    gaps.insert(0, to_seconds(trace.tasks[0].arrival))
    mean = statistics.fmean(gaps)
    # 3 sigma of the sample mean of Exp(2): 3 * 0.5 / sqrt(n)
    assert abs(mean - 0.5) <= 3 * 0.5 / math.sqrt(n)


def reference_tasks(n, lam, mix, seed) -> list[Task]:
    """generate()'s tasks drawn through random's own choices and uniform."""
    apps, links = _load_profiles(None)
    rng = random.Random(seed)
    tasks, arrival = [], 0
    for i in range(n):
        arrival += from_seconds(rng.expovariate(lam))
        weights = (mix.interactive_weights
                   if rng.random() < mix.interactive_fraction
                   else mix.compute_weights)
        names = sorted(weights)
        name = rng.choices(names, [weights[a] for a in names])[0]
        user = f"u{rng.randrange(100):02d}"
        app = apps[name]
        r_mobile = from_seconds(app.r_mobile_s * rng.uniform(0.75, 1.25))
        r_edge = from_seconds(app.r_edge_s * rng.uniform(0.75, 1.25))
        r_cloud = round(r_edge * rng.uniform(0.8, 1.0))
        up_kb = app.upload_kb * rng.uniform(0.75, 1.25)
        down_kb = app.download_kb * rng.uniform(0.75, 1.25)
        edge_s = links.edge_latency_ms / 1000.0
        cloud_s = links.cloud_latency_ms / 1000.0
        profile = CostProfile(
            r_mobile=r_mobile, r_edge=r_edge, r_cloud=r_cloud,
            up_edge=from_seconds(edge_s + up_kb / links.edge_rate_kb_per_s),
            down_edge=from_seconds(edge_s + down_kb / links.edge_rate_kb_per_s),
            up_cloud=from_seconds(cloud_s + up_kb / links.cloud_rate_kb_per_s),
            down_cloud=from_seconds(cloud_s
                                    + down_kb / links.cloud_rate_kb_per_s),
            upload_bytes=round(up_kb * 1024),
            download_bytes=round(down_kb * 1024))
        tasks.append(Task(id=f"t{i:05d}", user_id=user, app=name,
                          arrival=arrival, profile=profile))
    return tasks


@pytest.mark.parametrize("mix", [
    MixSpec.preset("mix-2"),
    MixSpec(0.4, {"ocr": 0.3, "filter": 2.7},
            {"chess": 1e-9, "sudoku": 5.5, "nqueens": 1 / 3}),
    MixSpec(0.7, {"ocr": 3, "filter": 1}, {"chess": 2, "nqueens": 7})])
def test_generate_draws_what_choices_and_uniform_draw(mix):
    assert generate(300, 1.5, mix, 7).tasks == reference_tasks(300, 1.5, mix, 7)


def test_class_balance_tracks_the_mix():
    for preset, fraction in (("mix-1", 0.8), ("mix-2", 0.5), ("mix-3", 0.2)):
        trace = generate(n=10_000, lam=2.0, mix=MixSpec.preset(preset), seed=5)
        interactive = sum(t.app in INTERACTIVE for t in trace.tasks)
        assert abs(interactive / 10_000 - fraction) <= 0.02, preset
        assert all(t.app in INTERACTIVE | COMPUTE for t in trace.tasks)


def test_generated_profiles_respect_link_asymmetry():
    # edge legs must beat cloud legs and remote compute must beat local,
    # otherwise offloading scenarios degenerate
    trace = generate(n=1000, lam=2.0, mix=MixSpec.preset("mix-2"), seed=21)
    for task in trace.tasks:
        p = task.profile
        assert p.up_edge < p.up_cloud
        assert p.down_edge < p.down_cloud
        assert p.r_cloud <= p.r_edge < p.r_mobile
        assert p.upload_bytes > 0 and p.download_bytes > 0


def test_custom_profile_config(tmp_path):
    config = tmp_path / "profiles.ini"
    config.write_text(
        "[links]\n"
        "edge_rate_kb_per_s = 1000\n"
        "edge_latency_ms = 10\n"
        "cloud_rate_kb_per_s = 100\n"
        "cloud_latency_ms = 100\n"
        "[app.solo]\n"
        "class = interactive\n"
        "r_mobile_s = 10\n"
        "r_edge_s = 1\n"
        "upload_kb = 100\n"
        "download_kb = 10\n")
    mix = MixSpec(1.0, interactive_weights={"solo": 1.0},
                  compute_weights={"solo": 1.0})
    trace = generate(n=20, lam=1.0, mix=mix, seed=0, profile_config=config)
    assert {t.app for t in trace.tasks} == {"solo"}
    assert trace.header["generator"]["profiles"] == str(config)


def test_missing_profile_config(tmp_path):
    with pytest.raises(TraceError, match="not found"):
        generate(n=5, lam=1.0, mix=MixSpec.preset("mix-1"), seed=0,
                 profile_config=tmp_path / "nope.ini")


def test_save_round_trips_offloadable_flag(tmp_path):
    trace = generate(n=4, lam=1.0, mix=MixSpec.preset("mix-1"), seed=2)
    pinned = trace.tasks[1]
    object.__setattr__(pinned, "offloadable", False)
    path = tmp_path / "trace.jsonl"
    save(TraceFile(header={}, tasks=trace.tasks), path)
    loaded = load(path)
    assert [t.offloadable for t in loaded.tasks] == [True, False, True, True]
