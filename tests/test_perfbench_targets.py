"""The benchmark's tracer patches names that echo_sched still defines."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_is_defined_where_the_tracer_patches_it(
        monkeypatch):
    # A renamed method fails here, not only in the benchmark's own selftest:
    # Tracer.installed() reads each target from its owner's __dict__.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    assert workloads.WORKLOADS
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer._targets()
               if attr not in owner.__dict__]
    assert missing == []
