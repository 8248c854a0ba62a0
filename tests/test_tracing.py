"""The benchmark's tracer still finds every oelab name it wraps.

``Tracer.function`` and ``Tracer.method`` patch nothing, silently, when a
name is gone, so a renamed function or method would only empty one of the
benchmark's per-layer metrics.  These tests load ``perfbench/tracing.py``
as it is and check every wrap it asks for against the package.
"""

import importlib.util
from pathlib import Path

import pytest

import oelab.bsll
import oelab.coupling
from oelab import _rng
from oelab.tilings import ZnTiling

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    # a private copy: the benchmark's own tests import it as ``tracing``
    spec = importlib.util.spec_from_file_location("oelab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_it_wraps(tracing, monkeypatch):
    patched = {}  # "owner.name" -> patches made for it
    for hook in ("function", "method"):

        def counting(self, span, owner, name, *args, _hook=getattr(tracing.Tracer, hook), **kwargs):
            before = len(self._patched)
            _hook(self, span, owner, name, *args, **kwargs)
            key = f"{owner.__name__}.{name}"
            patched[key] = patched.get(key, 0) + len(self._patched) - before

        monkeypatch.setattr(tracing.Tracer, hook, counting)
    derive = _rng.derive
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _rng.derive is not derive
        for key in ("oelab._rng.derive", "TilingSequence.tile_diameter", "TilingAction.act",
                    "MatchedCoupling.transfer_cocycle", "oelab.coupling.mc_tail_frequencies",
                    "BsLamplighterCoupling.tail_bound_sweep"):
            assert key in patched
        assert [key for key, count in patched.items() if count == 0] == []

        action = oelab.coupling.TilingAction(ZnTiling(2))
        oelab.coupling.mc_tail_frequencies(action, (1, 0), range(3), 25, 1)
        C = oelab.bsll.BsLamplighterCoupling(2)
        C.tail_bound_sweep((1, 0, 0), range(2, 4), samples=30, seed=2)
        for span, samples in (("coupling.mc_tail_frequencies", 25), ("bsll.tail_bound_sweep", 30)):
            assert tracer.stats[span][0] == 1
            assert tracer.counts[span + ".samples"] == samples
        metrics = tracer.metrics({})
        assert metrics["coupling.mc_tail_frequencies.us_per_sample"] > 0
        assert metrics["bsll.tail_bound_sweep.us_per_sample"] > 0
    finally:
        tracer.remove()
    assert _rng.derive is derive
    assert "__wrapped__" not in vars(oelab.coupling.mc_tail_frequencies)


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, imported as its own tests import them."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    monkeypatch.setenv("OELAB_BUDGET_MB", "1024")  # as perfbench/run.py sets it
    import checks
    import tracing
    import workloads

    return checks, tracing, workloads


@pytest.mark.parametrize("workload", ["coupling-mc", "bsll-tail", "hyp-graphs", "exact-cli"])
def test_a_traced_pass_meets_the_benchmark_predictions(bench, workload):
    # a traced benchmark run fails on any of these, even with every reference matched
    checks, tracing, workloads = bench
    variant = 1
    inputs = workloads.WORKLOADS[workload][0](variant)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        done = workloads.run_pass(workload, inputs, {})
    finally:
        tracer.remove()
    assert checks.failures(done.ops, checks.load_references(workload, variant)) == []
    metrics = tracer.metrics(done.counts)
    assert [k for k in tracing.BUSY[workload] if not metrics[k] > 0] == []
    assert [k for k in tracing.IDLE[workload] if metrics[k] != 0] == []
