"""Spans around oelab's public functions, installed from outside ``src/``.

Each wrapped function records a span: calls, inclusive time and self time
(inclusive time minus the time of its child spans).  Functions imported by
name into other modules (``derive``, ``randbelow``, ``rips_delta``, ...) are
replaced at every binding, and methods are wrapped on every class that
defines them, since groups and tilings define their methods per subclass.
A few spans also observe arguments or results to count the work done; the
counts derived from sizes are labelled "computed".
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

# metric name -> (unit, better); values are per pass
METRICS = {
    "rng.derive.calls": ("count", "lower"),
    "rng.derive.self_s": ("s", "lower"),
    "rng.randbelow.calls": ("count", "lower"),
    "rng.randbelow.self_s": ("s", "lower"),
    "groups.multiply.calls": ("count", "lower"),
    "groups.multiply.self_s": ("s", "lower"),
    "groups.word_length.calls": ("count", "lower"),
    "groups.word_length.self_s": ("s", "lower"),
    "groups.ball.self_s": ("s", "lower"),
    "tilings.letter.calls": ("count", "lower"),
    "tilings.contains.calls": ("count", "lower"),
    "tilings.contains.self_s": ("s", "lower"),
    "tilings.decode.calls": ("count", "lower"),
    "tilings.decode.self_s": ("s", "lower"),
    "tilings.build_tiles.self_s": ("s", "lower"),
    "tilings.build_tiles.elements": ("count-computed", "lower"),
    "tilings.escape_fraction.self_s": ("s", "lower"),
    "tilings.folner_constant.self_s": ("s", "lower"),
    "tilings.tile_diameter.self_s": ("s", "lower"),
    "coupling.act.calls": ("count", "lower"),
    "coupling.act.self_s": ("s", "lower"),
    "coupling.act.depth_mean": ("count", "lower"),
    "coupling.act.depth_exhausted": ("count", "lower"),
    "coupling.transfer_cocycle.calls": ("count", "lower"),
    "coupling.transfer_cocycle.self_s": ("s", "lower"),
    "coupling.mc_tail_frequencies.us_per_sample": ("us", "lower"),
    "coupling.mc_integrability.us_per_sample": ("us", "lower"),
    "coupling.return_time_density.us_per_sample": ("us", "lower"),
    "coupling.exact_tail.self_s": ("s", "lower"),
    "functional.induced_gradient_check.self_s": ("s", "lower"),
    "functional.isoperimetric_profile.self_s": ("s", "lower"),
    "functional.isoperimetric_profile.subsets": ("count", "lower"),
    "wreath.check_move_identities.calls": ("count", "lower"),
    "wreath.check_move_identities.self_s": ("s", "lower"),
    "bsll.bs_act.calls": ("count", "lower"),
    "bsll.bs_act.self_s": ("s", "lower"),
    "bsll.bs_act.carry_mean": ("count", "lower"),
    "bsll.move_distance.self_s": ("s", "lower"),
    "bsll.window_exhausted": ("count", "lower"),
    "bsll.tail_bound_sweep.us_per_sample": ("us", "lower"),
    "hyperbolicity.MetricGraph.self_s": ("s", "lower"),
    "hyperbolicity.rips_delta.self_s": ("s", "lower"),
    "hyperbolicity.rips_delta.tensor_mb": ("MB-computed", "lower"),
    "hyperbolicity.four_point_delta.self_s": ("s", "lower"),
    "hyperbolicity.four_point_delta.pairs": ("count-computed", "lower"),
    "hyperbolicity.extract_fat_cycle.self_s": ("s", "lower"),
    "hyperbolicity.geodesic_stability_check.calls": ("count", "lower"),
    "hyperbolicity.geodesic_stability_check.self_s": ("s", "lower"),
    "hyperbolicity.cycle_distortion.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "check.fail_frac": ("ratio", "lower"),
}

# Counters the prediction table (NOTES.md) says do a workload's work, and
# counters it says stay idle there.  A traced run asserts both.
BUSY = {
    "coupling-mc": (
        "rng.derive.calls", "rng.randbelow.calls", "groups.multiply.calls",
        "tilings.letter.calls", "tilings.contains.calls", "tilings.decode.calls",
        "tilings.escape_fraction.self_s", "coupling.act.calls", "coupling.act.depth_mean",
        "coupling.transfer_cocycle.calls", "coupling.exact_tail.self_s",
        "coupling.mc_tail_frequencies.us_per_sample", "coupling.mc_integrability.us_per_sample",
        "coupling.return_time_density.us_per_sample", "functional.induced_gradient_check.self_s",
        "wreath.check_move_identities.calls",
    ),
    "bsll-tail": (
        "rng.derive.calls", "groups.word_length.calls", "bsll.bs_act.calls",
        "bsll.bs_act.carry_mean", "bsll.move_distance.self_s", "bsll.tail_bound_sweep.us_per_sample",
    ),
    "hyp-graphs": (
        "hyperbolicity.MetricGraph.self_s", "hyperbolicity.rips_delta.self_s",
        "hyperbolicity.rips_delta.tensor_mb", "hyperbolicity.four_point_delta.self_s",
        "hyperbolicity.four_point_delta.pairs", "hyperbolicity.extract_fat_cycle.self_s",
        "hyperbolicity.geodesic_stability_check.calls", "hyperbolicity.cycle_distortion.self_s",
    ),
    "exact-cli": (
        "cli.main.calls", "cli.main.self_s", "cli.report_bytes", "groups.multiply.calls",
        "tilings.build_tiles.self_s", "tilings.build_tiles.elements", "tilings.escape_fraction.self_s",
        "tilings.folner_constant.self_s", "tilings.tile_diameter.self_s",
        "functional.isoperimetric_profile.self_s", "functional.isoperimetric_profile.subsets",
    ),
}
IDLE = {
    "coupling-mc": ("bsll.bs_act.calls", "hyperbolicity.MetricGraph.self_s", "cli.main.calls"),
    "bsll-tail": ("rng.randbelow.calls", "tilings.letter.calls", "coupling.act.calls", "hyperbolicity.MetricGraph.self_s"),
    "hyp-graphs": ("rng.derive.calls", "rng.randbelow.calls", "coupling.act.calls", "bsll.bs_act.calls"),
    "exact-cli": ("coupling.act.calls", "bsll.bs_act.calls", "hyperbolicity.MetricGraph.self_s"),
}


class Tracer:
    """Span statistics for one pass; install() patches oelab, remove() undoes it."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.stats: dict[str, list] = {}  # span -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self.root_s = 0.0
        self._stack: list[float] = []

    def _count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, span, fn, after=None, on_error=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                st = tracer.stats.get(span)
                if st is None:
                    st = tracer.stats[span] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - child
                st[2] += dur
                if stack:
                    stack[-1] += dur
                else:
                    tracer.root_s += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def function(self, span, module, name, after=None, on_error=None):
        """Wrap a module function at every oelab binding of it."""
        original = getattr(module, name)
        wrapped = self._wrap(span, original, after, on_error)
        for modname, mod in list(sys.modules.items()):
            if modname == "oelab" or modname.startswith("oelab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def method(self, span, base, name, after=None, on_error=None):
        """Wrap a method on the base class and on every subclass that defines it."""
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            fn = cls.__dict__.get(name)
            if inspect.isfunction(fn):
                self._patch(cls, name, self._wrap(span, fn, after, on_error))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def install(self):
        from oelab import _rng, bsll, cli, coupling, functional, groups, hyperbolicity, tilings, wreath
        from oelab.errors import DepthExhausted, WindowExhausted

        def arg(fn, name, args, kwargs):
            return inspect.signature(fn).bind(*args, **kwargs).arguments[name]

        def samples_of(fn, span):
            def after(args, kwargs, result):
                self._count(span + ".samples", arg(fn, "samples", args, kwargs))

            return after

        def depth(args, kwargs, result):
            self._count("coupling.act.returns")
            self._count("coupling.act.depth_sum", result[1] + 1)

        def carry(args, kwargs, result):
            self._count("bsll.bs_act.returns")
            self._count("bsll.bs_act.changed", len(result[1]))

        def tiles(args, kwargs, result):
            self._count("tilings.build_tiles.elements", sum(len(t) for t in result))

        def tensor(args, kwargs, result):
            self._count("hyperbolicity.rips_delta.tensor_mb", 2 * args[0].n ** 3 / 1e6)

        def pairs(args, kwargs, result):
            n = args[0].n
            self._count("hyperbolicity.four_point_delta.pairs", n * (n + 1) // 2)

        def subsets(args, kwargs, result):
            self._count("functional.isoperimetric_profile.subsets", result.subsets_searched)

        def raised(kind, key):
            def on_error(exc):
                if isinstance(exc, kind):
                    self._count(key)

            return on_error

        self.function("rng.derive", _rng, "derive")
        self.function("rng.randbelow", _rng, "randbelow")
        for name in ("multiply", "word_length", "ball"):
            self.method(f"groups.{name}", groups.Group, name)
        for name in ("letter", "contains", "decode", "escape_fraction", "folner_constant", "tile_diameter"):
            self.method(f"tilings.{name}", tilings.TilingSequence, name)
        self.method("tilings.build_tiles", tilings.TilingSequence, "build_tiles", after=tiles)
        self.method(
            "coupling.act", coupling.TilingAction, "act", after=depth,
            on_error=raised(DepthExhausted, "coupling.act.depth_exhausted"),
        )
        self.method("coupling.exact_tail", coupling.TilingAction, "exact_tail")
        self.method("coupling.transfer_cocycle", coupling.MatchedCoupling, "transfer_cocycle")
        for name in ("mc_tail_frequencies", "mc_integrability", "return_time_density"):
            fn = getattr(coupling, name)
            self.function(f"coupling.{name}", coupling, name, after=samples_of(fn, f"coupling.{name}"))
        self.function("functional.induced_gradient_check", functional, "induced_gradient_check")
        self.function("functional.isoperimetric_profile", functional, "isoperimetric_profile", after=subsets)
        self.function("wreath.check_move_identities", wreath, "check_move_identities")
        self.function(
            "bsll.bs_act", bsll, "bs_act", after=carry,
            on_error=raised(WindowExhausted, "bsll.window_exhausted"),
        )
        self.method("bsll.move_distance", bsll.BsLamplighterCoupling, "move_distance")
        sweep = bsll.BsLamplighterCoupling.tail_bound_sweep
        self.method(
            "bsll.tail_bound_sweep", bsll.BsLamplighterCoupling, "tail_bound_sweep",
            after=samples_of(sweep, "bsll.tail_bound_sweep"),
        )
        self.method("hyperbolicity.MetricGraph", hyperbolicity.MetricGraph, "__init__")
        self.function("hyperbolicity.rips_delta", hyperbolicity, "rips_delta", after=tensor)
        self.function("hyperbolicity.four_point_delta", hyperbolicity, "four_point_delta", after=pairs)
        for name in ("extract_fat_cycle", "geodesic_stability_check", "cycle_distortion"):
            self.function(f"hyperbolicity.{name}", hyperbolicity, name)
        self.function("cli.main", cli, "main")

    def metrics(self, pass_counts: dict) -> dict:
        """Per-pass layer metrics from the spans and counts of the last pass."""
        counts = {**self.counts, **pass_counts}
        out = {}
        for name in METRICS:
            span, _, stat = name.rpartition(".")
            st = self.stats.get(span, [0, 0.0, 0.0])
            if stat == "calls":
                out[name] = st[0]
            elif stat == "self_s":
                out[name] = st[1]
            elif stat == "us_per_sample":
                n = counts.get(span + ".samples", 0)
                out[name] = 1e6 * st[2] / n if n else 0.0
            elif name == "coupling.act.depth_mean":
                n = counts.get("coupling.act.returns", 0)
                out[name] = counts.get("coupling.act.depth_sum", 0) / n if n else 0.0
            elif name == "bsll.bs_act.carry_mean":
                n = counts.get("bsll.bs_act.returns", 0)
                out[name] = counts.get("bsll.bs_act.changed", 0) / n if n else 0.0
            else:
                out[name] = counts.get(name, 0)
        return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
