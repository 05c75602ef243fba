"""Spans around the public calls of the six combwalks modules.

The traced run wraps each call from outside the package and installs the
wrapper where the caller looks the name up: ``cli`` holds its own
references to ``run_ensemble``, ``write_summaries`` and the stats
reductions, and ``oracle`` holds its own ``ball``.  Nothing under ``src/``
changes.  Every call records one span ``[name, parent, start, end]`` in
memory; counters are taken from the call's arguments and result after the
span has closed.
"""

from __future__ import annotations

import os
import time

LAYERS = ("rng", "graphs", "oracle", "sampler", "stats", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = {}
        self.budget_estimate = 0  # bytes, largest ball seen
        self._stack = []
        self._undo = []

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span per call; ``name`` may be a function of
        (args, kwargs) when one callee serves several named phases."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap every traced entry point; ``restore`` undoes it."""
        from combwalks import cli, graphs, oracle, rng, sampler

        self.patch(rng.RngStream, "generator", "rng.generator")
        for owner in (graphs, oracle):
            self.patch(owner, "ball", "graphs.ball", _after_ball)
        self.patch(cli, "build_graph", "graphs.build_graph")
        self.patch(oracle.Kernel, "__init__", "oracle.kernel_build")
        self.patch(oracle.Kernel, "step", "oracle.step", _after_kernel_step)
        self.patch(oracle, "_grid_octant_series", "oracle.grid_octant")
        for fn in ("return_probability_series", "meeting_expectation_series",
                   "per_site_collision_series", "transition_vector"):
            for owner in (oracle, cli):
                if hasattr(owner, fn):
                    self.patch(owner, fn, "oracle." + fn)
        self.patch(sampler, "sample_marginal", _marginal_name, _after_marginal)
        self.patch(sampler, "clock_dichotomy_violations", "sampler.dichotomy",
                   _after_dichotomy)
        self.patch(cli, "run_ensemble", "sampler.ensemble", _after_ensemble)
        self.patch(cli, "write_summaries", "sampler.encode", _after_encode)
        self.patch(cli, "read_summaries", "sampler.decode")
        self.patch(cli, "meeting_growth_curve", "stats.growth", _after_reduce)
        self.patch(cli, "dyadic_collision_stats", "stats.grid", _after_reduce)
        self.patch(cli, "lil_envelope_check", "stats.lil", _after_reduce)
        self.patch(cli, "main", "cli.main")

    def times(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         own + end - start - child[i])
        return out

    def layer_metrics(self, wall):
        """Per-layer numbers of one traced round whose wall time is ``wall``."""
        times = self.times()

        def total(name):
            return times.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return times.get(name, (0, 0.0, 0.0))[2]

        c = self.counts.get
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum((v[2] for k, v in times.items()
                                        if k.split(".")[0] == layer), 0.0)
        top = sum(end - start for _, parent, start, end in self.spans
                  if parent < 0)
        m["other.self_s"] = wall - top
        m["rng.generators"] = times.get("rng.generator", (0,))[0]
        m["rng.generator_s"] = total("rng.generator")
        m["graphs.ball_s"] = total("graphs.ball")
        m["graphs.ball_states"] = c("ball_states", 0)
        m["graphs.ball_arcs"] = c("ball_arcs", 0)
        m["oracle.kernel_build_s"] = total("oracle.kernel_build")
        m["oracle.step_s"] = total("oracle.step")
        m["oracle.steps"] = c("oracle_steps", 0)
        m["oracle.state_steps"] = c("state_steps", 0)
        m["oracle.ns_per_state_step"] = _ratio(1e9 * total("oracle.step"),
                                               c("state_steps", 0))
        m["oracle.grid_octant_s"] = total("oracle.grid_octant")
        m["oracle.budget_estimate_mib"] = self.budget_estimate / 2 ** 20
        m["sampler.ensemble_s"] = total("sampler.ensemble")
        m["sampler.pair_steps"] = c("pair_steps", 0)
        m["sampler.ns_per_pair_step"] = _ratio(
            1e9 * total("sampler.ensemble"), c("pair_steps", 0))
        m["sampler.step_observe_s"] = own("sampler.ensemble")
        m["sampler.meetings"] = c("meetings", 0)
        m["sampler.encode_s"] = total("sampler.encode")
        m["sampler.decode_s"] = total("sampler.decode")
        m["sampler.jsonl_bytes"] = c("jsonl_bytes", 0)
        for method in ("direct", "selfloop", "clock"):
            m[f"sampler.marginal_{method}_s"] = total(
                f"sampler.marginal_{method}")
        m["sampler.samples"] = c("samples", 0)
        m["sampler.dichotomy_s"] = total("sampler.dichotomy")
        m["sampler.dichotomy_checks"] = c("dichotomy_checks", 0)
        m["stats.growth_s"] = total("stats.growth")
        m["stats.grid_s"] = total("stats.grid")
        m["stats.lil_s"] = total("stats.lil")
        m["stats.records"] = c("records", 0)
        m["trace.spans"] = len(self.spans)
        return m


def _ratio(num, den):
    return num / den if den else 0.0


def _after_ball(tracer, args, b):
    arcs = len(b.arc_src)
    tracer.add("ball_states", b.size)
    tracer.add("ball_arcs", arcs)
    # graphs._budget_check's estimate: 40 B per state plus 24 B per arc
    tracer.budget_estimate = max(tracer.budget_estimate,
                                 40 * b.size + 24 * arcs)


def _after_kernel_step(tracer, args, result):
    kernel, _, reach = args
    b = kernel.ball
    tracer.add("oracle_steps", 1)
    tracer.add("state_steps", b.interior_size(min(reach, b.radius)))


def _marginal_name(args, kwargs):
    return "sampler.marginal_" + kwargs.get("method", "direct")


def _after_marginal(tracer, args, positions):
    tracer.add("samples", len(positions))


def _after_dichotomy(tracer, args, result):
    tracer.add("dichotomy_checks", result[1])


def _after_ensemble(tracer, args, summaries):
    tracer.add("pair_steps", sum(s.n_steps for s in summaries))
    tracer.add("meetings", sum(s.meetings for s in summaries))


def _after_encode(tracer, args, result):
    tracer.add("jsonl_bytes", os.path.getsize(args[0]))


def _after_reduce(tracer, args, result):
    tracer.add("records", len(args[0]))
