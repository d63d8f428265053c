"""Spans around gfdlab's public functions, installed from outside.

The tracer replaces a function on the object its caller looks it up on
(``gfdlab.cli.estimate_survival``, the class attribute
``JumpSampler.event``, ...) with a wrapper that records a span: name,
start, end and the span open when it began. Spans stay in memory until
the run ends. Event draws are too many to keep one span each; they are
counted and timed into the span that was open when they happened, which
keeps self time (a span minus its children) exact.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# a span record: [name, start, end, parent, events, event_s, attrs]
NAME, START, END, PARENT, EVENTS, EVENT_S, ATTRS = range(7)


def _spectral_attrs(sol, kwargs):
    n = sol.grid.n
    # two dense matvecs (P u and P^T v) of n x n float64 per iteration
    return {"iterations": sol.iterations, "grid_n": n,
            "bytes": 2 * 8 * n * n * sol.iterations}


def _extinction_attrs(result, kwargs):
    # generation_curve returns (profile, curve), solve_extinction the profile
    prof = result[0] if isinstance(result, tuple) else result
    n = prof.grid.n
    k = kwargs.get("alpha_nodes", 129)
    # per generation: the n x n weight matvec plus the two interpolated
    # daughter tables and their weights, n x k each
    return {"generations": prof.generations,
            "unconverged": int(prof.tag != "fixed_point"),
            "bytes": prof.generations * 8 * (n * n + 3 * n * k)}


def _survival_attrs(est, kwargs):
    return {"trials": est.n_trials, "censored": sum(est.censored.values())}


def _martingale_attrs(report, kwargs):
    return {"trials": report.n_trials, "censored": 0}


class Tracer:
    """Span recorder; ``install`` patches gfdlab, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []
        # events drawn outside any span land here
        self.loose = [None, 0.0, 0.0, -1, 0, 0.0, {}]

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1, 0, 0.0, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def op(self, name):
        """Span around one of the benchmark's operations; yields its attrs."""
        idx = self.begin("op." + name)
        try:
            yield self.spans[idx][ATTRS]
        finally:
            self.end(idx)

    def _wrap(self, owner, attr, name, measure=None):
        orig = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if measure is not None:
                tracer.spans[idx][ATTRS] = measure(result, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _count_events(self, owner, attr):
        orig = owner.__dict__[attr]
        clock = time.perf_counter
        spans, stack, loose = self.spans, self._open, self.loose

        def traced(sampler, x, E):
            t = clock()
            out = orig(sampler, x, E)
            rec = spans[stack[-1]] if stack else loose
            rec[EVENTS] += 1
            rec[EVENT_S] += clock() - t
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self, gfdlab):
        """Wrap every public entry point of each layer where it is looked up."""
        cli, spectral, extinction = gfdlab.cli, gfdlab.spectral, gfdlab.extinction
        # the benchmark's own calls go through the package namespace,
        # run_sweep's through gfdlab.cli
        self._wrap(gfdlab, "load_config", "config.load")
        self._wrap(gfdlab, "validate_assumptions", "config.validate")
        self._wrap(gfdlab, "run_sweep", "cli.sweep")
        self._wrap(gfdlab, "solve_extinction", "extinction.solve",
                   _extinction_attrs)
        self._wrap(gfdlab, "martingale_check", "simulate.martingale",
                   _martingale_attrs)
        for owner in (gfdlab, cli):
            self._wrap(owner, "principal_eigenpair", "spectral.solve",
                       _spectral_attrs)
            self._wrap(owner, "estimate_survival", "simulate.survival",
                       _survival_attrs)
            self._wrap(owner, "generation_curve", "extinction.solve",
                       _extinction_attrs)
        self._wrap(cli, "fixed_point_residual", "extinction.residual")
        self._wrap(spectral, "assemble_operator", "spectral.assemble")
        for owner in (spectral, extinction):
            self._wrap(owner, "support_quadrature_batch", "kernels.quadrature")
        self._wrap(gfdlab.ExtinctionProfile, "to_csv", "cli.write")
        self._wrap(gfdlab.SpectralSolution, "to_csv", "cli.write")
        self._count_events(gfdlab.JumpSampler, "event")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "events",
                                  "event_s", "attrs"],
                       "spans": self.spans, "loose": self.loose[EVENTS:EVENT_S + 1]},
                      fh)


def layer_metrics(spans, loose, rounds):
    """Per-layer figures from recorded spans; round work is per round.

    Spans named ``config.*`` are set-up work and are totalled, not
    divided by ``rounds``.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    def select(prefix):
        return [i for i, rec in enumerate(spans) if rec[NAME].startswith(prefix)]

    def total(prefix):
        return sum(spans[i][END] - spans[i][START] for i in select(prefix))

    def self_time(prefix):
        return sum(spans[i][END] - spans[i][START] - child[i] - spans[i][EVENT_S]
                   for i in select(prefix))

    def attr(prefix, key):
        return sum(spans[i][ATTRS].get(key, 0) for i in select(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    r = float(rounds)
    events = sum(rec[EVENTS] for rec in spans) + loose[EVENTS]
    event_s = sum(rec[EVENT_S] for rec in spans) + loose[EVENT_S]
    sim_events = sum(spans[i][EVENTS] for i in select("simulate."))
    trials = attr("simulate.", "trials")
    grids = {spans[i][ATTRS]["grid_n"] for i in select("spectral.solve")}
    ext_s = total("extinction.solve")
    generations = attr("extinction.solve", "generations")
    return {
        "config.load_s": (total("config.load"), "s"),
        "config.validate_s": (total("config.validate"), "s"),
        "flow.events": (events / r, "count"),
        "flow.event_us": (ratio(event_s, events) * 1e6, "us"),
        "flow.event_s": (event_s / r, "s"),
        "simulate.trials": (trials / r, "count"),
        "simulate.trials_per_s": (ratio(trials, total("simulate.")), "1/s"),
        "simulate.events_per_trial": (ratio(sim_events, trials), "count"),
        "simulate.self_s": (self_time("simulate.") / r, "s"),
        "simulate.censored_share": (ratio(attr("simulate.", "censored"), trials),
                                    "ratio"),
        "extinction.solve_s": (ext_s / r, "s"),
        "extinction.generations": (generations / r, "count"),
        "extinction.generation_ms": (ratio(ext_s, generations) * 1e3, "ms"),
        "extinction.residual_s": (total("extinction.residual") / r, "s"),
        "extinction.bytes_moved_computed": (
            attr("extinction.solve", "bytes") / r, "bytes"),
        "extinction.unconverged": (
            attr("extinction.solve", "unconverged") / r, "count"),
        "spectral.solve_s": (total("spectral.solve") / r, "s"),
        "spectral.assemble_s": (total("spectral.assemble") / r, "s"),
        "spectral.iterations": (attr("spectral.solve", "iterations") / r,
                                "count"),
        "spectral.grid_levels": (len(grids), "count"),
        "spectral.bytes_moved_computed": (
            attr("spectral.solve", "bytes") / r, "bytes"),
        "kernels.quadrature_s": (total("kernels.quadrature") / r, "s"),
        "cli.self_s": (self_time("cli.sweep") / r, "s"),
        "cli.write_s": (total("cli.write") / r, "s"),
        "cli.bytes_written": (attr("op.", "bytes_written") / r, "bytes"),
    }
