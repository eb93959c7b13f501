"""Span tracing of fracperc's public functions, installed from outside the package.

Every public module-level function of the traced modules is replaced on its
module by a wrapper that times the call. Callers inside the package look
these functions up as module attributes (or module globals) at call time,
so the wrappers see the calls between layers without any change under
``src/``. Spans nest: a span's self time is its duration minus the part of
it covered by the spans it caused, and the bookkeeping of a child span is
charged to neither.

Besides time, a few spans record the work they did, so that rates are
measured where the work happens:

* ``rng.node_uniforms``: uniforms hashed;
* ``sampler.sample``: living nodes, i.e. kept cells over all levels;
* ``geometry.minkowski_of_array`` and ``geometry.label``: lattice cells;
* ``montecarlo.run_experiment``: replicates requested;
* ``oracle.enumerate_2d``: the first call for each (M, n), which includes
  the p-independent table build, is also summed as ``cold_s``.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

import numpy as np

#: Modules of ``fracperc`` whose public functions are traced: the layers.
LAYERS = ("rng", "sampler", "geometry", "montecarlo", "analytic", "oracle", "verify", "cli")

#: Lattices larger than this are redrawn at a coarser level before
#: ``label`` is replayed under tracemalloc, which makes the pure-Python
#: union-find about 18x slower and more than doubles its memory.
LABEL_REPLAY_MAX_CELLS = 1 << 20


class Tracer:
    """Aggregated spans: per name the calls, inclusive and self seconds."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.work: dict[str, int] = {}
        self.cold_s = 0.0
        self._cold_keys: set = set()
        self.first_args: dict[str, tuple] = {}
        self._stack: list = []
        self._originals: dict[str, object] = {}

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = fn
                setattr(module, attr, self.wrap(name, fn))

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            uniforms_before = self.work.get("rng.node_uniforms", 0)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - start
            stats[0] += 1
            stats[1] += duration
            stats[2] += duration - frame[0]
            if after is not None:
                after(args, kwargs, result, duration, uniforms_before)
            if stack:
                stack[-1][0] += clock() - start
            return result

        return traced

    def _add(self, key: str, amount: int) -> None:
        self.work[key] = self.work.get(key, 0) + int(amount)

    def _remember(self, name: str, args, kwargs) -> None:
        self.first_args.setdefault(name, (args, kwargs))

    def _after_rng_node_uniforms(self, args, kwargs, result, duration, before):
        self._add("rng.node_uniforms", result.size)

    def _after_sampler_sample(self, args, kwargs, result, duration, before):
        # Level l hashes M^d uniforms per living cell of level l-1, so the
        # living cells of levels 0..n-1 are (uniforms drawn) / M^d.
        fanout = result.M**result.d
        drawn = self.work.get("rng.node_uniforms", 0) - before
        living = drawn // fanout - 1 + np.count_nonzero(result.occupancy)
        self._add("sampler.sample", living)
        self._remember("sampler.sample", args, kwargs)

    def _after_geometry_minkowski_of_array(self, args, kwargs, result, duration, before):
        self._add("geometry.minkowski_of_array", np.size(_arg(args, kwargs, 0, "occ")))

    def _after_geometry_label(self, args, kwargs, result, duration, before):
        self._add("geometry.label", result.labels.size)
        self._remember("geometry.label", args, kwargs)

    def _after_montecarlo_run_experiment(self, args, kwargs, result, duration, before):
        self._add("montecarlo.run_experiment", result.samples)

    def _after_oracle_enumerate_2d(self, args, kwargs, result, duration, before):
        key = (_arg(args, kwargs, 0, "M"), _arg(args, kwargs, 2, "n"))
        if key not in self._cold_keys:
            self._cold_keys.add(key)
            self.cold_s += duration

    def peak_bytes_per_cell(self, package) -> dict:
        """Replay the first ``sample`` and ``label`` calls under tracemalloc.

        Returns the peak traced bytes over each call divided by the cells of
        the lattice it produced or labelled; 0 for a call that never ran.
        """
        out = {"sampler": 0.0, "geometry.label": 0.0}
        sample = self._originals["sampler.sample"]
        if "sampler.sample" in self.first_args:
            args, kwargs = self.first_args["sampler.sample"]
            peak, grid = _traced_peak(sample, args, kwargs)
            out["sampler"] = peak / grid.occupancy.size
        if "geometry.label" in self.first_args:
            args, kwargs = self.first_args["geometry.label"]
            grid = args[0]
            if isinstance(grid, package.sampler.GridRealization):
                level = grid.n
                while grid.M ** (grid.d * level) > LABEL_REPLAY_MAX_CELLS:
                    level -= 1
                if level != grid.n:
                    params = package.ModelParams(grid.M, grid.p, grid.d)
                    grid = sample(params, level, grid.seed, grid.sample_index)
            cells = np.size(getattr(grid, "occupancy", grid))
            peak, _ = _traced_peak(self._originals["geometry.label"], (grid,) + args[1:], kwargs)
            out["geometry.label"] = peak / cells
        return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _traced_peak(fn, args, kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result
