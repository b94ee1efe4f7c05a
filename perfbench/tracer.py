"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces every name in ``HOOKS`` with a wrapper that
records a span (name, start, end, parent span, episode id). A function is
rebound under every module of the package that binds it, so a name that
``stream`` or ``config`` imports directly is traced too. A hooked name
that no longer exists raises ``HookError``: the traced run fails rather
than reporting zero for a layer.

Spans stay in memory; ``analyse`` turns them into the per-layer metrics.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass

PACKAGE = "reservoir_tta"
MODULES = ("cli", "config", "stream", "style", "clustering", "model_reservoir", "tta", "theory")

# (module, attribute): the fixed list of traced public names. A dotted
# attribute is a method, traced as "<module>.<method>".
HOOKS = (
    ("cli", "cmd_run"),
    ("cli", "cmd_theory"),
    ("config", "build_context"),
    ("config", "calibration_styles"),
    ("stream", "run_episode"),
    ("stream", "DomainStream.next_batch"),
    ("stream", "make_domains"),
    ("style", "extract_style"),
    ("style", "calibrate_threshold"),
    ("clustering", "StyleReservoir.offer"),
    ("clustering", "CentroidSet.detect"),
    ("clustering", "soft_assign_vector"),
    ("clustering", "update_centroids"),
    ("model_reservoir", "ModelReservoir.init_new_model"),
    ("model_reservoir", "ModelReservoir.write_active"),
    ("model_reservoir", "ModelReservoir.ensemble_params"),
    ("tta", "tta_step"),
    ("tta", "predict"),
    ("tta", "train_source"),
    ("tta", "estimate_fisher"),
    ("theory", "simulate_sgd"),
    ("theory", "simulate_weight_ensemble"),
    ("theory", "check_chebyshev"),
    ("theory", "check_recursion"),
    ("theory", "check_fisher_trajectory"),
)

EPISODE = "stream.run_episode"
SETUP = "config.build_context"
CMD_RUN = "cli.cmd_run"

# Functions timed per call in the episode phase (".ms" and ".calls").
EPISODE_FUNCS = (
    "clustering.update_centroids",
    "clustering.detect",
    "clustering.soft_assign_vector",
    "clustering.offer",
    "stream.next_batch",
    "tta.tta_step",
    "tta.predict",
    "model_reservoir.ensemble_params",
    "model_reservoir.write_active",
    "model_reservoir.init_new_model",
    "style.extract_style",
)
# Set-up children of build_context, reported as total span duration (".s").
SETUP_FUNCS = (
    "tta.train_source",
    "config.calibration_styles",
    "style.calibrate_threshold",
    "stream.make_domains",
    "tta.estimate_fisher",
)
THEORY_FUNCS = (
    "theory.simulate_sgd",
    "theory.simulate_weight_ensemble",
    "theory.check_chebyshev",
    "theory.check_recursion",
    "theory.check_fisher_trajectory",
)
# Monte-Carlo functions whose work is (trials x steps) trial-steps.
MC_FUNCS = ("theory.simulate_sgd", "theory.simulate_weight_ensemble", "theory.check_chebyshev")
LAYERS = ("style", "clustering", "model_reservoir", "tta", "stream")


class HookError(RuntimeError):
    """A name in ``HOOKS`` is missing from the package."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    episode: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- counters read at the hooked boundaries ---------------------------------


def _observe_detect(counters, bound, result):
    if result.kind == "new_domain":
        counters["clustering.spawns"] += 1
    elif result.distance > bound.arguments["tau"]:
        counters["clustering.cap_hits"] += 1
    centroids = bound.arguments["self"].count
    counters["clustering.centroids"] = max(counters["clustering.centroids"], centroids)


def _observe_models(counters, bound, result):
    models = bound.arguments["self"].count
    counters["model_reservoir.models"] = max(counters["model_reservoir.models"], models)


def _observe_trials(counters, bound, result):
    args = bound.arguments
    counters["theory.trial_steps"] += int(args["trials"]) * int(args["steps"])


OBSERVERS = {
    "clustering.detect": _observe_detect,
    "model_reservoir.write_active": _observe_models,
    "model_reservoir.init_new_model": _observe_models,
    "theory.simulate_sgd": _observe_trials,
    "theory.simulate_weight_ensemble": _observe_trials,
    "theory.check_chebyshev": _observe_trials,
}
COUNTERS = (
    "clustering.spawns",
    "clustering.cap_hits",
    "clustering.centroids",
    "model_reservoir.models",
    "theory.trial_steps",
)


class Tracer:
    """Records spans of hooked calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._episodes = 0
        self._undo: list[tuple[object, str, object]] = []

    def _parent(self) -> Span | None:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            return stack[-1]
        # A worker thread's first span hangs under the span the main thread
        # is blocked in (cmd_run's pool.map).
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            parent = self._parent()
            if name == EPISODE:
                episode = self._episodes
                self._episodes += 1
            else:
                episode = parent.episode if parent else None
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        parent.id if parent else None, episode)
            self.spans.append(span)
            stack = self._stacks.setdefault(threading.get_ident(), [])
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe:
                observe(self.counters, signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every hooked name; raises HookError if one is missing."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for module, attr in HOOKS:
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name, None)
                original = getattr(owner, method, None) if owner is not None else None
                if original is None:
                    raise HookError(f"{PACKAGE}.{module}.{attr} is missing")
                self._patch(owner, method, self.wrap(f"{module}.{method}", original))
                continue
            original = getattr(modules[module], attr, None)
            if original is None:
                raise HookError(f"{PACKAGE}.{module}.{attr} is missing")
            wrapper = self.wrap(f"{module}.{attr}", original)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# --- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's; spans[i].id == i."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[span.id] for span in spans]


def _under(spans: list[Span], name: str) -> list[bool]:
    """Whether each span is ``name`` or has an ancestor called ``name``."""
    inside = [False] * len(spans)
    for span in spans:  # parents are recorded before their children
        inside[span.id] = span.name == name or (
            span.parent is not None and inside[span.parent]
        )
    return inside


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def step_latencies(spans: list[Span]) -> list[float]:
    """Seconds from one next_batch start to the next (or to episode end)."""
    ends = {s.episode: s.end for s in spans if s.name == EPISODE}
    starts: dict[int, list[float]] = {}
    for s in spans:
        if s.name == "stream.next_batch" and s.episode is not None:
            starts.setdefault(s.episode, []).append(s.start)
    out = []
    for episode, marks in starts.items():
        marks = sorted(marks) + [ends[episode]]
        out.extend(b - a for a, b in zip(marks, marks[1:]))
    return out


def analyse(spans: list[Span], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see the README)."""
    own = self_times(spans)
    in_setup = _under(spans, SETUP)
    episodes = [s for s in spans if s.name == EPISODE]
    episode_s = sum(s.duration for s in episodes)
    steps = sum(1 for s in spans if s.name == "stream.next_batch" and s.episode is not None)

    def episode_self(match) -> list[float]:
        return [own[s.id] for s in spans
                if s.episode is not None and s.name != EPISODE and match(s.name)]

    m: dict[str, float] = {}
    for name in EPISODE_FUNCS:
        times = episode_self(name.__eq__)
        m[f"{name}.ms"] = 1e3 * sum(times) / len(times) if times else 0.0
        m[f"{name}.calls"] = len(times)
    for name in ("clustering.spawns", "clustering.cap_hits", "clustering.centroids",
                 "model_reservoir.models"):
        m[name] = counters[name]

    engine_self = sum(own[s.id] for s in episodes)
    m["stream.run_episode.self_ms"] = 1e3 * engine_self / steps if steps else 0.0
    latencies = step_latencies(spans)
    m["stream.step_ms.p50"] = 1e3 * percentile(latencies, 50)
    m["stream.step_ms.p99"] = 1e3 * percentile(latencies, 99)

    def share(seconds: float) -> float:
        return seconds / episode_s if episode_s else 0.0

    for name in ("clustering.update_centroids", "stream.next_batch"):
        m[f"{name}.share"] = share(sum(episode_self(name.__eq__)))
    for layer in LAYERS:
        seconds = sum(episode_self(lambda name: name.startswith(f"{layer}.")))
        if layer == "stream":
            seconds += engine_self
        m[f"{layer}.share"] = share(seconds)

    for name in SETUP_FUNCS:
        m[f"{name}.s"] = sum(s.duration for s in spans if s.name == name and in_setup[s.id])
    m["config.build_context.self_s"] = sum(own[s.id] for s in spans if s.name == SETUP)
    m["cli.output_ms"] = 1e3 * sum(own[s.id] for s in spans if s.name == CMD_RUN)

    for name in THEORY_FUNCS:
        m[f"{name}.s"] = sum(s.duration for s in spans if s.name == name)
    mc_s = sum(s.duration for s in spans if s.name in MC_FUNCS)
    m["theory.mc_trial_steps_per_s"] = counters["theory.trial_steps"] / mc_s if mc_s else 0.0
    return m


def unaccounted(spans: list[Span]) -> float:
    """Episode time not covered by the self times of spans inside episodes.

    Zero up to rounding when every span inside an episode nests properly;
    a span that escaped its parent shows here.
    """
    own = self_times(spans)
    total = sum(s.duration for s in spans if s.name == EPISODE)
    covered = sum(own[s.id] for s in spans if s.episode is not None)
    return total - covered
