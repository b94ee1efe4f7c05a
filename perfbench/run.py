"""Benchmark of the ``rtta`` command line on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {csc_reservoir,ccc_tent,theory,all}
                             --seed N --seconds S --trace {0,1}

Each workload is a YAML config in ``perfbench/workloads``, loaded through
``reservoir_tta.config.load_config``. The benchmark runs ``rtta run`` (or
``rtta theory``) through ``reservoir_tta.cli.main``, one invocation at a
time, each in a fresh process, until the next one would end after S
seconds. It checks every invocation's output files, prints a report and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A traced run makes
one untraced invocation first, so that it can report the tracing overhead.
Details of every run land in ``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5  # set-up times an untraced run aims to take
# One BLAS thread in every process: the workloads' matrices are small, and
# extra BLAS threads on a host with few cores time the scheduler instead.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Workload name -> the rtta subcommand it drives.
WORKLOADS = {"csc_reservoir": "run", "ccc_tent": "run", "theory": "theory"}


@dataclass
class Invocation:
    mode: str
    wall_s: float = 0.0
    result: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    digest: str = ""
    error: str | None = None


@dataclass
class Workload:
    name: str
    command: str
    config: Path
    rtta_args: list[str]
    method: str = ""
    total_steps: int = 0


def load_workload(name: str, seed: int) -> Workload:
    """Load the workload's YAML through the package's own config loader."""
    from reservoir_tta.config import load_config

    command = WORKLOADS[name]
    path = HERE / "workloads" / f"{name}.yaml"
    cfg = load_config(path)
    if command == "theory":
        # The suite runs at its config's own theory seed, whatever --seed says:
        # its checks and outputs are pinned at that seed.
        return Workload(name, command, path, ["theory", "--config", str(path)])
    if len(cfg.methods) != 1:
        raise SystemExit(f"perfbench: workload {name} must name exactly one method")
    sc = cfg.scenario
    return Workload(
        name, command, path,
        ["run", "--config", str(path), "--seeds", str(seed)],
        method=cfg.methods[0].name,
        total_steps=sc.domains * sc.visits * sc.batches_per_domain,
    )


def invoke(wl: Workload, seed: int, inv_dir: Path, mode: str, timeout: float) -> Invocation:
    """One invocation in a fresh process, with its checks.

    ``mode`` is "plain" (untraced), "traced" or "setup" (set-up time only).
    """
    inv = Invocation(mode=mode)
    out = inv_dir / "out"
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--result", str(inv_dir / "result.json")]
    if mode == "traced":
        cmd += ["--spans", str(inv_dir / "spans.jsonl")]
    elif mode == "setup":
        cmd += ["--setup-only"]
    env = dict(os.environ, RTTA_OUTPUT_DIR=str(out))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--"] + wl.rtta_args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        inv.error = f"timed out after {timeout:.0f} s"
        return inv
    inv.wall_s = time.perf_counter() - start
    (inv_dir / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
    (inv_dir / "stderr.txt").write_text(proc.stderr, encoding="utf-8")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        inv.error = f"exit code {proc.returncode}: {tail[0]}"
        return inv
    try:
        inv.result = json.loads((inv_dir / "result.json").read_text(encoding="utf-8"))
        if mode == "setup":
            return inv
        if wl.command == "run":
            inv.figures = outputs.check_run(out, wl.method, seed, wl.total_steps)
        else:
            inv.figures = outputs.check_theory(out, proc.stdout)
        inv.digest = outputs.digest(out)
        if mode == "traced":
            inv.layers = _layer_metrics(inv_dir / "spans.jsonl", inv.result["counters"])
    except (OSError, ValueError, KeyError) as exc:
        inv.error = f"{type(exc).__name__}: {exc}"
    return inv


def _layer_metrics(spans_path: Path, counters: dict) -> dict:
    """Per-layer metrics, after checking that the self times inside each
    episode add up to the run_episode duration."""
    with open(spans_path, encoding="utf-8") as fh:
        spans = [tracer.Span(**json.loads(line)) for line in fh]
    episode_s = sum(s.duration for s in spans if s.name == tracer.EPISODE)
    gap = tracer.unaccounted(spans)
    if abs(gap) > 1e-9 * max(1.0, episode_s):
        raise ValueError(f"spans leave {gap:.3e} s of run_episode unaccounted")
    print(f"   traced episode time {episode_s:.3f} s, unaccounted by self times {gap:.1e} s")
    return tracer.analyse(spans, counters)


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Invoke the workload until the next invocation would overrun ``seconds``.

    An untraced run then fills the time left with set-up-only invocations,
    up to SETUP_SAMPLES set-up times in all. A traced run starts with one
    untraced invocation, the base of the tracing overhead.
    """
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = load_workload(name, seed)
    begin = time.perf_counter()
    invocations: list[Invocation] = []

    def fits(mode: str) -> bool:
        walls = [i.wall_s for i in invocations if i.mode == mode and not i.error]
        if not walls and mode == "setup":
            # Estimate a set-up-only invocation as a full one minus its work.
            walls = [i.wall_s - i.result["work_s"] for i in invocations
                     if i.mode == "plain" and not i.error]
        if not walls:
            return not invocations
        predicted = statistics.median(walls)
        now = time.perf_counter()
        return now - begin + predicted <= seconds and now - started + predicted <= DEADLINE_S

    def step(mode: str) -> bool:
        timeout = max(DEADLINE_S - (time.perf_counter() - started), 1.0)
        inv = invoke(wl, seed, work / f"inv{len(invocations)}", mode, timeout)
        invocations.append(inv)
        return not (inv.error and inv.error.startswith("timed out"))

    main_mode = "traced" if trace else "plain"
    if trace:
        step("plain")
    while step(main_mode) and fits(main_mode):
        pass
    while (not trace and sum(1 for i in invocations if "setup_s" in i.result) < SETUP_SAMPLES
           and fits("setup") and step("setup")):
        pass
    _check_digests(wl, seed, invocations)
    return _summarise(wl, seed, trace, invocations, time.perf_counter() - begin)


def _src_fingerprint() -> tuple[str, int]:
    """sha256 of the package source and its line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def _check_digests(wl: Workload, seed: int, invocations: list[Invocation]) -> None:
    """All invocations of one (workload, seed, source) must emit identical files.

    Digests are also kept in ``.perfbench_out/digests.json`` so that later
    runs of the same (workload, seed) on the same source and workload
    config, traced runs included, are held to the first digest seen.
    """
    good = [i for i in invocations if not i.error and i.mode != "setup"]
    if not good:
        return
    record_path = WORK / "digests.json"
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else {}
    config = hashlib.sha256(wl.config.read_bytes()).hexdigest()[:16]
    key = f"{wl.name}/seed{seed}/src-{_src_fingerprint()[0][:16]}/config-{config}"
    expected = record.setdefault(key, good[0].digest)
    for inv in good:
        if inv.digest != expected:
            inv.error = f"output digest {inv.digest[:16]} != {expected[:16]} of an earlier run"
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record_path)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def floor_s(repeats: list[list[float]]) -> float:
    """Sum over positions of each position's fastest repeat.

    ``repeats`` holds one list per invocation of one (workload, seed): its
    work-phase segments (one per step, or per 500 theory generator calls),
    or its reference-kernel times (one per sampling point). The lists line up, so taking each
    position's minimum keeps the program's own cost and drops the slow
    spells that a shared host puts into some repeats and not others.
    """
    if not repeats:
        return float("nan")
    if len({len(r) for r in repeats}) != 1:
        raise ValueError("invocations do not line up: their work phases were cut differently")
    return sum(min(position) for position in zip(*repeats))


def host_factor(references: list[list[float]]) -> float:
    """How many times slower the host ran than the reference host: the floor
    of the reference kernel over the run, per sampling point, against
    ``reference.REFERENCE_HOST_S``."""
    import reference  # loads numpy, so only once BLAS_ENV is in place

    if not references or not references[0]:
        return float("nan")
    return floor_s(references) / (len(references[0]) * reference.REFERENCE_HOST_S)


def _summarise(wl: Workload, seed: int, trace: bool, invocations: list[Invocation],
               elapsed: float) -> dict:
    good = [i for i in invocations if not i.error]
    plain = [i for i in good if i.mode == "plain"]
    uncorrected, factor = {}, None
    if trace:
        traced = [i for i in good if i.mode == "traced"]
        metrics = {key: _median([i.layers[key] for i in traced])
                   for key in (traced[0].layers if traced else {})}
        metrics["trace.overhead"] = (_median([i.result["run_s"] for i in traced])
                                     / _median([i.result["run_s"] for i in plain]))
        counts = {k: v for k, v in metrics.items() if k.endswith(".calls")}
        for inv in traced:
            if any(inv.layers[k] != v for k, v in counts.items()):
                inv.error = "call counts differ between traced invocations"
    else:
        try:
            work_s = floor_s([i.result["segments"] for i in plain])
            factor = host_factor([i.result["reference_s"] for i in plain])
        except ValueError as exc:
            work_s = factor = float("nan")
            for inv in plain:
                inv.error = str(exc)
        outside_s = min((i.result["run_s"] - i.result["work_s"] for i in plain), default=math.nan)
        uncorrected = {
            "run_s": outside_s + work_s,
            "setup_s": _median([i.result["setup_s"] for i in good]),
            "steps_per_s": _median([i.result["work"] for i in plain]) / work_s,
        }
        metrics = {
            "run_s": uncorrected["run_s"] / factor,
            "setup_s": uncorrected["setup_s"] / factor,
            "steps_per_s": uncorrected["steps_per_s"] * factor,
            "peak_rss_mb": _median([i.result["peak_rss_mb"] for i in plain]),
            "mean_error": _median([i.figures["mean_error"] for i in plain]),
            "domain_purity": _median([i.figures["domain_purity"] for i in plain]),
        }
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "elapsed_s": elapsed,
        "config": wl.config.relative_to(ROOT).as_posix(),
        "attempted": len(invocations),
        "failed": sum(1 for i in invocations if i.error),
        "digest": next((i.digest for i in good if i.digest), None),
        "invocations": [
            {"mode": i.mode, "wall_s": i.wall_s, "error": i.error, "digest": i.digest,
             **{k: i.result[k] for k in ("run_s", "setup_s", "peak_rss_mb", "work_s",
                                         "segments", "reference_s") if k in i.result}}
            for i in invocations
        ],
        "host_factor": factor,
        "uncorrected_metrics": uncorrected,
        "metrics": metrics,
    }


def machine_info() -> dict:
    """Informational fields; none of them is a gated metric."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    _, src_lines = _src_fingerprint()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "src_lines": src_lines,
    }


def _blas_threads(numpy) -> int | None:
    """OpenBLAS thread count from the library numpy loaded, if it is OpenBLAS."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(summary: dict, units: dict[str, str]) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}, trace {summary['trace']}): "
          f"{summary['attempted']} invocation(s) in {summary['elapsed_s']:.1f} s, "
          f"{summary['failed']} failed, config {summary['config']}")
    for i, inv in enumerate(summary["invocations"]):
        state = inv["error"] or "ok" + (f", outputs sha256 {inv['digest'][:16]}"
                                        if inv["digest"] else f", set-up {inv['setup_s']:.3f} s")
        print(f"   inv{i} {inv['mode']:6s} wall {inv['wall_s']:8.3f} s  {state}")
    print(f"   outputs sha256 {summary['digest']}")
    if summary["host_factor"] is not None:
        print(f"   host {summary['host_factor']:.3f}x slower than the reference host; uncorrected "
              + ", ".join(f"{k} {v:.6g}" for k, v in summary["uncorrected_metrics"].items()))
    for name, unit in units.items():
        value = summary["metrics"].get(name)
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else "missing"
        print(f"   {name:42s} {shown:>14s} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    os.environ.update(BLAS_ENV)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "reservoir_tta" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: {SRC} holds no reservoir_tta package to benchmark "
              "(run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = _units(spec, bool(args.trace))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_info()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace), started)
        summary["metrics"] = {k: summary["metrics"].get(k, math.nan) for k in units}
        summary["non_finite_metrics"] = [
            k for k, v in summary["metrics"].items() if not math.isfinite(v)]
        summary["correct"] = summary["failed"] == 0 and not summary["non_finite_metrics"]
        summary["machine"] = machine
        report(summary, units)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True), encoding="utf-8")
        summaries.append(summary)

    prefix = len(summaries) > 1
    final = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{k}" if prefix else k): {
                "value": v if math.isfinite(v) else 0.0, "unit": units[k]}
            for s in summaries for k, v in s["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
