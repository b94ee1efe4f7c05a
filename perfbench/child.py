"""One ``rtta`` invocation in a fresh process, timed from before the package import.

Usage: python3 perfbench/child.py --src SRC --result OUT.json
                                  [--spans SPANS.jsonl | --setup-only] -- <rtta args>

Without ``--spans`` only the three top-level boundaries are timed
(``build_context``, ``run_episode``, ``cmd_theory``), and the work phase
(``run_episode`` or ``cmd_theory``) is cut into segments: at every
``DomainStream.next_batch`` call (one segment per step), or for ``rtta
theory`` at every 500th ``numpy.random.default_rng`` call (the Monte-Carlo
checks build one generator per simulated trial). The segments line up
across invocations of one (workload, seed), which lets the benchmark take
each segment at its fastest repeat. At every 25th step, or every 4th
``theory`` cut, the reference kernel (``reference.py``) runs between two
segments, so that the host's speed is sampled at the same points of every
repeat; its time is left out of the segments. With ``--spans``, every name
in ``tracer.HOOKS`` is traced and the spans are written to SPANS.jsonl after
``cli.main`` returns. The result file holds the timings, the peak RSS and
the exit code.

``--setup-only`` stops after the set-up that ``rtta run`` or ``rtta theory``
would do (loading the config, and ``build_context`` for ``run``) and
records only its time, so that a run can sample set-up time more often.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402


def _timed(record: list, fn):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        record.append((start, time.perf_counter(), args, result))
        return result

    return timed


STEPS_PER_REFERENCE = 25  # episode steps between two runs of the reference kernel
TRIALS_PER_CUT = 500  # theory generator calls per work segment
CUTS_PER_REFERENCE = 4  # theory work segments between two runs of the reference kernel


class Cuts:
    """Cuts the work phase at calls of the wrapped functions.

    Each cut is a (before, after) pair of times; in between, at every
    ``reference_every``-th cut of a function, the reference kernel runs. Only
    calls made while ``active`` (inside the work phase) count.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.active = False
        self.cuts: list[tuple[float, float]] = []
        self.reference_s: list[float] = []

    def wrap(self, fn, cut_every: int = 1, reference_every: int = 1):
        calls = 0

        def cut(*args, **kwargs):
            nonlocal calls
            if self.active:
                if calls % cut_every == 0:
                    before = time.perf_counter()
                    if calls // cut_every % reference_every == 0:
                        self.reference_s.append(self.kernel())
                    self.cuts.append((before, time.perf_counter()))
                calls += 1
            return fn(*args, **kwargs)

        return cut

    def work(self, record: list, fn):
        timed = _timed(record, fn)

        def work(*args, **kwargs):
            self.active = True
            try:
                return timed(*args, **kwargs)
            finally:
                self.active = False

        return work


def work_segments(spans: list, cuts: list) -> list:
    """Durations of the pieces of the work spans between consecutive cuts,
    leaving out the time inside each cut."""
    segments = []
    for start, end, _, _ in spans:
        t = start
        for before, after in cuts:
            if start <= before and after <= end:
                segments.append(before - t)
                t = after
        segments.append(end - t)
    return segments


def theory_trial_steps(cfg, checks) -> int:
    """Simulated trial-steps of the Monte-Carlo checks that ``cmd_theory`` runs."""
    t = cfg.theory
    work = {
        "sgd_var": t.trials * t.steps,
        "ensemble_var": t.ensemble_trials * t.steps * len(t.ensemble_alphas),
        "chebyshev": t.chebyshev_trials * t.chebyshev_steps,
    }
    return sum(work.get(name, 0) for name in checks)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    import numpy

    from reservoir_tta import cli, stream

    if args.setup_only:
        return _setup_only(cli, argv, args.result)

    setups, episodes, theories = [], [], []
    cuts = None
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        import reference

        cuts = Cuts(reference.kernel)
        cli.build_context = _timed(setups, cli.build_context)
        stream.run_episode = cuts.work(episodes, stream.run_episode)
        cli.cmd_theory = cuts.work(theories, cli.cmd_theory)
        if argv[:1] == ["theory"]:
            numpy.random.default_rng = cuts.wrap(
                numpy.random.default_rng, TRIALS_PER_CUT, CUTS_PER_REFERENCE)
        else:
            stream.DomainStream.next_batch = cuts.wrap(
                stream.DomainStream.next_batch, reference_every=STEPS_PER_REFERENCE)

    rc = cli.main(argv)
    run_s = time.perf_counter() - T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    if setups:
        result["setup_s"] = sum(end - start for start, end, _, _ in setups)
    if episodes:
        result["work"] = sum(metrics.step_count for _, _, _, metrics in episodes)
        result["work_s"] = sum(end - start for start, end, _, _ in episodes)
    if theories:
        start, end, (cfg, _, checks), _ = theories[0]
        result["setup_s"] = start - T0
        result["work"] = theory_trial_steps(cfg, checks)
        result["work_s"] = end - start
    if cuts is not None and (episodes or theories):
        result["segments"] = work_segments(episodes or theories, cuts.cuts)
        result["reference_s"] = cuts.reference_s
    if tracer is not None:
        result["counters"] = tracer.counters
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


def _setup_only(cli, argv: list[str], result_path: str) -> int:
    cfg = cli.load_config(argv[argv.index("--config") + 1])
    if argv[0] == "run":
        start = time.perf_counter()
        cli.build_context(cfg)
        setup_s = time.perf_counter() - start
    else:
        setup_s = time.perf_counter() - T0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": 0, "setup_s": setup_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
