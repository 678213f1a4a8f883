#!/usr/bin/env python3
"""The end-to-end ICDB benchmark: four closed-loop workloads over TCP.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --seed N [--trace 1] [--out FILE]

Each workload runs passes of fixed work until ``--seconds`` of measured
time are spent.  A pass boots ``python -m repro.net.server`` in the
workload's configuration, drives it from this single-threaded process
over one connection and checks every answer.  The run prints one JSON
line: ``correct`` / ``attempted`` / ``failed`` / ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` additionally
re-runs the workload for a third of the time against
``traced_server.py`` and reports the per-layer ledger instead.  Without
``--workload`` all four run and metric names are prefixed with the
workload.  ``--out`` writes the full result (both metric sets, sample
counts, machine metadata) for ``compare.py``.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when the benchmark cannot run here (no ``src/repro`` next to it).
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: A run must finish within this many seconds per workload.
RUN_TIMEOUT_S = 170
#: Set-up time is the median of at least this many boots.
BOOTS = 5
#: The traced phase runs for this share of ``--seconds``.
TRACED_SHARE = 1 / 3


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measured time; passes run until it is spent",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also run traced and report the per-layer metrics",
    )
    parser.add_argument("--out", default=None, metavar="FILE", help="write the full result JSON")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny passes and a single boot (the tier-1 smoke test)",
    )
    parser.add_argument(
        "--expected", default=str(HERE / "expected" / "digests.json"), metavar="FILE",
        help="expected output digests",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="write the observed output digests into --expected instead of checking",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no ICDB sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # The build: byte-compile the sources, so that boots measure start-up
    # and not compilation (the interpreter may be told not to cache).
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("run.py: the ICDB sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Digests

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown[0]!r}; one of {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    digests = Digests(Path(args.expected), record=args.record_expected)

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S * len(names))
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        results = [
            run_workload(WORKLOADS[name](args.seed, digests, args.smoke), args, traced, work)
            for name in names
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)

    problems = [problem for result in results for problem in result["problems"]]
    problems += digests.problems
    if args.record_expected:
        digests.save()
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    summary = _summary(results, traced, not problems, single=len(names) == 1)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"meta": _meta(), "results": results, "correct": not problems},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if not problems else 1


class _Timeout(Exception):
    pass


def _timeout(signum, frame):
    raise _Timeout(f"the benchmark exceeded its {RUN_TIMEOUT_S} s per-workload budget")


def run_workload(workload, args, traced: bool, work: Path) -> Dict:
    """Measure one workload untraced and, with ``traced``, traced too.

    ``per_layer`` holds the untraced client timings in either case; a
    traced run adds the ledger.
    """
    from metrics import end_to_end, per_layer, timing

    boots = 1 if args.smoke else BOOTS
    log = lambda message: print(f"[{workload.name}] {message}", file=sys.stderr)  # noqa: E731
    untraced = measure(workload, args.seconds, boots, work / workload.name / "untraced", False)
    client_timing = timing(untraced, workload.tail_percentile)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "tail_percentile": workload.tail_percentile,
        "problems": untraced.problems,
        "attempted": untraced.ops,
        "failed": untraced.failed,
        "samples": len(untraced.latencies_ms),
        "fail_ratio": untraced.failed / max(1, untraced.ops),
        "passes": [
            {"ops": one.ops, "measured_s": one.measured_s, "units": len(one.latencies_ms)}
            for one in untraced.passes
        ],
        "setup_samples_s": untraced.setup_s,
        "rss_samples_mb": untraced.rss_mb,
        "end_to_end": end_to_end(untraced),
        "per_layer": client_timing,
    }
    log(f"untraced: {len(untraced.passes)} passes, {result['end_to_end']} {client_timing}")
    if traced:
        # Same seed, so the traced phase replays the same inputs.
        again = type(workload)(workload.seed, workload.digests, workload.smoke)
        run = measure(again, args.seconds * TRACED_SHARE, 1, work / workload.name / "traced", True)
        result["problems"] += run.problems
        result["attempted"] += run.ops
        result["failed"] += run.failed
        result["per_layer"] = per_layer(run, client_timing)
        result["spans"] = {name: layer["calls"] for name, layer in sorted(run.layers.items())}
        result["trace_sample"] = run.trace_sample
        result["problems"] += _span_guard(workload.name, run.layers)
        log(f"traced: overhead {result['per_layer']['trace.overhead']:.3f}, "
            f"sum error {result['per_layer']['trace.sum_error']:.4f}")
    return result


def measure(workload, seconds: float, boots: int, work: Path, traced: bool):
    """Run passes, each on a fresh server, until ``seconds`` are measured.

    Returns the :class:`metrics.Phase`; failed checks are in its
    ``problems``.
    """
    from metrics import Phase
    from server import ServerProcess
    from traced_server import MARKER_START, MARKER_STOP

    from repro.api.messages import Ping

    work.mkdir(parents=True)
    (work / "tmp").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Every file the servers (and their fleet workers) create stays in the run dir.
    env["TMPDIR"] = str(work / "tmp")
    phase = Phase()
    problems = phase.problems
    servers = itertools.count(1)

    def boot():
        run_dir = work / f"server-{next(servers)}"
        run_dir.mkdir()
        server = ServerProcess(
            workload.server_args(run_dir),
            env,
            run_dir / "server.log",
            trace_out=run_dir / "trace.json" if traced else None,
        )
        try:
            server.start()
        except BaseException:
            server.stop()
            raise
        phase.setup_s.append(server.boot_s)
        return server, run_dir

    while not phase.passes or phase.measured_s < seconds:
        server, run_dir = boot()
        try:
            client = server.client
            state = workload.prepare(client)
            before = _counters(client)
            if traced:
                client.execute(Ping(echo=MARKER_START)).unwrap()
                timer = _RoundTripTimer(client)
            phase.begin()
            workload.run(client, state, phase)
            phase.end()
            if traced:
                phase.round_trip_ms += timer.stop()
                client.execute(Ping(echo=MARKER_STOP)).unwrap()
            after = _counters(client)
            for name, value in after.items():
                phase.deltas[name] = phase.deltas.get(name, 0.0) + value - before.get(name, 0.0)
            # Peak memory of the pass itself, before the checks run.
            phase.rss_mb.append(server.peak_rss_mb())
            problems += workload.check(client, state)
        finally:
            code = server.stop()
        if code != 0:
            problems.append(f"server exited with status {code}")
        problems += workload.after_stop(state, run_dir, env)
        if traced:
            _absorb_trace(phase, run_dir / "trace.json")
    # Passes that run longer than a second or two leave too few boots
    # for a steady median; boot idle servers to make up the count.
    while len(phase.setup_s) < boots:
        boot()[0].stop()
    if phase.failed:
        problems.append(f"{phase.failed} of {phase.ops} operations failed")
    return phase


class _RoundTripTimer:
    """Sums the client's request round trips (``execute`` calls) while
    installed: the client library's codec, the socket and the server."""

    def __init__(self, client):
        self.client = client
        self.total = 0.0
        execute = client.execute
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return execute(*args, **kwargs)
            finally:
                self.total += clock() - start

        client.execute = timed

    def stop(self) -> float:
        del self.client.execute
        return self.total * 1000.0


def _counters(client) -> Dict[str, float]:
    snapshot = client.metrics(include_histograms=False)
    return {name: float(value) for name, value in snapshot["counters"].items()}


def _absorb_trace(phase, path: Path) -> None:
    if not path.exists():
        raise RuntimeError(f"the traced server wrote no span dump at {path}")
    dump = json.loads(path.read_text())
    phase.bytes_written += dump["bytes_written"]
    phase.frame_ms += dump["frame_ms"]
    phase.trace_sample = phase.trace_sample or dump["sample"]
    for name, layer in dump["layers"].items():
        total = phase.layers.setdefault(name, dict.fromkeys(layer, 0.0))
        for key, value in layer.items():
            total[key] += value


def _span_guard(workload: str, layers: Dict[str, Dict[str, float]]) -> List[str]:
    from spans import EXPECTED_SPANS

    return [
        f"span {name} recorded no calls on {workload}"
        for name in EXPECTED_SPANS[workload]
        if not layers.get(name, {}).get("calls")
    ]


def _summary(results: List[Dict], traced: bool, correct: bool, single: bool) -> Dict:
    from metrics import END_TO_END, PER_LAYER

    metrics = {}
    for result in results:
        prefix = "" if single else f"{result['workload']}."
        if traced:
            for name, value in result["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": PER_LAYER[name]}
        else:
            for name, value in result["end_to_end"].items():
                metrics[prefix + name] = {"value": value, "unit": END_TO_END[name]}
    return {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def _meta() -> Dict:
    git_rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "argv": sys.argv[1:],
    }


if __name__ == "__main__":
    sys.exit(main())
