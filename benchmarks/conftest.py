"""Shared fixtures, paper reference data and the perf-gate helpers.

Two kinds of module live beside this file.  The paper-figure and
Section 3.3 checks (``bench_fig*.py``, ``bench_sec33_reports.py``,
``bench_ablation_design_choices.py``) regenerate one table or figure of
the paper's evaluation (Section 5) or one textual report of Section 3.3 /
Appendix B.  The absolute numbers cannot match the authors' 1989 cell
library, so each asserts the *shape* of the result (orderings, ratios,
crossovers) against the paper; the default pytest run collects them.

The other ``bench_*.py`` modules gate performance properties that the
end-to-end benchmark (``benchmarks/e2e``) does not measure.  Each is run
by explicit path, in its own pytest process, in one size.  Every ratio
gate goes through :func:`paired_median`, and every result lands in a
committed ``BENCH_<module>.json`` through :func:`record_bench_results`.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import pytest

from repro.components import standard_catalog
from repro.core import ICDB

#: Where the machine-readable benchmark results land (committed, so the
#: perf trajectory is tracked across PRs).
BENCH_RESULTS_DIR = Path(__file__).parent


def effective_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, not the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_rev():
    """The checkout's commit (``-dirty`` with local edits), or None."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=BENCH_RESULTS_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def record_bench_results(name: str, key: str, payload: dict) -> Path:
    """Merge ``payload`` under ``key`` into ``BENCH_<name>.json``.

    Each benchmark module owns one file; each test contributes one keyed
    section, so a partial run updates its own sections without touching
    the rest.  Every section carries the provenance of the run that wrote
    it (CPU count, git revision, interpreter, time), so re-running one
    test never relabels another test's numbers.
    """
    path = BENCH_RESULTS_DIR / f"BENCH_{name}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            data = {}
    data[key] = {
        **payload,
        "cpus": effective_cpus(),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def paired_median(measure_a, measure_b, pairs: int) -> dict:
    """The median over ``pairs`` back-to-back runs of ``measure_b() / measure_a()``.

    Each measure returns a rate (higher is better).  Both runs of a pair
    see the same host conditions, and the order inside a pair alternates,
    because on a loaded host whichever burst runs first tends to get the
    cleaner scheduler slot.  The median of the per-pair ratios is robust
    to a few disturbed pairs in either direction; best-of rates or the
    best pair would drift upward with every extra pair.  The garbage
    collector runs before each pair and is paused inside it.

    Returns the median ratio, each side's median rate and every pair's
    ratio, in run order.
    """
    a_rates, b_rates = [], []
    for index in range(pairs):
        gc.collect()
        gc.disable()
        try:
            if index % 2:
                b = measure_b()
                a = measure_a()
            else:
                a = measure_a()
                b = measure_b()
        finally:
            gc.enable()
        a_rates.append(a)
        b_rates.append(b)
    ratios = [b / a for a, b in zip(a_rates, b_rates)]
    return {
        "ratio": statistics.median(ratios),
        "a": statistics.median(a_rates),
        "b": statistics.median(b_rates),
        "ratios": ratios,
    }


#: Reference points from the paper (delay ns, area 1e4 um^2), Figure 5.
PAPER_FIGURE5 = {
    "ripple": (17.4, 17.2),
    "synchronous_up": (5.8, 23.6),
    "synchronous_up_enable": (9.8, 30.0),
    "synchronous_updown": (5.1, 37.3),
    "synchronous_updown_load": (11.3, 53.4),
}

#: Figure 6 shape function of the up/down counter (width, height) in 1e3 um.
PAPER_FIGURE6 = [
    (33, 115), (36, 99), (37, 90), (44, 76), (67, 55), (67, 52), (88, 41), (133, 32),
]

#: Figure 10: (load, area 1e4 um^2) at a 25 ns clock width.
PAPER_FIGURE10 = [(10, 33.2), (20, 34.5), (30, 35.7), (40, 35.4), (50, 38.5)]

#: Figure 11: (clock width ns, area 1e4 um^2) at a load of 10.
PAPER_FIGURE11 = [(25, 29.0), (24, 30.7), (27, 31.6), (30, 32.9)]

#: Figure 13: the two simple-computer layouts (width um, height um, area um^2).
PAPER_FIGURE13 = {
    "control_left": (1558, 1838, 2_863_604),
    "control_bottom": (2420, 1207, 2_920_940),
}

#: Section 3.3 delay report of the counter with enable/updown/parallel load.
PAPER_SECTION33_DELAY = {
    "CW": 29.0,
    "WD Q[4]": 8.5,
    "WD MINMAX": 27.3,
    "SD DWUP": 26.7,
}


@pytest.fixture(scope="session")
def icdb_server(tmp_path_factory):
    """One ICDB server shared by all benchmarks."""
    root = tmp_path_factory.mktemp("bench_store")
    return ICDB(catalog=standard_catalog(fresh=True), store_root=root)


def run_once(benchmark, func):
    """Run a benchmark exactly once (the workloads are full tool flows)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
