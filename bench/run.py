"""Proof-search benchmark for termfilter.

    python3 bench/run.py --workload paper --seed 1 --seconds 25 --trace 0

One process per workload, one thread, a closed loop of one caller: each
proof (``parse_trs`` + ``prove``) starts when the previous one returns.  A
pass proves every system of the workload once, freshly renamed by the seed;
the timed window runs whole passes until ``--seconds`` have passed.  Each
verdict is checked against the table in ``corpus.py``, and each TERMINATING
witness is re-checked with the order semantics, with the window's clock
stopped.  Every time is normalised by the machine-speed reference of
``reference.py``, sampled around the work it scales.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layers.py`` with ``--trace 1``.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import reference
from layers import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEED = "0"
SETUP_REPEATS = 21
SETUP_CHUNKS = 8        # reference chunks before and after each set-up repeat
CHUNK_SHARE = 0.1       # reference time after a proof, as a share of the proof's
PROBE_SLACK_S = 0.5     # how far past its deadline a TIMEOUT may arrive


def load_termfilter():
    """Import termfilter afresh from this checkout's ``src``, never from
    anywhere else."""
    for name in [m for m in sys.modules if m == "termfilter" or m.startswith("termfilter.")]:
        del sys.modules[name]
    tf = importlib.import_module("termfilter")
    if Path(tf.__file__).resolve().parent != SRC / "termfilter":
        raise ImportError(f"termfilter imported from {tf.__file__}, not from {SRC}")
    return tf


def setup(workload: str, seed: int):
    """Import, generate and parse the first pass, several times, each
    between two reference samples; the median of the normalised times is
    ``setup_s``.  The last import is the one the run uses."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repeat's modules, so no repeat collects them
        before = reference.sample(SETUP_CHUNKS)
        start = time.perf_counter()
        tf = load_termfilter()
        for case in corpus.pass_cases(workload, seed, 0):
            tf.parse_trs(case.text)
        elapsed = time.perf_counter() - start
        after = reference.sample(SETUP_CHUNKS)
        times.append(elapsed * 2 * reference.NOMINAL_CHUNK_MS / (before + after))
    return tf, statistics.median(times)


def verdict_name(tf, verdict) -> str:
    if isinstance(verdict, tf.Terminating):
        return corpus.TERMINATING
    if isinstance(verdict, tf.Maybe):
        return corpus.MAYBE
    return corpus.TIMEOUT


def recheck_witness(tf, verdict) -> bool:
    """Replay every reduction-pair step of a TERMINATING verdict through the
    order semantics, independently of the prover's own check."""
    for step in verdict.steps:
        if step.processor != "reduction_pair":
            continue
        w, problem = step.witness, step.problem
        prec, pi, mode = w.precedence, w.filtering, w.mode
        removed = set(w.removed)
        if not removed or set(step.results[0].pairs.rules) != set(problem.pairs.rules) - removed:
            return False
        if not all(tf.lpo_af_ge(prec, pi, mode, p.lhs, p.rhs) for p in problem.pairs.rules):
            return False
        if not all(tf.lpo_af_gt(prec, pi, mode, p.lhs, p.rhs) for p in removed):
            return False
        if w.processor == "thm5":
            usable = tf.usable_rules(problem.pairs, problem.rules)
        else:
            usable = tf.usable_rules_mod_pi(problem.pairs, problem.rules, pi)
        if not all(tf.lpo_af_ge(prec, pi, mode, r.lhs, r.rhs) for r in usable):
            return False
    return True


@dataclass
class Checks:
    """Verdict and witness checks, counted over attempts.  A failure is a
    wrong verdict, a failed witness, or an exception; ``wrong`` counts the
    first two, which make the run incorrect."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.problems.append(what)

    def check(self, tf, label: str, case: corpus.Case, outcome) -> bool:
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.fail(f"{label}: {type(outcome).__name__}: {outcome}", wrong=False)
            return False
        got = verdict_name(tf, outcome)
        if got != case.expected:
            self.fail(f"{label}: {got}, expected {case.expected}", wrong=True)
            return False
        if got == corpus.TERMINATING and not recheck_witness(tf, outcome):
            self.fail(f"{label}: witness does not re-check", wrong=True)
            return False
        return True


@dataclass
class Window:
    """Normalised latencies and rates; ``factors`` and ``wall_rates`` keep
    the machine's speed and the raw rates for the report."""

    latencies: dict[str, list[float]] = field(default_factory=dict)  # system -> ms
    proofs: dict[tuple[int, str], int] = field(default_factory=dict)  # (pass, system) -> hash of proof text
    pass_rates: list[float] = field(default_factory=list)  # correct verdicts per second, per pass
    factors: list[float] = field(default_factory=list)     # speed factor, per pass
    wall_rates: list[float] = field(default_factory=list)  # pass_rates before normalising

    def all_ms(self) -> list[float]:
        return sorted(ms for v in self.latencies.values() for ms in v)

    def proofs_per_s(self) -> float:
        """The median pass's throughput: one slow proof, or a short slowdown
        of the machine, moves it less than a total over the window."""
        return statistics.median(self.pass_rates)


def run_window(tf, workload: str, seed: int, seconds: float, checks: Checks,
               tracer: Tracer | None = None) -> Window:
    """Closed loop over whole passes, at least one, until ``seconds`` of
    proving have passed.  After each proof come its checks and a reference
    sample, untimed.  A pass's times are normalised by the speed factor of
    all its samples: one sample of a chunk or two is too noisy to scale a
    single proof by."""
    w = Window()
    proving = 0.0
    while not w.pass_rates or proving < seconds:
        index = len(w.pass_rates)
        good, wall_s, chunk_ms, chunks = 0, 0.0, 0.0, 0
        elapsed_ms: list[tuple[str, float]] = []
        for case in corpus.pass_cases(workload, seed, index):
            config = tf.ProverConfig(mode=case.mode, processor=case.processor,
                                     timeout=case.timeout)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = tf.prove(tf.parse_trs(case.text), config)
                else:
                    with tracer.span("tpdb.parse"):
                        trs = tf.parse_trs(case.text)
                    with tracer.span("prover.prove"):
                        outcome = tf.prove(trs, config)
            except Exception as exc:  # a failed proof is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                outcome = exc
            elapsed = time.perf_counter() - t0
            n = max(1, round(CHUNK_SHARE * elapsed * 1000.0 / reference.NOMINAL_CHUNK_MS))
            chunk_ms += reference.sample(n) * n
            chunks += n
            good += checks.check(tf, f"pass {index} {case.name}", case, outcome)
            w.proofs[(index, case.name)] = hash(
                repr(outcome) if isinstance(outcome, Exception) else tf.render_proof(outcome))
            elapsed_ms.append((case.name, elapsed * 1000.0))
            wall_s += elapsed
        factor = chunk_ms / (chunks * reference.NOMINAL_CHUNK_MS)
        for name, ms in elapsed_ms:
            w.latencies.setdefault(name, []).append(ms / factor)
        proving += wall_s
        w.factors.append(factor)
        w.wall_rates.append(good / wall_s)
        w.pass_rates.append(good / wall_s * factor)
    return w


def run_probes(tf, workload: str, seed: int) -> tuple[int, list[str]]:
    """Limit probes, outside the timed window.  Returns the number run and
    a description of each failure."""
    cases = corpus.probe_cases(workload, seed)
    failures = []
    for case in cases:
        config = tf.ProverConfig(mode=case.mode, processor=case.processor,
                                 timeout=case.timeout)
        t0 = time.perf_counter()
        try:
            got = verdict_name(tf, tf.prove(tf.parse_trs(case.text), config))
        except Exception as exc:  # a known limit shows as an exception today
            failures.append(f"{case.name}: {type(exc).__name__}, expected {case.expected}")
            continue
        elapsed = time.perf_counter() - t0
        if got != case.expected:
            failures.append(f"{case.name}: {got} after {elapsed:.2f} s, expected {case.expected}")
        elif case.timeout is not None and elapsed > case.timeout + PROBE_SLACK_S:
            failures.append(f"{case.name}: {got} after {elapsed:.2f} s, past the "
                            f"{case.timeout} s deadline plus {PROBE_SLACK_S} s")
    return len(cases), failures


def end_to_end(w: Window, setup_s: float) -> dict[str, tuple[float, str]]:
    lat = w.all_ms()
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    medians = [statistics.median(v) for v in w.latencies.values()]
    return {
        "proofs_per_s": (w.proofs_per_s(), "1/s"),
        "prove_ms_p50": (statistics.median(lat), "ms"),
        "prove_ms_p90": (p90, "ms"),
        "prove_ms_gmean": (math.exp(statistics.fmean(math.log(m) for m in medians)), "ms"),
        "setup_s": (setup_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="termfilter proof-search benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # String hashing orders the prover's sets, and with them the clauses the
    # solver sees.  Fix it, so that a seed replays exactly and every run
    # hashes alike: one hash order for a whole run would make that run's
    # solver searches faster or slower together.  The symbol names, fresh
    # in every pass, still vary the orders from pass to pass.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])

    if not (SRC / "termfilter" / "__init__.py").is_file():
        print(f"error: no termfilter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tf, setup_s = setup(args.workload, args.seed)
    checks = Checks()

    if not args.trace:
        window = run_window(tf, args.workload, args.seed, args.seconds, checks)
        metrics = end_to_end(window, setup_s)
    else:
        # Half the time untraced, half traced on the same inputs: the
        # difference in throughput is the tracing overhead.
        plain = run_window(tf, args.workload, args.seed, args.seconds / 2, checks)
        tracer = Tracer()
        restore = tracer.install()
        try:
            window = run_window(tf, args.workload, args.seed, args.seconds / 2, checks, tracer)
        finally:
            restore()
        for key, proof in window.proofs.items():
            if key in plain.proofs and plain.proofs[key] != proof:
                checks.fail(f"pass {key[0]} {key[1]}: traced proof differs from untraced", wrong=True)
        metrics = tracer.metrics(len(window.pass_rates))
        metrics["trace.overhead_proofs_per_s"] = (
            window.proofs_per_s() - plain.proofs_per_s(), "1/s")
        # The peak over the whole run: an extreme value, set by the one
        # costliest renaming, so it is reported here and carries no bound.
        metrics["process.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    probes, probe_failures = run_probes(tf, args.workload, args.seed)
    if args.trace:
        metrics["limits.failed"] = (len(probe_failures), "count")

    for problem in checks.problems:
        print(f"FAILED {problem}")
    for failure in probe_failures:
        print(f"limit probe failed: {failure}")
    failures = checks.failed + len(probe_failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(window.all_ms())} timed proofs "
          f"in {len(window.pass_rates)} passes; fail_ratio {failures / (checks.attempted + probes):.4f} "
          f"({checks.failed} of {checks.attempted} proofs, "
          f"{len(probe_failures)} of {probes} limit probes)")
    print(f"speed factor {min(window.factors):.3f}..{max(window.factors):.3f} "
          f"(median {statistics.median(window.factors):.3f}); "
          f"wall proofs_per_s {statistics.median(window.wall_rates):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
