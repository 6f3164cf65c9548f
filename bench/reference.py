"""Machine-speed reference for the benchmark's times.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes; a fixed loop of pure Python can take 250 ms
in one minute and 400 ms in the next.  Every timed piece of work is
therefore paired with runs of ``chunk``, a fixed piece of pure-Python work
of the same kind as the prover's (tuple terms, sets, recursion, a small path
order), run in between.  A time is reported *normalised*: divided by
``speed factor = measured chunk time / NOMINAL_CHUNK_MS``.  On a machine
running at the reference speed the normalised time equals the wall time;
when the machine slows down, chunk and work slow down together and the
normalised time stays put.  ``chunk`` does not touch ``termfilter``, so a
change to the program moves the work and not the reference.
"""

from __future__ import annotations

import time

# One chunk, in ms, on the reference machine (a 2-vCPU Xeon VM under
# CPython 3.11) in its faster minutes; in its slower ones a chunk took up to
# 2.2 ms.  Only a scale: it turns a ratio into milliseconds.
NOMINAL_CHUNK_MS = 1.5


def _term(depth: int, k: int) -> tuple:
    if depth == 0:
        return (f"x{k % 3}",)
    return (f"f{k % 4}", _term(depth - 1, k * 7 + 1), _term(max(depth - 2, 0), k * 5 + 2))


_TERM = _term(8, 1)
_PREC = {"f0": 3, "f1": 2, "f2": 1, "f3": 0}


def _subterms(t: tuple, acc: set) -> set:
    acc.add(t)
    for arg in t[1:]:
        _subterms(arg, acc)
    return acc


def _gt(s: tuple, t: tuple) -> bool:
    """A small lexicographic path order on tuple terms."""
    if len(s) == 1:
        return False
    if any(a == t or _gt(a, t) for a in s[1:]):
        return True
    if len(t) == 1:
        return t in _subterms(s, set())
    if _PREC[s[0]] > _PREC[t[0]]:
        return all(_gt(s, b) for b in t[1:])
    if s[0] == t[0]:
        for a, b in zip(s[1:], t[1:]):
            if a != b:
                return _gt(a, b) and all(_gt(s, c) for c in t[1:])
    return False


def chunk() -> int:
    """The fixed reference work.  Its result does not depend on string
    hashing, so every process does the same work."""
    subs = _subterms(_TERM, set())
    return len(subs) + sum(_gt(_TERM, t) for t in sorted(subs, key=repr)[:12])


CHUNK_RESULT = chunk()


def sample(chunks: int) -> float:
    """Run ``chunks`` chunks; return the mean time of one, in ms."""
    start = time.perf_counter()
    for _ in range(chunks):
        if chunk() != CHUNK_RESULT:
            raise AssertionError("reference chunk changed its result")
    return (time.perf_counter() - start) * 1000.0 / chunks
