"""Fingerprint of everything the prover writes, to show that a change keeps
it byte for byte.

    python3 tests/fingerprint.py [CHECKOUT] [--passes 3]
                                 [--workloads paper solver shape] [--random 400]

Hashes the checkout ``CHECKOUT`` (by default the one this file is in), so
the same script can hash a change and its parent; run it on both and
compare the output.  ``termfilter`` is imported from ``CHECKOUT/src`` and
the benchmark corpus from ``CHECKOUT/bench/corpus.py``, which is read as it
is; the random systems come from ``random_trs`` in this file's ``util.py``.
The script re-executes itself under ``PYTHONHASHSEED=0``, as
``bench/run.py`` does.

It proves passes ``0 .. passes-1`` of seed 5 of each workload, every case
in its own configuration, and then ``random_trs`` systems drawn from
``random.Random(4242)``, each in {strict, quasi} x {thm5, thm12}.  It
prints one JSON object with one stream per workload and pass
(``"paper/0"`` ...) and one for the random proofs (``"random"``).  Each
stream gives the first 16 hex digits of SHA-256 over:

- ``clauses``: every round's clause list;
- ``definitions``: every round's Tseitin definitions;
- ``proofs``: each ``render_proof`` output;
- ``verdicts``: each verdict, with its reason for MAYBE;
- ``formulas``: every round's ``dump(enc.formula, atoms.describe)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIELDS = ("clauses", "definitions", "proofs", "verdicts", "formulas")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE.parent))
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--workloads", nargs="*", default=["paper", "solver", "shape"])
    ap.add_argument("--random", type=int, default=400, help="number of random systems")
    args = ap.parse_args()

    checkout = Path(args.checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(HERE), str(checkout / "bench")]
    import corpus
    from termfilter import atoms, prover
    from termfilter.formula import dump
    from termfilter.prover import Maybe, ProverConfig, prove, render_proof
    from termfilter.tpdb import parse_trs
    from util import random_trs
    if Path(prover.__file__).resolve().parent != checkout / "src" / "termfilter":
        raise ImportError(f"termfilter imported from {prover.__file__}, not from {checkout}")

    hashes: dict = {}
    encode, tseitin = prover.encode_rp_formula, prover.tseitin_cnf

    def feed(name: str, text: str) -> None:
        hashes[name].update(text.encode() + b"\n")

    def encode_rp_formula(*a, **kw):
        enc = encode(*a, **kw)
        feed("formulas", dump(enc.formula, atoms.describe))
        return enc

    def tseitin_cnf(*a, **kw):
        ts = tseitin(*a, **kw)
        feed("clauses", repr(ts.cnf.clauses))
        feed("definitions", repr(ts.definitions))
        return ts

    prover.encode_rp_formula, prover.tseitin_cnf = encode_rp_formula, tseitin_cnf

    def run(proofs) -> dict[str, str]:
        """The stream of ``proofs``, pairs of a system and a configuration."""
        hashes.update((name, hashlib.sha256()) for name in FIELDS)
        for trs, config in proofs:
            verdict = prove(trs, config)
            feed("proofs", render_proof(verdict))
            reason = f": {verdict.reason}" if isinstance(verdict, Maybe) else ""
            feed("verdicts", type(verdict).__name__ + reason)
        return {name: hashes[name].hexdigest()[:16] for name in FIELDS}

    out = {}
    for workload in args.workloads:
        for index in range(args.passes):
            out[f"{workload}/{index}"] = run(
                (parse_trs(case.text), ProverConfig(mode=case.mode, processor=case.processor,
                                                    timeout=case.timeout))
                for case in corpus.pass_cases(workload, 5, index))
    rng = random.Random(4242)
    systems = [random_trs(rng) for _ in range(args.random)]
    out["random"] = run((trs, ProverConfig(mode=mode, processor=processor))
                        for trs in systems for mode in ("strict", "quasi")
                        for processor in ("thm5", "thm12"))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
