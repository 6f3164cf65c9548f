"""Seeded benchmark corpus and its hand-written expected-verdict table.

Every system is a list of rule templates over symbol placeholders such as
``{minus}``.  The seed picks a fresh name for every symbol and a permutation
of the rules; the prover only ever sees the rendered ``.trs`` text.  Renaming
changes the signature order, and with it the variable numbering the SAT
solver sees, so different seeds exercise different search paths on the same
problems.  The verdict of every system is seed independent.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

TERMINATING = "TERMINATING"
MAYBE = "MAYBE"
TIMEOUT = "TIMEOUT"

CONFIGS = (("strict", "thm5"), ("strict", "thm12"),
           ("quasi", "thm5"), ("quasi", "thm12"))

# ----------------------------------------------------------------------
# hand-written systems (the ones the test suite proves)

DIVISION = """
{minus}(x,{zero}) -> x
{minus}({s}(x),{s}(y)) -> {minus}(x,y)
{quot}({zero},{s}(y)) -> {zero}
{quot}({s}(x),{s}(y)) -> {s}({quot}({minus}(x,y),{s}(y)))
"""

DIV_IF = """
{minus}(x,{zero}) -> x
{minus}({s}(x),{s}(y)) -> {minus}(x,y)
{ge}(x,{zero}) -> {true}
{ge}({zero},{s}(y)) -> {false}
{ge}({s}(x),{s}(y)) -> {ge}(x,y)
{div}(x,y) -> {if}({ge}(x,y),x,y)
{if}({true},{s}(x),{s}(y)) -> {s}({div}({minus}(x,y),{s}(y)))
{if}({false},x,{s}(y)) -> {zero}
"""

ACKERMANN = """
{ack}({zero},y) -> {s}(y)
{ack}({s}(x),{zero}) -> {ack}(x,{s}({zero}))
{ack}({s}(x),{s}(y)) -> {ack}(x,{ack}({s}(x),y))
"""

REVERSE = """
{app}({nil},k) -> k
{app}({cons}(x,l),k) -> {cons}(x,{app}(l,k))
{rev}({nil}) -> {nil}
{rev}({cons}(x,l)) -> {app}({rev}(l),{cons}(x,{nil}))
"""

SHUFFLE = REVERSE + """
{shuffle}({nil}) -> {nil}
{shuffle}({cons}(x,l)) -> {cons}(x,{shuffle}({rev}(l)))
"""

PAPER_SYSTEMS = {
    "division": DIVISION,
    "div_if": DIV_IF,
    "ackermann": ACKERMANN,
    "reverse": REVERSE,
    "shuffle": SHUFFLE,
}

# ----------------------------------------------------------------------
# expected verdicts: one line per system saying why

EXPECTED: dict[str, tuple[str, str]] = {
    "division": (TERMINATING, "minus and quot peel an s off their first "
                 "argument; collapsing minus onto it orients quot's pair"),
    "div_if": (TERMINATING, "div's first argument loses an s around the div/if "
               "cycle once minus collapses onto its first argument"),
    "ackermann": (TERMINATING, "lexicographic descent on (x, y); the nested "
                  "ack call is below the outer one in the LPO"),
    "reverse": (TERMINATING, "app and rev recurse on the tail of a cons"),
    "shuffle": (MAYBE, "technique limit: shuffle recurses through rev(l), "
                "which no LPO with argument filtering can place below cons(x,l)"),
    "chain": (TERMINATING, "every link peels an s off the first argument; "
              "collapsing each f_i# onto it orients the one SCC"),
    "refute": (MAYBE, "non-terminating: f0(s^n(0),0) returns to itself after n "
               "steps, so TERMINATING here is unsound; the verdict rests on UNSAT"),
    "rot": (MAYBE, "technique limit: every f step removes an s, but the decrease "
            "moves between argument positions, which no LPO with one argument "
            "filtering per symbol follows"),
    "depth": (TERMINATING, "f's argument loses d applications of s per step; "
              "the subterm property orients the pair"),
}


@dataclass(frozen=True)
class Case:
    """One proof: a rendered system and the configuration to prove it in."""

    name: str
    system: str          # key into EXPECTED
    text: str
    mode: str
    processor: str
    expected: str
    timeout: float | None = None


# ----------------------------------------------------------------------
# generated families

def chain_rules(n: int, refute: bool = False) -> str:
    """n mutually recursive functions passing an s from x to y.  With
    ``refute`` the last link swaps the arguments back and keeps the s."""
    lines = []
    for i in range(n):
        nxt = (i + 1) % n
        if refute and i == n - 1:
            lines.append(f"{{f{i}}}({{s}}(x),y) -> {{f{nxt}}}({{s}}(y),x)")
        else:
            lines.append(f"{{f{i}}}({{s}}(x),y) -> {{f{nxt}}}(x,{{s}}(y))")
        lines.append(f"{{f{i}}}({{zero}},y) -> y")
    return "\n".join(lines)


def rot_rules(k: int) -> str:
    """Arity-k rotation: f peels an s off its first argument and passes it
    to g in last position; g passes its arguments back unchanged."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    return "\n".join([
        f"{{f}}({{s}}(x1),{','.join(xs[1:])}) -> {{g}}({','.join(xs[1:] + xs[:1])})",
        f"{{g}}({','.join(xs)}) -> {{f}}({','.join(xs)})",
    ])


def depth_rules(d: int) -> str:
    """One rule whose left-hand side is an s-tower of height d."""
    return "{f}(" + "{s}(" * d + "x" + ")" * d + ") -> {f}(x)"


# ----------------------------------------------------------------------
# rendering

_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def render(template: str, rng: random.Random) -> str:
    """Rename every symbol placeholder to a fresh seeded name, permute the
    rules, and wrap them in VAR and RULES blocks."""
    rules = [line.strip() for line in template.strip().splitlines() if line.strip()]
    placeholders = sorted({m for line in rules for m in _PLACEHOLDER.findall(line)})
    variables = sorted({tok for line in rules
                        for tok in re.findall(r"\b[a-z]\w*\b", _PLACEHOLDER.sub("", line))})
    names: dict[str, str] = {}
    taken = set(variables)
    for p in placeholders:
        while True:
            name = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
            if name not in taken:
                break
        taken.add(name)
        names[p] = name
    rng.shuffle(rules)
    body = "\n".join("  " + line.format(**names) for line in rules)
    return f"(VAR {' '.join(variables)})\n(RULES\n{body}\n)\n"


def _case(name: str, system: str, template: str, mode: str, processor: str,
          rng: random.Random, timeout: float | None = None,
          expected: str | None = None) -> Case:
    return Case(name, system, render(template, rng), mode, processor,
                expected or EXPECTED[system][0], timeout)


def paper(rng: random.Random) -> list[Case]:
    return [_case(f"{name}/{mode}/{proc}", name, text, mode, proc, rng)
            for name, text in PAPER_SYSTEMS.items() for mode, proc in CONFIGS]


# Each workload has an odd number of systems, or an even number whose middle
# two have similar latency, so that prove_ms_p50 falls inside one system's
# latency cluster instead of in the gap between two.  With n passes of N
# systems, p50 sits at 0.5 * N * n in the sorted latencies and p90 at
# 0.9 * N * n: for N = 15 both land mid-cluster, for N = 9 p50 does.

def solver(rng: random.Random) -> list[Case]:
    """Chains, whose one SAT call finds a model, and their non-terminating
    variants, whose MAYBE rests on UNSAT answers.  Quasi mode makes both
    harder for the solver, the refutation most of all."""
    chains = [(8, "strict"), (12, "strict"), (14, "strict"), (8, "quasi"), (10, "quasi")]
    refutes = [(8, "strict"), (10, "strict"), (12, "strict"), (6, "quasi")]
    return ([_case(f"chain{n}/{mode}/thm12", "chain", chain_rules(n), mode, "thm12", rng)
             for n, mode in chains]
            + [_case(f"refute{n}/{mode}/thm12", "refute", chain_rules(n, refute=True),
                     mode, "thm12", rng) for n, mode in refutes])


def shape(rng: random.Random) -> list[Case]:
    # 15 systems: rot4 strict, the cheapest, is left out, which puts both
    # prove_ms_p50 and prove_ms_p90 in the middle of one system's cluster
    # (depth60 quasi and rot6 quasi) instead of at the edge of one.
    cases = [_case(f"rot{k}/{mode}/thm12", "rot", rot_rules(k), mode, "thm12", rng)
             for k in (4, 5, 6, 7) for mode in ("strict", "quasi")
             if (k, mode) != (4, "strict")]
    cases += [_case(f"depth{d}/{mode}/thm12", "depth", depth_rules(d), mode, "thm12", rng)
              for d in (40, 60, 80, 120) for mode in ("strict", "quasi")]
    return cases


def limit_probes(rng: random.Random) -> list[Case]:
    """Inputs past today's limits, run outside the timed window: term depths
    beyond the interpreter's recursion limit, and a deadline far shorter
    than the encoding of rot7 in quasi mode takes."""
    cases = [_case(f"depth{d}/strict/thm12", "depth", depth_rules(d), "strict",
                   "thm12", rng) for d in (200, 1000)]
    cases.append(_case("rot7/quasi/thm12/timeout0.2", "rot", rot_rules(7), "quasi",
                       "thm12", rng, timeout=0.2, expected=TIMEOUT))
    return cases


WORKLOADS = {"paper": paper, "solver": solver, "shape": shape}


def pass_cases(workload: str, seed: int, index: int) -> list[Case]:
    """Pass ``index`` of ``workload``: every system once, freshly renamed,
    in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return cases


def probe_cases(workload: str, seed: int) -> list[Case]:
    """The limit probes of ``workload`` (only ``shape`` has any)."""
    if workload != "shape":
        return []
    return limit_probes(random.Random(f"{workload}:{seed}:probes"))
