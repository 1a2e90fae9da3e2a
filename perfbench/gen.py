"""Seeded input generators for the four workloads.

Standard library plus the benchmark's own reference fixpoint (used to
draw query goals with a known verdict).  The same seed gives the same
request list.  Requests are plain JSON data; the worker process turns
them into calls.

Each workload repeats a fixed cycle of request *kinds* and the seed only
chooses the inputs that fill each slot, so every run has the same mix.
"""

from __future__ import annotations

import json
import random

from reference import level

# ---------------------------------------------------------------------------
# lattice: derivability over one loaded rule base

# One cycle: closures (C), DERIVABLE / SEPARATED / UNKNOWN queries (D, S,
# U) and one equivalence class (E): 9 closures, 10 queries, 1 equiv.
# Slots draw random inputs until a property the reference can see falls
# in a fixed band, so that each slot costs about the same on every seed.
# The three UNKNOWN scans and the equivalence class are the slowest
# requests, alike in cost, and a fifth of the mix: the 90th percentile
# falls in the middle of them.
LATTICE_CYCLE = "CDCUCDCDUCSDCECDCDUC"
# every k_max the workload uses, each warmed up during set-up
LATTICE_KMAX = (3, 4, 5, 6, 7)
CLOSURE_KMAX = LATTICE_KMAX
DERIVABLE_KMAX = (3, 4, 5)
# SEPARATED slots: (k_max, separation facts the first match must be from)
SEPARATED_SLOTS = ((4, ("sep-finsy",)), (3, ("sep-8a", "sep-8b")))
UNKNOWN_KMAX = 3
EQUIV_KMAX = 3
LATTICE_CYCLES = 10
MAX_BASE = 3
# closure sizes (nodes) of the base for closures and queries, and of the
# node for equivalence classes
BASE_BAND = (230, 450)
EQUIV_BAND = (96, 120)


def _vocabulary(ref, k_max: int) -> list[str]:
    """Nodes the rule base mentions at this cap, at level <= k_max - 2."""
    nodes = set()
    for _rid, prems, concl in ref.instances(k_max):
        nodes.update(prems)
        nodes.add(concl)
    return sorted(n for n in nodes if level(n) <= k_max - 2)


def _draw(what: str, attempt):
    for _ in range(2000):
        found = attempt()
        if found is not None:
            return found
    raise RuntimeError(f"no {what} found")


def _base(rng, ref, vocab, k: int):
    base = rng.sample(vocab, rng.randint(1, MAX_BASE))
    size = len(ref.closure(base, k))
    return base if BASE_BAND[0] <= size <= BASE_BAND[1] else None


def lattice(seed: int, ref) -> list[dict]:
    rng = random.Random(seed)
    vocab = {k: _vocabulary(ref, k) for k in LATTICE_KMAX}
    equiv_nodes = [n for n in vocab[EQUIV_KMAX] if level(n) == 1]
    counters: dict[str, int] = {}
    out = []
    for _ in range(LATTICE_CYCLES):
        for kind in LATTICE_CYCLE:
            i = counters.get(kind, 0)
            counters[kind] = i + 1
            if kind == "C":
                k = CLOSURE_KMAX[i % len(CLOSURE_KMAX)]
                base = _draw("closure base", lambda: _base(rng, ref, vocab[k], k))
                out.append({"op": "closure", "base": base, "kmax": k})
            elif kind == "E":
                node = _draw("equivalence node", lambda: _equiv_node(
                    rng, ref, equiv_nodes))
                out.append({"op": "equiv", "node": node, "base": [], "kmax": EQUIV_KMAX})
            elif kind == "D":
                k = DERIVABLE_KMAX[i % len(DERIVABLE_KMAX)]
                out.append(_draw("DERIVABLE query",
                                 lambda: _derivable(rng, ref, vocab[k], k)))
            elif kind == "S":
                k, facts = SEPARATED_SLOTS[i % len(SEPARATED_SLOTS)]
                out.append(_draw("SEPARATED query",
                                 lambda: _underivable(rng, ref, vocab[k], k, facts)))
            else:
                k = UNKNOWN_KMAX
                out.append(_draw("UNKNOWN query",
                                 lambda: _underivable(rng, ref, vocab[k], k, None)))
    return out


def _equiv_node(rng, ref, nodes):
    node = rng.choice(nodes)
    size = len(ref.closure([node], EQUIV_KMAX))
    return node if EQUIV_BAND[0] <= size <= EQUIV_BAND[1] else None


def _derivable(rng, ref, vocab, k: int):
    base = _base(rng, ref, vocab, k)
    if base is None:
        return None
    goal = rng.choice(sorted(ref.closure(base, k) - set(base)))
    return {"op": "query", "base": base, "goal": goal, "kmax": k}


def _underivable(rng, ref, vocab, k: int, facts):
    """A goal outside the base's closure: SEPARATED first by one of
    `facts`, or UNKNOWN when `facts` is None."""
    base = _base(rng, ref, vocab, k)
    if base is None:
        return None
    have = ref.closure(base, k)
    goal = rng.choice([n for n in vocab if n not in have])
    sep = ref.separation(base, goal, k)
    wanted = sep is None if facts is None else sep is not None and sep[0] in facts
    return {"op": "query", "base": base, "goal": goal, "kmax": k} if wanted else None


# ---------------------------------------------------------------------------
# prover: a Glivenko corpus

PROP_ATOMS = "pqrst"
PROVER_DEPTHS = (4, 5, 6)
PROVER_REQUESTS = 30000
# Larger depth-6 formulas reach 1 s each: a handful of them would decide
# a run's throughput and its peak memory, so formulas have at most this many
# connectives.  The tail that remains still spans two orders of magnitude.
PROVER_MAX_CONNECTIVES = 28


def _prop(rng, depth: int):
    if depth == 0:
        return ["bot"] if rng.randrange(8) == 0 else ["atom", rng.choice(PROP_ATOMS)]
    kind = rng.randrange(4)
    if kind == 0:
        return _prop(rng, 0)
    return [("and", "or", "imp")[kind - 1], _prop(rng, depth - 1), _prop(rng, depth - 1)]


def _connectives(f) -> int:
    return 0 if len(f) < 3 else 1 + _connectives(f[1]) + _connectives(f[2])


def _capped_prop(rng, depth: int):
    while True:
        f = _prop(rng, depth)
        if _connectives(f) <= PROVER_MAX_CONNECTIVES:
            return f


def prover(seed: int) -> list[dict]:
    """Each formula is a JSON string of nested lists: a string holds no
    objects for the worker's garbage collector to scan during the timed
    calls, as 30000 nested lists would."""
    rng = random.Random(seed)
    return [{"op": "glivenko",
             "f": json.dumps(_capped_prop(rng, PROVER_DEPTHS[i % len(PROVER_DEPTHS)]))}
            for i in range(PROVER_REQUESTS)]


# ---------------------------------------------------------------------------
# syntax: parse / classify / dual / merge / relative classification /
# principle instances

VARS = "xyzw"
FREE = "ab"
SYNTAX_REQUESTS = 12000
SYNTAX_MAX_QUANTIFIERS = 8
INSTANCE_FAMILIES = ("LEM", "DNE", "DML", "DNEOR", "PEIRCE")
BINARY = {"DML", "DNEOR"}


def _term(rng, names: str, depth: int = 1) -> str:
    r = rng.randrange(6)
    if depth == 0 or r < 3:
        return rng.choice(names) if r else rng.choice(["0", "S(0)"])
    op = " + " if r < 5 else " * "
    return f"({_term(rng, names, depth - 1)}{op}{_term(rng, names, depth - 1)})"


def _atom(rng, names: str) -> str:
    rel = rng.choice(("=", "<"))
    return f"{_term(rng, names)} {rel} {_term(rng, names)}"


def _literal(rng, names: str) -> str:
    a = _atom(rng, names)
    return f"~({a})" if rng.randrange(2) else f"({a})"


def _prenex(rng) -> str:
    """0-8 unbounded quantifiers over an atom or a negated atom."""
    prefix = "".join(f"{rng.choice('EA')} {rng.choice(VARS)}. "
                     for _ in range(rng.randint(0, SYNTAX_MAX_QUANTIFIERS)))
    return prefix + _literal(rng, VARS + FREE)


def _mixed(rng, budget: int) -> str:
    """Bounded quantifiers, unbounded quantifiers and negations over a
    quantifier-free core, at most `budget` operators deep."""
    if budget == 0:
        return _literal(rng, VARS + FREE)
    r = rng.randrange(5)
    if r == 0:
        return f"~({_mixed(rng, budget - 1)})"
    v = rng.choice(VARS)
    q = rng.choice("EA")
    if r <= 2:
        return f"{q} {v} < {rng.choice(FREE)}. {_mixed(rng, budget - 1)}"
    return f"{q} {v}. {_mixed(rng, budget - 1)}"


def _bounded_witness(rng, kind: str, level: int, var_pool: str) -> str:
    """A formula whose quantifiers are all bounded, in class S<level>
    (kind S) or P<level> (kind P)."""
    bound = var_pool[:level]
    text = _literal(rng, bound + FREE)
    for i in reversed(range(level)):
        q = "E" if (kind == "S") == (i % 2 == 0) else "A"
        text = f"{q} {bound[i]} < S(S(S(0))). {text}"
    return text


def _instance(rng) -> dict:
    family = rng.choice(INSTANCE_FAMILIES)
    arity = 2 if family in BINARY else 1
    lits, witnesses = [], []
    for _ in range(arity):
        neg = rng.choice(("", "n", "nn"))
        kind = rng.choice("SPD")
        level = rng.randint(1 if kind == "D" else 0, 2)
        lits.append(f"{neg}{kind}{level}")
        if kind == "D":
            witnesses.append(_bounded_witness(rng, "S", level, "xy"))
            witnesses.append(_bounded_witness(rng, "P", level, "zw"))
        else:
            witnesses.append(_bounded_witness(rng, kind, level, "xy"))
    if family == "PEIRCE":
        witnesses.append(_literal(rng, "ab"))
    return {"node": ":".join([family] + lits), "witnesses": witnesses,
            "env": {v: rng.randint(0, 3) for v in FREE}}


def syntax(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [{"op": "syntax", "prenex": _prenex(rng),
             "mixed": _mixed(rng, rng.randint(0, SYNTAX_MAX_QUANTIFIERS)),
             "instance": _instance(rng)}
            for _ in range(SYNTAX_REQUESTS)]


# ---------------------------------------------------------------------------
# cli: seeded permutations of the hand-written command table

CLI_PASSES = 10


def cli(seed: int, table: list) -> list[int]:
    """Indices into the table: whole permutations, one after another."""
    rng = random.Random(seed)
    out = []
    for _ in range(CLI_PASSES):
        order = list(range(len(table)))
        rng.shuffle(order)
        out.extend(order)
    return out


# runs end on a whole number of these cycles of the request mix
CYCLE = {"lattice": len(LATTICE_CYCLE), "prover": len(PROVER_DEPTHS), "syntax": 1}
