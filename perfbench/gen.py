"""Seeded inputs for the knotfish benchmark, and the oracles that check them.

Every input is a pure function of the seed.  Diagrams are built during
set-up with the package's own constructors; the timed code sees only PD
text, Gauss text or argv.  Each input carries a reference (``ref``) saying
how its answer is checked:

  ("torus", p, q)        closed forms: torus_v2v3 and the torus Jones
                         polynomial, by this module's own long division
  ("whitehead", i)       whitehead_closed_form
  ("braid", key)         no closed form; checked through its mirror twin
  ("mirror", key)        mirror of the braid item ``key``: v2 equal, v3
                         negated, J(q) -> J(1/q)
  ("sum", ref_a, ref_b)  connected sum: v2 and v3 add, J multiplies

Costs grow as 2^c, so the number of inputs at each crossing count c is
fixed; the seed chooses only which diagrams fill those slots.  That keeps
the work per run the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

import knotfish as kf


@dataclass(frozen=True)
class Item:
    """One generated diagram: its name, its PD text and its reference."""

    key: str
    text: str
    ref: tuple


# -- braid words -------------------------------------------------------------

def braid_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """Rejection-sample a braid word whose closure is one component.

    The closure is a knot iff the word's permutation is one strands-cycle.
    Each letter is a transposition and an s-cycle has sign (-1)^(s-1), so
    the length must have the parity of s - 1: odd on 2 and 4 strands, even
    on 3.
    """
    if (length - (strands - 1)) % 2:
        raise ValueError(f"no {strands}-strand knot has a word of length {length}")
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        perm = list(range(strands))
        for g in word:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        x, cycle = perm[0], 1
        while x != 0:
            x, cycle = perm[x], cycle + 1
        if cycle == strands:
            return word


def _braid_strands(rng: random.Random, c: int) -> int:
    if c % 2 == 0:
        return 3
    return rng.choice((2, 4)) if c >= 5 else 2


# -- families ----------------------------------------------------------------

# Torus parameters (p, q) by the crossing count q(p-1) of torus_pd's braid.
TORUS_BY_C = {
    3: [(2, 3)], 4: [(3, 2)], 5: [(2, 5)], 7: [(2, 7)], 8: [(3, 4), (5, 2)],
    9: [(2, 9), (4, 3)], 10: [(3, 5)], 11: [(2, 11)], 12: [(5, 3), (7, 2)],
    13: [(2, 13)], 14: [(3, 7)], 15: [(4, 5), (2, 15)],
    16: [(3, 8), (5, 4)],
}
# Whitehead doubles Wh(i) have 2|i| + 2 crossings.
WHITEHEAD_BY_C = {4: 1, 6: 2, 8: 3, 10: 4, 12: 5, 14: 6, 16: 7}


def _torus(rng, c) -> tuple[kf.Diagram, tuple]:
    p, q = rng.choice(TORUS_BY_C[c])
    q *= rng.choice((1, -1))
    return kf.torus_pd((p, q)), ("torus", p, q)


def _whitehead(rng, c) -> tuple[kf.Diagram, tuple]:
    i = WHITEHEAD_BY_C[c] * rng.choice((1, -1))
    return kf.whitehead_pd(i), ("whitehead", i)


def _braid(rng, c, key) -> tuple[kf.Diagram, tuple]:
    s = _braid_strands(rng, c)
    return kf.braid_closure(braid_word(rng, s, c), s), ("braid", key)


def _summand(rng, c) -> tuple[kf.Diagram, tuple]:
    """A small knot of c crossings whose invariants the check can get."""
    kinds = ["braid"]
    if c in TORUS_BY_C:
        kinds.append("torus")
    if c in WHITEHEAD_BY_C:
        kinds.append("whitehead")
    kind = rng.choice(kinds)
    if kind == "torus":
        return _torus(rng, c)
    if kind == "whitehead":
        return _whitehead(rng, c)
    d, _ = _braid(rng, c, None)
    return d, ("knot", kf.to_pd_text(d))


def _sum(rng, c) -> tuple[kf.Diagram, tuple]:
    """Connected sum of two summands with 3..9 crossings, c in total."""
    ca = rng.randint(max(3, c - 9), min(9, c - 3))
    da, ra = _summand(rng, ca)
    db, rb = _summand(rng, c - ca)
    return kf.connect_sum(da, db), ("sum", ra, rb)


# -- statesum: full invariant records at 11-16 crossings ---------------------

# (crossings, family, how many) per block of 40 items; a braid entry counts
# pairs, the closure and its mirror.  The latency quantiles are taken over
# whole blocks, so the counts place the median inside the 12-crossing group
# (35%-65% of a block) and the p90 inside the 14-crossing group (80%-95%),
# away from the steps between groups.
STATESUM_BLOCK = [
    (11, "torus", 2), (11, "braid", 4), (11, "sum", 4),
    (12, "whitehead", 2), (12, "torus", 2), (12, "braid", 3), (12, "sum", 2),
    (13, "torus", 1), (13, "braid", 2), (13, "sum", 1),
    (14, "torus", 1), (14, "whitehead", 1), (14, "braid", 1), (14, "sum", 2),
    (15, "torus", 1),
    (16, "torus_or_whitehead", 1),
]
# A small block for the self-test.
STATESUM_TINY = [
    (5, "torus", 1), (6, "whitehead", 1), (6, "braid", 1), (7, "sum", 1),
]


def statesum_items(seed: int, tiny: bool = False) -> list[Item]:
    """One block of diagrams; every braid item is followed by its mirror."""
    rng = random.Random(f"statesum-{seed}")
    items: list[Item] = []
    for c, family, count in (STATESUM_TINY if tiny else STATESUM_BLOCK):
        for _ in range(count):
            key = f"{c}_{len(items) + 1}"
            if family == "torus_or_whitehead":
                family = rng.choice(("torus", "whitehead"))
            if family == "braid":
                d, ref = _braid(rng, c, key)
                items.append(Item(key, kf.to_pd_text(d), ref))
                twin = f"{c}_{len(items) + 1}"
                items.append(Item(twin, kf.to_pd_text(kf.mirror(d)), ("mirror", key)))
                continue
            make = {"torus": _torus, "whitehead": _whitehead, "sum": _sum}[family]
            d, ref = make(rng, c)
            items.append(Item(key, kf.to_pd_text(d), ref))
    return items


# -- table: a seeded knot table at 3-10 crossings ----------------------------

# Records per crossing count: 1200 in all, weighted towards small c so the
# per-record fixed costs (parsing, Laurent assembly, emitters) stay visible
# next to the 2^c bracket.
TABLE_COUNTS = {3: 100, 4: 150, 5: 150, 6: 175, 7: 175, 8: 175, 9: 150, 10: 125}
TABLE_TINY = {3: 5, 4: 5, 5: 5, 6: 5, 7: 5, 8: 5}


def table_items(seed: int, counts: dict[int, int]) -> list[Item]:
    """Records named ``<c>_<id>``, families drawn by seed at each c."""
    rng = random.Random(f"table-{seed}")
    items: list[Item] = []
    for c, count in sorted(counts.items()):
        for k in range(1, count + 1):
            kinds = ["braid", "braid", "mirror"]
            if c in TORUS_BY_C:
                kinds.append("torus")
            if c in WHITEHEAD_BY_C:
                kinds.append("whitehead")
            if c >= 6:
                kinds.append("sum")
            kind = rng.choice(kinds)
            if kind == "torus":
                d, ref = _torus(rng, c)
            elif kind == "whitehead":
                d, ref = _whitehead(rng, c)
            elif kind == "sum":
                d, ref = _sum(rng, c)
            else:
                d, ref = _braid(rng, c, None)
                if kind == "mirror":
                    d = kf.mirror(d)
                ref = ("knot", kf.to_pd_text(d))
            items.append(Item(f"{c}_{k}", kf.to_pd_text(d), ref))
    return items


def write_table(path, items: list[Item], seed: int) -> None:
    lines = [f"# seeded benchmark table, seed {seed}, {len(items)} records"]
    lines += [f"{it.key}\t{it.text}" for it in items]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- cli: one closed-loop pass of subcommands ---------------------------------

def cli_mix(seed: int, table_file: str, out_dir: str,
            tiny: bool = False) -> list[tuple[str, list[str], tuple]]:
    """(subcommand, argv, reference) for one pass; outputs go to out_dir.

    A pass holds 20 invocations: 17 that cost about one interpreter start
    and import, and 3 invariants calls at 13-14 crossings whose double
    state sum adds 0.1-0.4 s.  The median then falls among the cheap calls
    and the p90 among the 13-crossing ones.
    """
    rng = random.Random(f"cli-{seed}")
    mix = []

    def invariants(c, family):
        if family == "braid":
            d, _ = _braid(rng, c, None)
            ref = ("knot", kf.to_pd_text(d))
        else:
            d, ref = {"torus": _torus, "whitehead": _whitehead, "sum": _sum}[family](rng, c)
        code = kf.to_pd_text(d) if rng.random() < 0.5 else kf.to_gauss(d).text()
        mix.append(("invariants", ["invariants", code], ref))

    small = [(3, "torus"), (4, "whitehead"), (5, "braid"), (6, "braid"),
             (7, "sum"), (8, "braid"), (9, "torus"), (10, "sum"), (11, "braid")]
    for c, family in (small[:3] if tiny else small):
        invariants(c, family)
    tp = [(p, q) for p in range(2, 6) for q in range(p + 1, 12) if gcd(p, q) == 1]
    for _ in range(1 if tiny else 2):
        p, q = rng.choice(tp)
        mix.append(("torus", ["torus", str(p), str(q), "--report"], ("torus", p, q)))
    p, q = rng.choice(tp)
    pair = kf.torus_v2v3((p, q))
    mix.append(("pseudo", ["pseudo", str(pair.v2), str(pair.v3)], ("torus", p, q)))
    p, q = rng.choice(tp)
    mix.append(("generate", ["generate", "torus", str(p), str(q)], ("torus", p, q)))
    i = rng.choice((1, -1)) * rng.randint(1, 6)
    mix.append(("generate", ["generate", "whitehead", str(i)], ("whitehead", i)))
    mix.append(("table", ["table", table_file, "--maxima", "--audit", "--csv",
                          f"{out_dir}/cli_table.csv"], ("file",)))
    c = rng.randint(3, 8)
    mix.append(("plot", ["plot", table_file, "--crossing", str(c),
                         "--svg", f"{out_dir}/cli_plot.svg"], ("file",)))
    u0 = rng.randint(1, 5)
    cs = sorted(rng.sample(range(3, 18, 2), 5))
    mix.append(("curves", ["curves", "--unknotting", f"{u0}..{u0 + 4}",
                           "--crossing", ",".join(map(str, cs)),
                           "--svg", f"{out_dir}/cli_curves.svg"], ("file",)))
    if not tiny:
        invariants(13, rng.choice(("torus", "braid")))
        invariants(13, "braid")
        invariants(14, rng.choice(("torus", "whitehead", "braid")))
    rng.shuffle(mix)
    return mix


# -- oracles -----------------------------------------------------------------

def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_invert(a: dict[int, int]) -> dict[int, int]:
    """J(q) -> J(1/q)."""
    return {-e: c for e, c in a.items()}


def torus_jones(p: int, q: int) -> dict[int, int]:
    """Jones polynomial of T(p,q), from the closed form

        V = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)

    for p, q > 0, divided out here term by term; T(p,-q) is the mirror.
    """
    sign = 1 if p * q > 0 else -1
    p, q = abs(p), abs(q)
    num: dict[int, int] = {}
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[e] = num.get(e, 0) + c
    num = {e: c for e, c in num.items() if c}
    quot: dict[int, int] = {}
    while num:
        lo = min(num)
        c = num.pop(lo)
        quot[lo] = c
        num[lo + 2] = num.get(lo + 2, 0) + c
        if num[lo + 2] == 0:
            del num[lo + 2]
        if lo > p + q:
            raise ArithmeticError(f"(1 - t^2) does not divide the T({p},{q}) numerator")
    shift = (p - 1) * (q - 1) // 2
    j = {e + shift: c for e, c in quot.items()}
    return j if sign > 0 else poly_invert(j)


def derivative_at_one(j: dict[int, int], n: int) -> int:
    total = 0
    for e, c in j.items():
        prod = 1
        for k in range(n):
            prod *= e - k
        total += c * prod
    return total


def record_relations(j: dict[int, int], v2: int, v3: int) -> str | None:
    """Relations every knot's record satisfies: J(1) = 1, J'(1) = 0, and
    v2, v3 as the stated combinations of J''(1) and J'''(1)."""
    if derivative_at_one(j, 0) != 1:
        return "J(1) != 1"
    if derivative_at_one(j, 1) != 0:
        return "J'(1) != 0"
    j2, j3 = derivative_at_one(j, 2), derivative_at_one(j, 3)
    if -j2 != 6 * v2 or -(j3 + 3 * j2) != 36 * v3:
        return f"(v2, v3) = ({v2}, {v3}) disagrees with J''(1) = {j2}, J'''(1) = {j3}"
    return None


def expected_values(ref: tuple, cache: dict,
                    with_jones: bool = True) -> tuple[int, int, dict | None] | None:
    """(v2, v3, J) that a reference fixes; J is None where no closed form
    gives it or ``with_jones`` is off.  None for braid, mirror and plain
    knot references, which are checked by relations only."""
    kind = ref[0]
    if kind == "torus":
        pair = kf.torus_v2v3((ref[1], ref[2]))
        return pair.v2, pair.v3, torus_jones(ref[1], ref[2]) if with_jones else None
    if kind == "whitehead":
        pair = kf.whitehead_closed_form(ref[1])
        return pair.v2, pair.v3, None
    if kind == "sum":
        a = _summand_values(ref[1], cache, with_jones)
        b = _summand_values(ref[2], cache, with_jones)
        return a[0] + b[0], a[1] + b[1], poly_mul(a[2], b[2]) if with_jones else None
    return None


def _summand_values(ref: tuple, cache: dict, with_jones: bool):
    """Values of a summand of at most 9 crossings.  A torus summand comes
    from the closed forms and a Whitehead pair from its closed form.  The
    Jones polynomial of a Whitehead summand and every value of a braid
    summand come from the library on that small diagram, so for those the
    check on the sum is the relation alone."""
    if ref[0] == "torus":
        return expected_values(ref, cache, with_jones)
    key = (ref, with_jones)
    if key not in cache:
        d = kf.whitehead_pd(ref[1]) if ref[0] == "whitehead" else kf.parse_pd(ref[1])
        pair = kf.whitehead_closed_form(ref[1]) if ref[0] == "whitehead" else kf.v2_v3(d)
        cache[key] = (pair.v2, pair.v3, kf.jones(d).terms if with_jones else None)
    return cache[key]
