"""The three workloads. mwlab only ever sees the argv lists built here.

mul-window and ec-window are fixed sets of cold CLI scans, one fresh
interpreter per command at --workers 1; the seed only orders each pass.
query-stream sends a fixed pool of 306 small queries, in a seeded order,
through one warm process at --workers 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from arith import discriminant, ec_mul, ec_neg, encode_point, on_curve, parse_point

MUL_DEFAULT = (3, 10_000)  # mwlab's default scan windows
EC_DEFAULT = (3, 2_000)

# Every command here holds over its whole window, so the scan cost is the
# full window and no early exit hides a slowdown. Per-prime factor(p-1),
# is_prime and multiplicative_order dominate mul-window; point counting and
# subgroup closure dominate ec-window. Each set has three commands whose
# times differ by about 1.6x or more, so the median and the 95th percentile
# of command latency each fall inside one command's samples.
MUL_WINDOW = (
    "support-check --xs 2,3,5 --ys 5,3,2 --primes 3..200000",
    "find-primes --points 2,3 --l 3 --ks 0,0 --density --primes 3..60000",
    "detect --points 360 --lambda 6,10 --primes 3..120000",
)
# (1,0) = 2*(0,0) on the first curve, and (-2,-1) = (0,0) + (1,0) on the
# rank-2 curve, so both scans hold and detect ends with a bounded-search
# certificate.
EC_WINDOW = (
    "cs-check --backend ec:0,0,1,-1,0 --x (0,0) --y (1,0) --primes 3..4500",
    "find-primes --backend ec:0,0,1,-1,0 --points (0,0) --l 2 --ks 0 --density --primes 3..2600",
    "detect --backend ec:0,1,1,-2,0 --points (-2,-1) --lambda (0,0),(1,0) --primes 3..1400",
)

STREAM_WORKERS = 2
# Windows too short for recover to finish: mwlab reports "scan exhausted"
# and exits 1 where its documentation promises 2. They stay in the pool so
# the defect keeps counting in failed_share.
SHORT_RECOVERS = (
    "recover --p 2 --q 1024 --primes 3..7",
    "recover --p 2 --q 1073741824 --primes 3..11",
    "recover --p 3 --q 3486784401 --primes 5..7",
    "recover --p 5 --q 244140625 --primes 3..7",
    "recover --p 2 --q 1/1024 --primes 3..7",
    "recover --p 7 --q 40353607 --primes 3..5",
)
WARMUP = "support-check --xs 2,3 --ys 3,2"


@dataclass(frozen=True)
class Query:
    """One mwlab invocation: its argv (without --workers) and the
    structured inputs the oracle checks the answer against."""

    argv: tuple[str, ...]
    spec: dict

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def with_workers(self, workers: int) -> list[str]:
        return [*self.argv, "--workers", str(workers)]


def parse_query(text: str) -> Query:
    """Build a Query from a command line, reading its inputs back out."""
    argv = tuple(text.split())
    flags = _flags(argv)
    command = argv[0]
    backend = flags.get("--backend", "mul")
    curve = tuple(int(a) for a in backend[3:].split(",")) if backend.startswith("ec:") else None
    if "--primes" in flags:
        lo, hi = flags["--primes"].split("..")
        window = (int(lo), int(hi))
    else:
        window = EC_DEFAULT if curve else MUL_DEFAULT
    spec: dict = {"command": command, "curve": curve, "window": window}

    def points(name):
        return [parse_point(t) for t in _split(flags[name])]

    if command == "support-check":
        spec["xs"] = [int(t) for t in flags["--xs"].split(",")]
        spec["ys"] = [int(t) for t in flags["--ys"].split(",")]
        spec["good_for"] = [Fraction(x) for x in spec["xs"] + spec["ys"]]
    elif command == "cs-check":
        spec["x"], spec["y"] = points("--x")[0], points("--y")[0]
        spec["good_for"] = [spec["x"], spec["y"]]
    elif command == "detect":
        spec["Ps"], spec["gens"] = points("--points"), points("--lambda")
        spec["good_for"] = spec["Ps"] + spec["gens"]
    elif command == "find-primes":
        spec["points"] = points("--points")
        spec["l"] = int(flags["--l"])
        spec["ks"] = [int(k) for k in flags["--ks"].split(",")]
        spec["max_hits"] = int(flags.get("--max-hits", 10))
        spec["density"] = "--density" in argv
        spec["good_for"] = spec["points"]
    elif command == "replay":
        spec["P"], spec["Qs"], spec["l"] = points("--p")[0], points("--qs"), int(flags["--l"])
        spec["good_for"] = [spec["P"], *spec["Qs"]]
    elif command == "recover":
        spec["P"], spec["Q"] = points("--p")[0], points("--q")[0]
        spec["good_for"] = [spec["P"], spec["Q"]]
    else:
        raise ValueError(f"no oracle for {command}")
    return Query(argv, spec)


def _flags(argv) -> dict:
    out, i = {}, 1
    while i < len(argv):
        if argv[i] == "--density":
            i += 1
            continue
        out[argv[i]] = argv[i + 1]
        i += 2
    return out


def _split(text: str) -> list[str]:
    """Split a comma list, keeping the commas inside '(x,y)' points."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    return parts + [cur]


def window_commands(name: str) -> list[Query]:
    texts = MUL_WINDOW if name == "mul-window" else EC_WINDOW
    return [parse_query(t) for t in texts]


def query_stream(seed: int) -> list[Query]:
    """The whole pool in a seeded order. Every seed sends the same mix, so
    runs on different seeds compare like with like; the mix itself is the
    pool's make-up (see _build_pool)."""
    queries = [q for family in query_pool().values() for q in family]
    random.Random(f"query-stream:{seed}").shuffle(queries)
    return queries


_POOL: dict[str, list[Query]] | None = None


def query_pool() -> dict[str, list[Query]]:
    """The stream's queries by family: 60 support-check (one in six holds,
    the rest fail early), 60 multiplicative detect (half members certified
    by the exact oracle, half early witnesses), 42 recover (6 of them on
    windows too short to finish, 12 elliptic), 24 find-primes --max-hits,
    24 replay, and 48 each of elliptic cs-check and rank-1 detect on short
    windows, half holding and half failing early. Built from a fixed RNG,
    so it is the same on every run and its digests are recorded once."""
    global _POOL
    if _POOL is None:
        _POOL = _build_pool(random.Random(20080909))
    return _POOL


def _build_pool(rng: random.Random) -> dict[str, list[Query]]:
    families = ("support-check", "detect-mul", "recover", "find-primes", "replay", "cs-check-ec", "detect-ec")
    pool: dict[str, list[str]] = {k: [] for k in families}

    for i in range(60):
        if i % 6 == 0:  # the same numbers on both sides: holds on the window
            xs = rng.sample(range(2, 31), 2)
            ys = xs[::-1]
        else:  # mostly violated at an early prime
            xs = rng.sample(range(2, 31), rng.randint(1, 2))
            ys = rng.sample(range(2, 31), rng.randint(1, 2))
        pool["support-check"].append(
            f"support-check --xs {','.join(map(str, xs))} --ys {','.join(map(str, ys))}"
        )

    generator_pairs = [(6, 10), (2, 3), (3, 5), (2, 7), (10, 21), (5, 6)]
    for i in range(60):
        g1, g2 = generator_pairs[i % len(generator_pairs)]
        e1, e2 = rng.choice([(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)])
        P = Fraction(g1) ** e1 * Fraction(g2) ** e2
        if i % 2:  # an extra prime outside the generators: an early witness
            P *= rng.choice([11, 13, 17, 19])
        pool["detect-mul"].append(f"detect --points {encode_point(P)} --lambda {g1},{g2}")

    for _ in range(24):
        base = rng.choice([Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(3, 2), Fraction(2, 5)])
        d = rng.choice([d for d in range(-12, 41) if d])
        pool["recover"].append(f"recover --p {encode_point(base)} --q {encode_point(base ** d)}")
    pool["recover"].extend(SHORT_RECOVERS)

    small_primes = [2, 3, 5, 7, 11, 13]
    for _ in range(24):
        a, b = rng.sample(small_primes, 2)
        l = rng.choice([2, 3, 5])
        ks = f"{rng.randint(0, 2)},{rng.randint(0, 2)}"
        pool["find-primes"].append(
            f"find-primes --points {a},{b} --l {l} --ks {ks} --max-hits {rng.choice([3, 5, 8])}"
        )

    for _ in range(24):
        p, *qs = rng.sample([2, 3, 5, 6, 7, 10], rng.randint(2, 3))
        pool["replay"].append(
            f"replay --p {p} --qs {','.join(map(str, qs))} --l {rng.choice([3, 5, 7])}"
        )

    windows = ("3..500", "3..700", "3..900")
    for i, (c, P) in enumerate(curves()):
        backend = "ec:" + ",".join(map(str, c))
        k = (2, 3)[i % 2]
        kP = encode_point(ec_mul(c, k, P))
        twoP = encode_point(ec_mul(c, 2, P))
        win = windows[i % len(windows)]
        Pt = encode_point(P)
        if i % 2 == 0:  # y in <x>: holds over the window
            pool["cs-check-ec"].append(f"cs-check --backend {backend} --x {Pt} --y {kP} --primes {win}")
        else:  # fails at the first prime where ord(P) is even
            pool["cs-check-ec"].append(f"cs-check --backend {backend} --x {twoP} --y {Pt} --primes {win}")
        if i % 2 == 1:  # member: certified by bounded search
            member = kP if i % 4 == 1 else encode_point(ec_neg(c, P))
            pool["detect-ec"].append(f"detect --backend {backend} --points {member} --lambda {Pt} --primes {win}")
        else:  # P outside <2P> wherever ord(P) is even
            pool["detect-ec"].append(f"detect --backend {backend} --points {Pt} --lambda {twoP} --primes {win}")
        if i % 4 == 0:
            pool["recover"].append(
                f"recover --backend {backend} --p {Pt} --q {encode_point(ec_mul(c, (2, 3, -2)[i % 3], P))}"
            )

    return {family: [parse_query(t) for t in texts] for family, texts in pool.items()}


def curves(count: int = 48) -> list[tuple[tuple[int, ...], tuple[Fraction, Fraction]]]:
    """Curves through P = (0,0) with P of infinite order.

    The elliptic queries cycle through all of them, so their (curve, v)
    working set is larger than mwlab's 4096-entry point-count cache.
    """
    out = []
    P = (Fraction(0), Fraction(0))
    for a4 in (-3, -2, -1, 1, 2, 3, 4, 5):
        for a2 in (-1, 0, 1, 2):
            for a1, a3 in ((0, 1), (1, 1), (0, -1), (1, -1)):
                c = (a1, a2, a3, a4, 0)
                if discriminant(c) == 0 or not on_curve(c, P):
                    continue
                # Rational torsion has order at most 12 (Mazur).
                if any(ec_mul(c, k, P) is None for k in range(1, 13)):
                    continue
                out.append((c, P))
                if len(out) == count:
                    return out
    raise AssertionError("not enough curves with a point of infinite order")
