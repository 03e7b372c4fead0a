"""Committed mutants: small wrong edits to mwlab that the tests must catch.

    python3 tests/mutants.py

Each row of MUTANTS is (name, file, old text, new text, test selector). For
each one, src/ and tests/ are copied into a fresh temporary directory (the
conftest puts tests/../src first on sys.path, so the copied tests import the
copied code), the edit is applied there, and pytest runs only the selected
tests, with -x. The mutant is caught when pytest reports a test failure.

The script fails when a mutant survives, when its old text does not occur
exactly once in its file (a stale mutant), or when a selected test fails or
selects nothing on the unmutated copy. It never edits the tree it runs from.
pytest does not collect this file: it is not named test_*.py.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds each pytest run may take before its mutant counts as a failure.
TIMEOUT = 600

FASTPATHS = "tests/test_fastpaths.py"

# (name, file under src/mwlab, old text, new text, pytest arguments)
MUTANTS = [
    # -- elliptic point counts and orders (per-prime fast paths) --------------
    ("count-always-enumerates", "elliptic.py",
     "    if v >= _MESTRE_FROM:\n", "    if False:\n",
     f"{FASTPATHS}::TestPointCount"),
    ("walk-no-twist", "elliptic.py",
     "(_scaled_points(A, B, v, v - 1), 2 * v + 2)", "(_scaled_points(A, B, v, 1), 2 * v + 2)",
     f"{FASTPATHS}::TestPointCount"),
    ("walk-no-single-hit-exit", "elliptic.py",
     "return r + hits[0] * M if hits else None", "return None",
     f"{FASTPATHS}::TestPointCount"),
    ("walk-step-from-second-hit", "elliptic.py",
     "M * (hits[1] - hits[0])", "M * hits[1]",
     f"{FASTPATHS}::TestPointCount"),
    ("kills-one-step-too-far", "elliptic.py",
     "_ec_jacobian(a, abs(n), _to_short(self.curve, raw, v), v)[2] == 0",
     "_ec_jacobian(a, abs(n) + 1, _to_short(self.curve, raw, v), v)[2] == 0",
     f"{FASTPATHS}::TestJacobianLadder"),
    ("E-strip-stops-after-one-prime", "elliptic.py",
     "                    m = e\n                    continue\n                break\n        return m",
     "                    m = e\n                    continue\n                return m\n        return m",
     f"{FASTPATHS}::TestSubgroupExponent"),
    ("E-strip-on-long-model-raws", "elliptic.py",
     "a, raws = c.short_model[1] % v, [_to_short(c, raw, v) for raw in raws]",
     "a = c.short_model[1] % v",
     f"{FASTPATHS}::TestSubgroupExponent"),
    ("E-reduce-shortcut-for-every-denominator", "elliptic.py",
     "x.numerator % v if x.denominator == 1 else", "x.numerator % v if True else",
     "tests/test_mwgroup.py -k fraction_arithmetic"),
    ("E-reduce-ignores-the-discriminant", "elliptic.py",
     "        if self.curve.discriminant % v == 0:\n            return None\n        try:",
     "        if False:\n            return None\n        try:",
     "tests/test_mwgroup.py -k reduce_against_good_prime"),
    ("noncyclic-bound-without-legendre", "elliptic.py",
     "if l > 2 or pow(self.curve.discriminant, (v - 1) // 2, v) == 1",
     "if l > 2 or True",
     f"{FASTPATHS}::TestNoncyclicBound"),
    ("torsion-without-order-12", "elliptic.py",
     "(2, 3, 4, 5, 6, 7, 8, 9, 10, 12)", "(2, 3, 4, 5, 6, 7, 8, 9, 10)",
     "tests/test_mwgroup.py::TestTorsion"),
    # -- Q* and the shared per-prime tests -------------------------------------
    ("Q-strip-reads-one-raw", "mwgroup.py",
     "for raw in raws:  # a plain loop", "for raw in raws[:1]:  # a plain loop",
     f"{FASTPATHS}::TestSubgroupExponent"),
    ("Q-reduce-ignores-S", "mwgroup.py",
     "        if v in self.excluded:\n            return None\n        raws = []",
     "        raws = []",
     "tests/test_mwgroup.py -k reduce_against_good_prime"),
    ("Q-reduce-ignores-numerators", "mwgroup.py",
     "if not (num and den):", "if not den:",
     "tests/test_mwgroup.py -k reduce_against_good_prime"),
    ("orders-strip-one-power-per-prime", "numth.py",
     "            while t % q == 0 and pow(x, t // q, p) == 1:",
     "            if t % q == 0 and pow(x, t // q, p) == 1:",
     "tests/test_numth.py::TestMultiplicativeOrder"),
    ("member-no-m-equals-N-shortcut", "dependence.py",
     "    if m == n:\n        return True\n", "",
     f"{FASTPATHS}::TestSylowMembership::test_rank_two_curve_against_closure"),
    ("member-no-l-part-kill-test", "dependence.py",
     "        if backend.raw_kills(m // math.gcd(m, le), raw, v):\n            continue\n", "",
     f"{FASTPATHS}::TestNoncyclicBound::test_window_detect_closes_few_sylow_parts"),
    ("gap-keeps-first-unmatched-order", "support.py",
     "if gap is None or t < gap[0]:", "if gap is None:",
     "tests/test_support.py -k gap"),
    ("cover-skips-the-first-Q", "support.py",
     "for raw in raws[1:]):", "for raw in raws[2:]):",
     f"{FASTPATHS}::TestCoverByMultiple"),
    ("pattern-misses-the-lower-kill-test", "primesearch.py",
     "        if k and backend.raw_kills(n * l ** (k - 1), raw, v):\n            return None  # v_l(ord P) < k\n",
     "",
     f"{FASTPATHS}::TestPatternByValuations"),
    ("replay-misses-the-l-free-test", "primesearch.py",
     "    while m % l == 0:\n        m //= l\n    if any", "    if any",
     f"{FASTPATHS}::TestReplayByKills"),
    ("screen-match-taken-without-exact-sum", "dependence.py",
     "        if total == multiples[alpha]:", "        if True:",
     f"{FASTPATHS}::TestBoundedMembershipSearch"),
    ("valuation-forms-no-power-check", "numth.py",
     "    return n % lk == 0 and n % (lk * l) != 0", "    return n % lk == 0",
     "tests/test_numth.py::TestExactValuation"),
    # -- the scan loop and the pool --------------------------------------------
    ("scan-chunk-tests-bad-primes", "_parallel.py",
     "            bads.append(v)\n            continue\n", "            bads.append(v)\n",
     "tests/test_parallel.py::TestScanChunk"),
    ("head-witness-still-dispatches", "_parallel.py",
     "    if head[\"witness\"] is not None:\n        return [head]\n", "",
     "tests/test_parallel.py::TestSerialHead"),
    ("broken-pool-not-recorded", "_parallel.py",
     "        _BROKEN = True\n        return [fn(*t) for t in tasks]", "        return [fn(*t) for t in tasks]",
     "tests/test_parallel.py::TestMapChunksFailures"),
    ("task-error-swallowed", "_parallel.py",
     "        if not ok:\n            raise value\n", "        pass\n",
     "tests/test_parallel.py::TestMapChunksFailures"),
    ("replies-read-in-reverse", "_pool.py",
     "replies += [pickle.load(f) for f in self.results[: len(batch)]]",
     "replies += [pickle.load(f) for f in self.results[: len(batch)]][::-1]",
     "tests/test_parallel.py::TestRounds"),
    ("close-reaps-no-worker", "_pool.py",
     "            os.waitpid(pid, 0)\n", "            pass\n",
     "tests/test_parallel.py::TestForkPool::test_close_reaps_every_worker"),
    # -- what a cold command imports ---------------------------------------------
    ("cli-imports-the-Q-backend", "cli.py",
     "from . import numth\n", "from . import mwgroup, numth\n",
     "tests/test_cold_start.py -k only_numth"),
    ("ec-path-imports-the-Q-backend", "elliptic.py",
     "from . import numth\n", "from . import mwgroup, numth  # noqa: F401\n",
     "tests/test_cold_start.py -k qstar_backend"),
    ("support-imports-the-Q-backend", "support.py",
     "from .numth import PrimeRange\n", "from .mwgroup import MulPoint\nfrom .numth import PrimeRange\n",
     "tests/test_cold_start.py -k qstar_backend"),
    ("cli-imports-the-elliptic-backend", "cli.py",
     "from .numth import PrimeRange\n", "from .elliptic import EllipticGroup\nfrom .numth import PrimeRange\n",
     "tests/test_cold_start.py -k elliptic_backend"),
    ("serial-scan-loads-the-pool", "_parallel.py",
     "from functools import cache\n", "from functools import cache\n\nfrom . import _pool\n",
     "tests/test_cold_start.py -k pool"),
    ("entry-does-not-freeze", "cli.py",
     "    code = main()\n    gc.freeze()\n", "    code = main()\n",
     "tests/test_cli.py -k freezes"),
    # -- detect certificates -----------------------------------------------------
    ("identity-certificate-with-a-nonzero-lambda", "dependence.py",
     "(1,) + (0,) * len(subgroup.generators)", "(1,) + (1,) * len(subgroup.generators)",
     "tests/test_cli.py -k identity"),
    ("identity-left-to-the-oracle", "dependence.py",
     "        if backend.is_identity(P):\n            cert = RelationCertificate",
     "        if False:\n            cert = RelationCertificate",
     "tests/test_cli.py -k identity"),
    # -- refusals ------------------------------------------------------------------
    ("refusal-two-sided-empty-side", "support.py",
     "    if not (Ps and Qs):\n", "    if False:\n",
     "tests/test_support.py -k rejects_an_empty_side"),
    ("refusal-thm2-no-q", "support.py",
     "    if not Qs:\n        raise", "    if False:\n        raise",
     "tests/test_support.py -k thm2_rejects_no_q"),
    ("refusal-detect-no-points", "dependence.py",
     "    if not Ps:\n        raise", "    if False:\n        raise",
     "tests/test_dependence.py -k rejects_no_points"),
    ("refusal-replay-no-q", "primesearch.py",
     "    if not Qs:\n        raise", "    if False:\n        raise",
     "tests/test_primesearch.py -k rejects_no_q"),
    ("refusal-oracle-takes-the-identity", "dependence.py",
     "    if p_val == 1:\n        return None", "    if False:\n        return None",
     "tests/test_dependence.py -k identity_input_refused"),
    ("refusal-psi13-from-one-past", "numth.py",
     "    if n >= PSI_13 and not _pocklington(n):", "    if n > PSI_13 and not _pocklington(n):",
     "tests/test_numth.py -k psi_13"),
    ("refusal-recover-torsion-base", "cli.py",
     "            if not backend.is_identity(payload[\"Q\"]) and backend.is_torsion(payload[\"P\"]):",
     "            if False:",
     "tests/test_cli.py -k recover_torsion_base"),
]


def run_pytest(tmp: Path, selector: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *shlex.split(selector)]
    return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def main() -> int:
    failures, broken = [], []
    with tempfile.TemporaryDirectory(prefix="mwlab-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        for selector in dict.fromkeys(m[4] for m in MUTANTS):
            proc = run_pytest(clean, selector)
            if proc.returncode != 0:
                broken.append(f"selector {selector!r} exits {proc.returncode} on the unmutated copy")
                print(proc.stdout[-2000:])
        for i, (name, file, old, new, selector) in enumerate(MUTANTS):
            start = time.monotonic()
            work = Path(scratch) / f"m{i}"
            copy_tree(work)
            path = work / "src" / "mwlab" / file
            text = path.read_text()
            count = text.count(old)
            if count != 1:
                verdict = f"STALE: old text occurs {count} times in {file}"
                failures.append(f"{name}: {verdict}")
            else:
                path.write_text(text.replace(old, new))
                try:
                    proc = run_pytest(work, selector)
                except subprocess.TimeoutExpired:
                    verdict = f"TIMED OUT after {TIMEOUT} s"
                    failures.append(f"{name}: {verdict}")
                else:
                    if proc.returncode == 1:
                        verdict = "caught"
                    else:
                        verdict = f"SURVIVED (pytest exit {proc.returncode})"
                        failures.append(f"{name}: {verdict}")
            shutil.rmtree(work)
            print(f"{name:45s} {verdict} ({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught")
    for line in broken + failures:
        print(f"FAIL {line}")
    return 1 if broken or failures else 0


if __name__ == "__main__":
    sys.exit(main())
