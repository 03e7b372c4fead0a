"""What a cold `mwlab` process imports, and the package's public surface.

The subprocess checks run with PYTHONPATH=src and an explicit --workers, so
an MWLAB_WORKERS setting in the environment cannot change what they see.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mwlab

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Modules no command needs before it runs: the pool machinery, the
# dataclass machinery, every checker the command line may not call, and the
# elliptic backend, which only an ec: backend needs.
HEAVY = (
    "concurrent.futures", "multiprocessing", "dataclasses", "inspect",
    "mwlab.support", "mwlab.dependence", "mwlab.primesearch", "mwlab.experiments",
    "mwlab.elliptic",
)

# What the first dispatch to the fork pool imports, and `select`, which its
# round-by-round reply loop does without.
POOL = ("pickle", "select")

# The public names of the package, by the submodule that defines them.
EXPORTS = {
    "dependence": (
        "DetectionResult", "RecoveryResult", "SubgroupSpec", "detect_dependence",
        "exact_membership_multiplicative", "member_mod", "recover_exponent",
    ),
    "elliptic": (
        "EC_IDENTITY", "EcPoint", "EllipticGroup", "WeierstrassCurve", "elliptic_independence_check",
    ),
    "mwgroup": (
        "MulPoint", "MultiplicativeGroup", "multiplicative_independence", "torsion_order_stability",
    ),
    "numth": (
        "Factorization", "PrimeRange", "bsgs_dlog", "crt", "exact_valuation", "factor",
        "is_prime", "multiplicative_order", "primes_in",
    ),
    "primesearch": (
        "DensityReport", "PatternHit", "ValuationPattern", "find_pattern_primes",
        "pattern_density", "replay_step1", "replay_step2_lcm",
    ),
    "reports": ("ConditionReport", "RelationCertificate", "Witness"),
    "support": (
        "scan_cor22", "scan_corrales_schoof", "scan_erdos_union", "scan_thm2", "support_of",
        "support_union_at_n", "verify_conclusion_match", "verify_witness",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def cold(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that sees only src/ and no worker
    count from the environment; argv becomes sys.argv[1:]."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("MWLAB_WORKERS", None)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )


# Runs one command line through cli.main, then prints, as its last stdout
# line, the HEAVY and POOL modules it loaded. The child counts two CPUs, so
# --workers 2 dispatches to the pool on any machine: pool_size caps the
# workers at os.cpu_count(), and at one CPU every chunk runs in-process.
RUN_AND_LIST = f"""
import json, os, sys
os.cpu_count = lambda: 2
from mwlab import cli
code = cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": [m for m in {HEAVY + POOL!r} if m in sys.modules]}}))
"""


# Runs one command line through the process entry, as `python -m mwlab` and
# the mwlab script do, at two CPUs as above; then prints to stderr how many
# workers the pools forked, before the interpreter exits and reaps them.
ENTRY_AND_COUNT = """
import os, sys
os.cpu_count = lambda: 2
from mwlab import _parallel
from mwlab.cli import entry
code = entry()
print(sum(len(pool.pids) for pool in _parallel._POOLS.values()), file=sys.stderr)
sys.exit(code)
"""


def run_and_list(*argv: str) -> tuple[str, dict]:
    report, _, tail = cold(RUN_AND_LIST, *argv).stdout.rstrip("\n").rpartition("\n")
    return report, json.loads(tail)


class TestColdStart:
    def test_importing_the_cli_loads_nothing_heavy(self):
        code = f"import sys, mwlab.cli; print([m for m in {HEAVY!r} if m in sys.modules])"
        assert cold(code).stdout.strip() == "[]"

    def test_serial_scan_never_loads_the_pool(self):
        _, status = run_and_list(
            "cs-check", "--backend", "ec:0,0,1,-1,0", "--x", "(0,0)", "--y", "(1,0)",
            "--primes", "3..200", "--workers", "1",
        )
        assert not {"concurrent.futures", "multiprocessing", *POOL} & set(status["loaded"])

    def test_dispatch_loads_the_pool_and_keeps_the_bytes(self):
        # The supports agree everywhere, so the scan holds and the rest of
        # the window is dispatched after the 64-prime head.
        argv = ("support-check", "--xs", "2,3", "--ys", "3,2")
        serial, serial_status = run_and_list(*argv, "--workers", "1")
        pooled, pooled_status = run_and_list(*argv, "--workers", "2")
        assert serial_status["code"] == pooled_status["code"] == 0
        # The fork pool dispatches on pipes and needs no executor machinery.
        assert "pickle" in pooled_status["loaded"] and "select" not in pooled_status["loaded"]
        assert "concurrent.futures" not in pooled_status["loaded"]
        assert "multiprocessing" not in pooled_status["loaded"]
        assert pooled == serial

    @pytest.mark.parametrize("argv, elliptic", [
        (("support-check", "--xs", "2,3", "--ys", "3,2"), False),
        (("detect", "--points", "12", "--lambda", "2,3", "--primes", "3..300"), False),
        (("find-primes", "--points", "2,3", "--l", "3", "--ks", "1,0", "--primes", "3..300"), False),
        (("cs-check", "--backend", "ec:0,0,1,-1,0", "--x", "(0,0)", "--y", "(1,0)",
          "--primes", "3..200"), True),
    ], ids=["support-check", "detect", "find-primes", "ec-cs-check"])
    def test_only_an_elliptic_command_loads_the_elliptic_backend(self, argv, elliptic):
        _, status = run_and_list(*argv, "--workers", "1")
        assert status["code"] in (0, 1, 2)
        assert ("mwlab.elliptic" in status["loaded"]) is elliptic

    @pytest.mark.parametrize("stdout", ["open", "closed"])
    def test_a_frozen_exit_still_reaps_every_worker(self, stdout):
        # A holding scan past the 64-prime head, at two workers, in a session
        # of its own: once the command has exited, no process of its group
        # is left, with the report written (0) or its reader gone (74).
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        r, w = os.pipe()
        if stdout == "closed":
            os.close(r)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY_AND_COUNT, "support-check", "--xs", "2,3",
                 "--ys", "3,2", "--workers", "2"],
                stdout=w, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
            )
        finally:
            os.close(w)
        if stdout == "open":
            with open(r, "rb") as reader:
                assert json.loads(reader.read())["outcome"]["report"]["witness"] is None
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == (0 if stdout == "open" else 74)
        assert err.splitlines()[-1] == "2"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_a_command_builds_only_its_own_parser(self):
        # The full parser, all seven subcommands, is for lines that name no
        # command; a cold support-check builds one parser, its own.
        code = ("import sys; from mwlab import cli; cli.main(sys.argv[1:]); print("
                "cli._build_parser.cache_info().currsize, cli._command_parser.cache_info())")
        out = cold(code, "support-check", "--xs", "2", "--ys", "8", "--primes", "3..100",
                   "--workers", "1").stdout
        full, _, own = out.rstrip("\n").rpartition("\n")[2].partition(" ")
        assert full == "0"
        assert own == "CacheInfo(hits=0, misses=1, maxsize=None, currsize=1)"

    def test_submodule_resolves_after_a_bare_import(self):
        code = ("import sys, mwlab; assert 'mwlab.numth' not in sys.modules; "
                "print(mwlab.numth.is_prime(7), mwlab.numth.__name__)")
        assert cold(code).stdout.split() == ["True", "mwlab.numth"]


class TestPackageSurface:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_submodule_object(self, module, name):
        assert getattr(mwlab, name) is getattr(importlib.import_module(f"mwlab.{module}"), name)

    def test_all_lists_exactly_the_public_names(self):
        assert len(NAMES) == 43
        assert sorted(mwlab.__all__) == sorted(name for _, name in NAMES)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mwlab.no_such_name

    def test_the_script_runs_the_process_entry(self):
        # An installed `mwlab` exits the way `python -m mwlab` does.
        from mwlab.cli import entry

        pyproject = (SRC.parent / "pyproject.toml").read_text()
        scripts = pyproject.partition("[project.scripts]\n")[2].partition("\n[")[0]
        assert scripts.strip() == 'mwlab = "mwlab.cli:entry"'
        module, _, name = scripts.split('"')[1].partition(":")
        assert getattr(importlib.import_module(module), name) is entry

    def test_version(self):
        assert mwlab.__version__ == "0.1.0"
