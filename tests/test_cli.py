import contextlib
import gc
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

from mwlab import cli, elliptic
from mwlab.cli import INCONCLUSIVE, INTERNAL_ERROR, IO_ERROR, OK, USAGE_ERROR, VIOLATED, parse_args

EC37 = ("--backend", "ec:0,0,1,-1,0")
_E37 = elliptic.EllipticGroup(elliptic.WeierstrassCurve.parse("ec:0,0,1,-1,0"))
# 21*(0,0): a member of <(0,0)> whose least lambda, 21, is past the default
# coefficient bound 20, so the certificate search is exhausted.
P21 = _E37.scale(21, _E37.parse_point("(0,0)")).encode()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParse:
    def test_support_check_fields(self):
        config = parse_args(
            ["support-check", "--xs", "2,3", "--ys", "3,2", "--primes", "3..1000"]
        )
        assert config.command == "support-check"
        assert config.payload["xs"] == (2, 3)
        assert config.payload["ys"] == (3, 2)
        assert (config.scan.lo, config.scan.hi) == (3, 1000)

    def test_elliptic_detect(self):
        config = parse_args(
            [
                "detect",
                "--backend", "ec:0,0,1,-1,0",
                "--points", "(0,0)",
                "--lambda", "(1,0)",
                "--primes", "3..500",
            ]
        )
        assert config.backend.kind == "elliptic"
        assert len(config.payload["Ps"]) == 1
        assert len(config.payload["generators"]) == 1

    def test_recover_defaults(self, monkeypatch):
        monkeypatch.delenv("MWLAB_WORKERS", raising=False)
        config = parse_args(["recover", "--p", "2", "--q", "1024"])
        assert (config.scan.lo, config.scan.hi) == (3, 10_000)
        assert config.fmt == "json"
        assert config.workers == 1

    def test_elliptic_default_scan(self):
        config = parse_args(
            ["cs-check", "--x", "(0,0)", "--y", "(1,0)", "--backend", "ec:0,0,1,-1,0"]
        )
        assert (config.scan.lo, config.scan.hi) == (3, 2_000)

    def test_s_set_backend(self):
        config = parse_args(["cs-check", "--x", "2", "--y", "4", "--backend", "S={3,5}"])
        assert config.backend.excluded == frozenset({3, 5})

    def test_reused_parser_keeps_no_state(self):
        argv = ["find-primes", "--points", "2,3", "--l", "3", "--ks", "0,0",
                "--density", "--primes", "3..500", "--format", "csv"]
        first = parse_args(argv)
        with pytest.raises(cli.UsageError):
            parse_args(["find-primes", "--points", "2", "--l", "3", "--max-hits", "x"])
        assert parse_args(argv) == first
        assert cli._build_parser() is cli._build_parser()

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv("MWLAB_WORKERS", "4")
        config = parse_args(["recover", "--p", "2", "--q", "4"])
        assert config.workers == 4
        config = parse_args(["recover", "--p", "2", "--q", "4", "--workers", "2"])
        assert config.workers == 2


# Each command with every flag it takes (--verify left to VERIFY).
EVERY_FLAG = [
    ("support-check", "--xs", "2,3", "--ys", "3,2", "--primes", "3..400", "--format", "csv",
     "--workers", "2", "--verify", "7:1"),
    ("cs-check", "--x", "(0,0)", "--y", "(1,0)", *EC37, "--primes", "3..300", "--format", "text",
     "--workers", "1", "--verify", "5:4"),
    ("find-primes", "--points", "2,3", "--l", "3", "--ks", "1,0", "--max-hits", "4", "--density",
     "--backend", "S={5}", "--primes", "3..500", "--format", "json", "--workers", "3"),
    ("replay", "--p", "2", "--qs", "3", "--l", "5", "--backend", "mul", "--primes", "3..1000",
     "--format", "csv", "--workers", "1", "--verify", "31:5"),
    ("detect", "--points", "(0,0)", "--lambda", "(1,-1)", "--coeff-bound", "3", *EC37,
     "--primes", "3..300", "--format", "text", "--workers", "2", "--verify", "5:4"),
    ("recover", "--p", "2", "--q", "1024", "--backend", "mul", "--primes", "3..500",
     "--format", "csv", "--workers", "1"),
    ("experiment", "--suite", "ec-detect", "--trials", "2", "--seed", "5", "--primes", "3..200",
     "--format", "text", "--workers", "2"),
    ("find-primes", "--points=2", "--l=5", "--ks=1", "--prim", "3..90", "--work", "1"),
    ("support-check", "--ys", "8", "--xs", "2"),
]

# The lines of TestUsageErrors and TestVerifyMode's refusals, and argparse's
# own errors: unknown, repeated, abbreviated, misplaced and malformed flags.
USAGE_LINES = [
    ("recover", "--p", "2", "--q", "4", "--zap"), ("recover", "--p", "zero", "--q", "4"),
    ("recover", "--p", "0", "--q", "4"),
    ("detect", *EC37, "--points", "(2,1)", "--lambda", "(0,0)"),
    ("support-check", "--xs", "2", "--ys", "3", "--primes", "9..3"),
    ("support-check", "--xs", "2", "--ys", "3", "--primes", "10000000000..10200000000"),
    ("cs-check", "--x", "2", "--y", "4", "--backend", "weird"),
    ("cs-check", "--x", "2", "--y", "4", "--backend", "S={4}"),
    ("cs-check", "--x", "2", "--y", "4", "--backend", "ec:0,0,0,0,0"),
    ("replay", "--p", "2", "--qs", "3", "--l", "4"),
    ("find-primes", "--points", "2,3", "--l", "5", "--ks", "1"),
    ("find-primes", "--points", "2", "--l", "5", "--ks", "1", "--max-hits", "0"),
    ("find-primes", "--points", "2", "--l", "3", "--max-hits", "x"),
    ("detect", "--points", "360", "--lambda", "6,10", "--coeff-bound", "-1"),
    ("recover", "--p", "-1", "--q", "-1"), ("recover", *EC37, "--p", "O", "--q", "(0,0)"),
    ("experiment", "--suite", "cs", "--trials", "3", "--primes", "3..50"),
    ("support-check", "--xs", "2", "--ys", "8", "--verify", "9:2"),
    ("support-check", "--xs", "2", "--ys", "8", "--verify", "7:0"),
    ("cs-check", "--x", "2", "--y", "4", "--verify", "2:1"),
    ("recover", "--p", "2", "--q", "1024", "--verify", "5:1"),
    ("experiment", "--suite", "cs", "--trials", "3", "--verify", "5:1"),
    ("support-check",), ("support-check", "--xs"), ("support-check", "--xs", "2", "extra"),
    ("support-check", "--xs", "2", "--ys", "3", "--backend", "mul"),
    ("support-check", "--xs", "2", "--ys", "3", "--format", "xml"),
    ("support-check", "--xs", "2", "--ys", "3", "--workers", "x"),
    ("support-check", "--xs", "2", "--ys", "3", "--workers", "0"),
    ("support-check", "--xs", "2", "--ys", "-3"), ("support-check", "--xs", "2", "--ys", "3", "--", "x"),
    ("find-primes", "--points", "2", "--l", "3", "--ks", "1", "--m", "2"),
    ("detect", "--points", "2", "--lamb", "3", "--lam", "5"),
    ("experiment", "--suite", "nope", "--trials", "1"), ("experiment", "--trials", "2"),
    ("replay", "--p", "2", "--p", "3", "--qs", "3", "--l", "x"),
    ("detect", "--points", ",", "--lambda", "2", "--primes", "3..50"),
    ("replay", "--p", "2", "--qs", ",", "--l", "3", "--primes", "3..50"),
]

# Lines that name no command, for the full parser's help and errors.
NO_COMMAND = [(), ("-h",), ("--help",), ("frobnicate",), ("--xs", "2"), ("-x",),
              ("--", "support-check"), ("Support-check",), ("support",)]


def _parse(argv):
    """What parse_args makes of a line: its config, its usage error or its
    exit code, with what argparse printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = ("config", parse_args(list(argv)))
    except cli.UsageError as exc:
        result = ("usage", str(exc))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return (*result, out.getvalue(), err.getvalue())


class _Nested:
    """The oracle: the full parser's subparser path, in place of a
    one-command parser."""

    def __init__(self, command):
        self.command = command

    def parse_args(self, rest):
        return cli._build_parser().parse_args([self.command, *rest])


class TestParsePaths:
    """A line that names a command goes to that command's own parser; the
    full parser's nested parse must read every line the same way."""

    @pytest.mark.parametrize("argv", [
        *EVERY_FLAG, *USAGE_LINES, *((name, "-h") for name in cli._COMMANDS),
        *((name, "--help") for name in cli._COMMANDS),
        *((name, "--primes", "3..50", "-h") for name in cli._COMMANDS),
    ])
    def test_same_as_the_nested_parse(self, argv, monkeypatch):
        got = _parse(argv)
        monkeypatch.setattr(cli, "_command_parser", _Nested)
        assert got == _parse(argv)
        if "-h" in argv or "--help" in argv:
            assert got[:2] == ("exit", 0) and got[2].startswith(f"usage: mwlab {argv[0]} ")

    def test_every_flag_parses(self):
        for argv in EVERY_FLAG:
            assert _parse(argv)[0] == "config", argv
        assert {argv[0] for argv in EVERY_FLAG} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", NO_COMMAND)
    def test_no_command_takes_the_full_parser(self, argv, monkeypatch):
        def no_command_parser(command):
            pytest.fail(f"a one-command parser was built for {command!r}")

        monkeypatch.setattr(cli, "_command_parser", no_command_parser)
        kind, value, out, err = _parse(argv)
        if argv and argv[0] in ("-h", "--help"):
            assert (kind, value, out) == ("exit", 0, cli._build_parser().format_help())
        else:  # argparse's own error for the line; it differs across versions
            with pytest.raises(cli.UsageError) as full:
                cli._build_parser().parse_args(list(argv))
            assert (kind, value) == ("usage", str(full.value))

    def test_one_parser_per_command(self):
        for name in cli._COMMANDS:
            assert cli._command_parser(name) is cli._command_parser(name)
            assert cli._command_parser(name).prog == f"mwlab {name}"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == USAGE_ERROR

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "recover", "--p", "2", "--q", "4", "--zap")[0] == USAGE_ERROR

    def test_malformed_point(self, capsys):
        assert run_cli(capsys, "recover", "--p", "zero", "--q", "4")[0] == USAGE_ERROR
        assert run_cli(capsys, "recover", "--p", "0", "--q", "4")[0] == USAGE_ERROR

    def test_off_curve_point(self, capsys):
        code, _ = run_cli(
            capsys, "detect", "--backend", "ec:0,0,1,-1,0",
            "--points", "(2,1)", "--lambda", "(0,0)",
        )
        assert code == USAGE_ERROR

    def test_inverted_range(self, capsys):
        code, _ = run_cli(capsys, "support-check", "--xs", "2", "--ys", "3", "--primes", "9..3")
        assert code == USAGE_ERROR

    def test_window_wider_than_the_limit(self, capsys):
        code = cli.main(["support-check", "--xs", "2", "--ys", "3",
                         "--primes", "10000000000..10200000000"])
        assert code == USAGE_ERROR
        assert "limit of 100000000 integers" in capsys.readouterr().err

    def test_narrow_window_past_the_base_sieve_limit(self, capsys):
        # Refused when the window is parsed, before any sieve is allocated.
        code = cli.main(["support-check", "--xs", "2", "--ys", "3",
                         "--primes", f"{10**20}..{10**20 + 2000}"])
        assert code == USAGE_ERROR
        assert "needs base primes up to 10000000000" in capsys.readouterr().err

    def test_bad_backend(self, capsys):
        code, _ = run_cli(capsys, "cs-check", "--x", "2", "--y", "4", "--backend", "weird")
        assert code == USAGE_ERROR

    @pytest.mark.parametrize(
        "backend",
        ["S={2,x}", "S={4}", "S={1}", "S={-3}", "S={3317044064679887385961981}",
         "ec:1,2,3", "ec:0,0,0,0,0", "ec:a,0,0,0,0"],
        ids=["s-set-entry", "s-set-composite", "s-set-one", "s-set-negative", "s-set-psi-13",
             "too-few-coefficients", "singular-curve", "non-integer-coefficient"],
    )
    def test_malformed_backend(self, capsys, backend):
        code = cli.main(["cs-check", "--x", "2", "--y", "4", "--backend", backend])
        assert code == USAGE_ERROR
        err = capsys.readouterr().err
        assert "bad --backend" in err
        if backend == "ec:0,0,0,0,0":
            assert "bad --backend 'ec:0,0,0,0,0': singular curve (discriminant 0)" in err

    def test_non_integer_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MWLAB_WORKERS", "abc")
        code, _ = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8")
        assert code == USAGE_ERROR

    def test_composite_replay_prime(self, capsys):
        code, _ = run_cli(capsys, "replay", "--p", "2", "--qs", "3", "--l", "4")
        assert code == USAGE_ERROR

    def test_replay_prime_past_psi_13(self, capsys):
        # psi_13 is composite and passes Miller-Rabin to every base up to 41.
        code = cli.main(["replay", "--p", "2", "--qs", "3", "--l", "3317044064679887385961981"])
        assert code == USAGE_ERROR
        assert "cannot prove 3317044064679887385961981 prime" in capsys.readouterr().err

    def test_detect_gives_no_verdict_on_a_factor_past_psi_13(self, capsys):
        # The exact oracle would factor psi_13 = 1287836182261 * 2575672364521
        # as a prime and refute the point; it must refuse instead.
        code = cli.main(["detect", "--points", "3317044064679887385961981",
                         "--lambda", "1287836182261,2575672364521", "--primes", "3..200"])
        captured = capsys.readouterr()
        assert code == INTERNAL_ERROR
        assert captured.out == ""
        assert "cannot prove 3317044064679887385961981 prime" in captured.err
        assert "Traceback" not in captured.err

    def test_a_true_prime_past_psi_13_is_refused_too(self, capsys):
        # 2^127 - 1 is prime, but Miller-Rabin cannot tell it from a strong
        # pseudoprime there, and the primes up to 2^12 make up too little of
        # 2^127 - 2 for a Pocklington proof: as an S entry it is a usage
        # error, and as a factor of a point the exact oracle gives no verdict.
        m = str(2**127 - 1)
        code = cli.main(["cs-check", "--x", "2", "--y", "4", "--backend", f"S={{{m}}}"])
        assert code == USAGE_ERROR
        assert f"cannot prove {m} prime" in capsys.readouterr().err
        code = cli.main(["detect", "--points", m, "--lambda", m, "--primes", "3..200"])
        captured = capsys.readouterr()
        assert code == INTERNAL_ERROR
        assert captured.out == ""
        assert f"cannot prove {m} prime" in captured.err

    def test_a_prime_past_psi_13_with_a_pocklington_proof_is_accepted(self, capsys):
        # 2^89 - 2 = 2 * 3 * 5 * 17 * 23 * 89 * 353 * 397 * 683 * 2113 * 2931542417,
        # whose part up to 2^12 exceeds the square root of 2^89 - 1.
        m = str(2**89 - 1)
        code, out = run_cli(capsys, "cs-check", "--x", "2", "--y", "4", "--backend", f"S={{{m}}}",
                            "--primes", "3..200")
        assert code == OK
        assert json.loads(out)["outcome"]["report"]["verdict"] == "holds_on_scan"
        code, out = run_cli(capsys, "detect", "--points", m, "--lambda", m, "--primes", "3..200")
        assert code == OK
        certificate = json.loads(out)["outcome"]["certificate"]
        assert (certificate["alpha"], certificate["lambdas"]) == (1, [1])

    def test_pattern_length_mismatch(self, capsys):
        code, _ = run_cli(capsys, "find-primes", "--points", "2,3", "--l", "5", "--ks", "1")
        assert code == USAGE_ERROR

    def test_zero_max_hits(self, capsys):
        code, _ = run_cli(
            capsys, "find-primes", "--points", "2", "--l", "5", "--ks", "1", "--max-hits", "0"
        )
        assert code == USAGE_ERROR

    def test_empty_point_lists(self, capsys):
        # No P_i, or no Q_i, would make every witness or verdict vacuous.
        code = cli.main(["detect", "--points", ",", "--lambda", "2", "--primes", "3..50"])
        assert code == USAGE_ERROR
        assert "--points needs at least one entry" in capsys.readouterr().err
        code = cli.main(["replay", "--p", "2", "--qs", ",", "--l", "3", "--primes", "3..50"])
        assert code == USAGE_ERROR
        assert "--qs needs at least one entry" in capsys.readouterr().err

    def test_negative_coeff_bound(self, capsys):
        code, _ = run_cli(
            capsys, "detect", "--points", "360", "--lambda", "6,10", "--coeff-bound", "-1"
        )
        assert code == USAGE_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ("--p", "-1", "--q", "-1"),
            ("--p", "1", "--q", "2"),
            ("--backend", "ec:0,0,1,-1,0", "--p", "O", "--q", "(0,0)"),
            ("--backend", "ec:1,1,1,35,-28", "--p", "(2,6)", "--q", "(32,171)"),
        ],
        ids=["minus-one", "one", "ec-identity", "ec-order-eight"],
    )
    def test_recover_torsion_base(self, capsys, argv):
        code = cli.main(["recover", *argv])
        assert code == USAGE_ERROR
        assert "nontorsion base point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            # P has infinite order; the 25-digit prime 4923049000010615435846167
            # divides the short model's discriminant.
            (("--backend", "ec:0,1000003,0,999996999997,0", "--p", "(1,999999)",
              "--q", "(27777611111138889555556/111110888889,"
                     "-4629597222300925773148194445129630/37036925926037037)",
              "--primes", "3..3000"), OK, '"d": 2'),
            # (0,0) has order 2; the discriminant has 204 bits.
            (("--backend", "ec:0,1000000000039,0,1000000000000000003,0", "--p", "(0,0)",
              "--q", "(0,0)", "--primes", "3..300"), USAGE_ERROR, "recover needs a nontorsion base point"),
        ],
        ids=["nontorsion", "two-torsion"],
    )
    def test_recover_torsion_check_at_large_coefficients(self, argv, code, expected):
        # In a child with a timeout, so a torsion test that factors the
        # discriminant fails here instead of stalling the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "mwlab", "recover", *argv],
            capture_output=True, text=True, cwd="src", timeout=30,
        )
        assert proc.returncode == code
        assert expected in (proc.stdout if code == OK else proc.stderr)

    def test_recover_identity_target_is_still_found(self, capsys):
        code, out = run_cli(capsys, "recover", "--p", "1", "--q", "1")
        assert code == OK
        assert json.loads(out)["outcome"]["d"] == 0

    def test_cs_suite_refuses_a_window(self, capsys):
        code = cli.main(["experiment", "--suite", "cs", "--trials", "3", "--primes", "3..50"])
        assert code == USAGE_ERROR
        assert "--primes does not apply" in capsys.readouterr().err

    def test_cs_suite_refuses_a_window_in_the_library(self):
        from mwlab.experiments import run_suite
        from mwlab.numth import PrimeRange

        with pytest.raises(ValueError, match="draws its own primes"):
            run_suite("cs", 2, 0, PrimeRange(3, 50))


class TestRun:
    def test_support_check_violation(self, capsys):
        code, out = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8")
        assert code == VIOLATED
        report = json.loads(out)
        assert report["outcome"]["report"]["witness"]["v"] == 7

    def test_support_check_holds(self, capsys):
        code, out = run_cli(capsys, "support-check", "--xs", "2,3", "--ys", "2,3",
                            "--primes", "3..500")
        assert code == OK
        assert json.loads(out)["outcome"]["report"]["verdict"] == "holds_on_scan"

    def test_recover_found(self, capsys):
        code, out = run_cli(capsys, "recover", "--p", "2", "--q", "1024")
        assert code == OK
        assert json.loads(out)["outcome"]["d"] == 10

    def test_recover_absent(self, capsys):
        code, out = run_cli(capsys, "recover", "--p", "2", "--q", "3")
        assert code == VIOLATED
        assert json.loads(out)["outcome"]["d"] is None

    def test_recover_exit_codes(self, capsys):
        # Running out of primes is inconclusive; a Q outside <P> is refuted.
        code, out = run_cli(capsys, "recover", "--p", "2", "--q", "1024", "--primes", "3..7")
        assert code == INCONCLUSIVE
        assert json.loads(out)["outcome"] == {
            "d": None, "detail": "scan exhausted at 7 without a verified lift"
        }
        code, out = run_cli(capsys, "recover", "--p", "2", "--q", "3", "--primes", "3..7")
        assert code == VIOLATED
        assert json.loads(out)["outcome"]["detail"].startswith("Q is outside")

    def test_find_primes(self, capsys):
        code, out = run_cli(
            capsys, "find-primes", "--points", "2,3", "--l", "5", "--ks", "1,0",
            "--primes", "3..1000", "--max-hits", "3",
        )
        assert code == OK
        hits = json.loads(out)["outcome"]["hits"]
        assert hits[0] == {"v": 41, "orders": [20, 8], "verified": True}

    def test_find_primes_empty_is_inconclusive(self, capsys):
        code, out = run_cli(
            capsys, "find-primes", "--points", "2", "--l", "2", "--ks", "30",
            "--primes", "3..100",
        )
        assert code == INCONCLUSIVE
        assert json.loads(out)["outcome"]["hits"] == []

    def test_density_flag(self, capsys):
        code, out = run_cli(
            capsys, "find-primes", "--points", "2", "--l", "2", "--ks", "0",
            "--primes", "3..2000", "--density",
        )
        assert code == OK
        density = json.loads(out)["outcome"]["density"]
        assert 0 < density["ratio"] < 1

    def test_replay(self, capsys):
        code, out = run_cli(
            capsys, "replay", "--p", "2", "--qs", "3", "--l", "5", "--primes", "3..1000"
        )
        assert code == OK
        assert json.loads(out)["outcome"]["witness"]["v"] == 31

    def test_replay_absent(self, capsys):
        code, out = run_cli(
            capsys, "replay", "--p", "2", "--qs", "4", "--l", "5", "--primes", "3..1000"
        )
        assert code == INCONCLUSIVE

    def test_detect_multiplicative(self, capsys):
        code, out = run_cli(
            capsys, "detect", "--points", "360", "--lambda", "6,10", "--primes", "7..5000"
        )
        assert code == OK
        report = json.loads(out)
        assert report["outcome"]["certificate"]["alpha"] == 1

    def test_detect_violated(self, capsys):
        code, out = run_cli(
            capsys, "detect", "--points", "7", "--lambda", "6,10", "--primes", "7..5000"
        )
        assert code == VIOLATED

    @pytest.mark.parametrize("argv, index, lambdas", [
        (("--points", "1", "--lambda", "2"), 0, [0]),
        (("--points", "O", "--lambda", "(0,0)", *EC37), 0, [0]),
        (("--points", "2,1", "--lambda", "3,5"), 1, [0, 0]),
        (("--points", "(0,0),O", "--lambda", "(1,0)", "--backend", "ec:0,1,1,-2,0"), 1, [0]),
    ], ids=["qstar", "37a", "qstar-after-a-refusal", "rank2-after-an-exhausted-search"])
    def test_detect_certifies_the_identity(self, capsys, argv, index, lambdas):
        # The identity lies in every subgroup: alpha = 1 with every lambda 0,
        # before the oracle (which refuses it) or the bounded search is asked.
        code, out = run_cli(capsys, "detect", *argv, "--primes", "3..30")
        assert code == OK
        outcome = json.loads(out)["outcome"]
        assert outcome["certificate"] == {
            "kind": "membership", "index": index, "alpha": 1, "lambdas": lambdas,
            "residual_torsion": None,
        }
        assert (outcome["certified_index"], outcome["note"]) == (index, None)

    def test_cs_check_scan(self, capsys):
        code, out = run_cli(capsys, "cs-check", "--x", "4", "--y", "2", "--primes", "3..500")
        assert code == VIOLATED
        report = json.loads(out)["outcome"]["report"]
        assert report["condition_id"] == "corrales_schoof"
        assert (report["witness"]["v"], report["witness"]["n"]) == (3, 1)
        code, out = run_cli(capsys, "cs-check", "--x", "2", "--y", "4", "--primes", "3..500")
        assert code == OK
        assert json.loads(out)["outcome"]["report"]["verdict"] == "holds_on_scan"

    def test_experiment_zero_trials(self, capsys):
        code, out = run_cli(capsys, "experiment", "--suite", "erdos", "--trials", "0")
        assert code == OK
        agg = json.loads(out)["outcome"]["experiment"]
        assert agg["trials"] == 0 and agg["rows"] == []

    def test_experiment_cs(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--suite", "cs", "--trials", "25", "--seed", "7"
        )
        assert code == OK
        agg = json.loads(out)["outcome"]["experiment"]
        assert agg["agreements"] == 25

    def test_experiment_ec_detect(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--suite", "ec-detect", "--trials", "6", "--seed", "3"
        )
        assert code == OK
        agg = json.loads(out)["outcome"]["experiment"]
        assert agg["anomalies"] == 0 and len(agg["rows"]) == 6


class TestVerifyMode:
    def test_reproduces_witness(self, capsys):
        code, out = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8",
                            "--verify", "7:1")
        assert code == OK
        assert json.loads(out)["outcome"]["verify"]["reproduced"] is True

    def test_rejects_wrong_witness(self, capsys):
        code, out = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8",
                            "--verify", "11:1")
        assert code == INTERNAL_ERROR
        assert json.loads(out)["outcome"]["verify"]["reproduced"] is False

    @pytest.mark.parametrize(
        "argv, err",
        [
            pytest.param(("support-check", "--xs", "2", "--ys", "8", "--verify", "9:2"),
                         "--verify prime 9 is not prime", id="composite"),
            pytest.param(("support-check", "--xs", "2", "--ys", "8", "--verify", "0:1"),
                         "--verify prime 0 is not prime", id="zero"),
            pytest.param(("cs-check", "--x", "2", "--y", "4", "--verify", "2:1"),
                         "--verify prime 2 is a bad prime for these points", id="bad-prime"),
            pytest.param(("support-check", "--xs", "2", "--ys", "8", "--verify", "7:0"),
                         "--verify n must be >= 1, got 0", id="n-zero"),
            pytest.param(("detect", "--backend", "ec:0,0,1,-1,0", "--points", "(0,0)", "--lambda",
                          "(1,-1)", "--primes", "3..300", "--verify", "5:-4"),
                         "--verify n must be >= 1, got -4", id="n-negative"),
            # psi_12, a strong pseudoprime to the prime bases up to 37.
            pytest.param(("support-check", "--xs", "2", "--ys", "3", "--verify",
                          "318665857834031151167461:1"),
                         "--verify prime 318665857834031151167461 is not prime", id="psi-12"),
            # psi_13, from which on is_prime is not proven exact.
            pytest.param(("support-check", "--xs", "2", "--ys", "3", "--verify",
                          "3317044064679887385961981:1"),
                         "--verify prime 3317044064679887385961981 is not below "
                         "3317044064679887385961981, the proven bound", id="psi-13"),
            # A bad prime: each re-check refuses it, and the CLI says so.
            pytest.param(("support-check", "--xs", "2", "--ys", "9", "--verify", "3:1"),
                         "--verify prime 3 is a bad prime for these points", id="bad-prime-support"),
            pytest.param(("cs-check", "--backend", "ec:0,0,1,-1,0", "--x", "(0,0)", "--y", "(1,0)",
                          "--verify", "37:1"),
                         "--verify prime 37 is a bad prime for these points", id="bad-prime-cs-37a"),
            pytest.param(("detect", "--points", "6", "--lambda", "2", "--verify", "3:1"),
                         "--verify prime 3 is a bad prime for these points", id="bad-prime-detect"),
            # A denominator 4 on 37a: 2 is a bad prime for this point only.
            pytest.param(("detect", "--backend", "ec:0,0,1,-1,0", "--points", "(1/4,-5/8)",
                          "--lambda", "(0,0)", "--verify", "2:1"),
                         "--verify prime 2 is a bad prime for these points", id="bad-prime-detect-37a"),
            pytest.param(("replay", "--p", "2", "--qs", "3", "--l", "5", "--verify", "3:1"),
                         "--verify prime 3 is a bad prime for these points", id="bad-prime-replay"),
            pytest.param(("replay", "--backend", "ec:0,0,1,-1,0", "--p", "(0,0)", "--qs", "(1,0)",
                          "--l", "5", "--verify", "37:1"),
                         "--verify prime 37 is a bad prime for these points", id="bad-prime-replay-37a"),
        ],
    )
    def test_rejects_invalid_witness_input(self, capsys, argv, err):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == f"usage error: {err}\n"

    def test_replay_witness_reverifies(self, capsys):
        # replay witnesses are rechecked as thm2 violations.
        base = ("replay", "--p", "2", "--qs", "3", "--l", "5", "--primes", "3..1000")
        w = json.loads(run_cli(capsys, *base)[1])["outcome"]["witness"]
        code, out = run_cli(capsys, *base, "--verify", f"{w['v']}:{w['n']}")
        assert code == OK
        assert json.loads(out)["outcome"]["verify"] == {"v": 31, "n": 5, "reproduced": True}
        code, out = run_cli(capsys, *base, "--verify", "31:3")
        assert code == INTERNAL_ERROR
        assert json.loads(out)["outcome"]["verify"]["reproduced"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ("find-primes", "--points", "2", "--l", "5", "--ks", "1"),
            ("recover", "--p", "2", "--q", "1024"),
            ("experiment", "--suite", "cs", "--trials", "3"),
        ],
        ids=["find-primes", "recover", "experiment"],
    )
    def test_commands_without_witnesses_refuse_verify(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--verify", "5:1")
        assert code == USAGE_ERROR
        assert out == ""

    def test_elliptic_witness_checks_n(self, capsys):
        base = ("detect", "--backend", "ec:0,0,1,-1,0", "--points", "(0,0)",
                "--lambda", "(1,-1)", "--primes", "3..300")
        code, out = run_cli(capsys, *base)
        w = json.loads(out)["outcome"]["report"]["witness"]
        assert (w["v"], w["n"]) == (5, 4)
        assert run_cli(capsys, *base, "--verify", "5:4")[0] == OK
        for n in (1, 3, 7):
            code, out = run_cli(capsys, *base, "--verify", f"5:{n}")
            assert code == INTERNAL_ERROR
            assert json.loads(out)["outcome"]["verify"]["reproduced"] is False

    def test_emitted_witness_reverifies_via_flag(self, capsys):
        code, out = run_cli(capsys, "support-check", "--xs", "6", "--ys", "12")
        w = json.loads(out)["outcome"]["report"]["witness"]
        code2, out2 = run_cli(
            capsys, "support-check", "--xs", "6", "--ys", "12",
            "--verify", f"{w['v']}:{w['n']}",
        )
        assert code2 == OK


class TestFormats:
    def test_csv(self, capsys):
        code, out = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "condition_id,verdict,v,n,detail"
        assert lines[1].startswith("erdos_union,violated,7,1,")

    def test_text(self, capsys):
        _, out = run_cli(capsys, "recover", "--p", "2", "--q", "1024", "--format", "text")
        assert "found" in out

    @pytest.mark.parametrize(
        "argv, csv_row, text",
        [
            (
                ("replay", "--p", "2", "--qs", "3", "--l", "5", "--primes", "3..1000"),
                "replay,found,31,5,ord_v(P)=5 with ord_v(Q_i)=[30]; n=5 kills P mod 31 "
                "and kills no Q_i (5 divides every ord_v(Q_i))",
                "replay [mul]\n  primes 3..1000\n  replay: found\n  witness v=31 n=5\n"
                "  ord_v(P)=5 with ord_v(Q_i)=[30]; n=5 kills P mod 31 and kills no Q_i "
                "(5 divides every ord_v(Q_i))",
            ),
            (
                ("replay", "--p", "2", "--qs", "4", "--l", "5", "--primes", "3..1000"),
                "replay,absent,,,",
                "replay [mul]\n  primes 3..1000\n  replay: absent",
            ),
            (
                ("find-primes", "--points", "2,3", "--l", "5", "--ks", "1,0",
                 "--primes", "3..1000", "--max-hits", "3"),
                'find-primes,hits=3,,,"v=41 orders=[20, 8]; v=491 orders=[490, 49]; '
                'v=661 orders=[660, 22]"',
                "find-primes [mul]\n  primes 3..1000\n  find-primes: hits=3\n"
                "  v=41 orders=[20, 8]; v=491 orders=[490, 49]; v=661 orders=[660, 22]",
            ),
            (
                ("find-primes", "--points", "2", "--l", "2", "--ks", "30", "--primes", "3..100"),
                "find-primes,hits=0,,,",
                "find-primes [mul]\n  primes 3..100\n  find-primes: hits=0",
            ),
            (
                ("find-primes", "--points", "2", "--l", "2", "--ks", "0",
                 "--primes", "3..2000", "--density"),
                "find-primes,measured,,,hits=91 good_primes=302 ratio=0.30132450331125826",
                "find-primes [mul]\n  primes 3..2000\n  find-primes: measured\n"
                "  hits=91 good_primes=302 ratio=0.30132450331125826",
            ),
            (
                ("find-primes", "--points", "2", "--l", "2", "--ks", "30",
                 "--primes", "3..100", "--density"),
                "find-primes,inconclusive,,,hits=0 good_primes=24 ratio=0.0",
                "find-primes [mul]\n  primes 3..100\n  find-primes: inconclusive\n"
                "  hits=0 good_primes=24 ratio=0.0",
            ),
            (
                ("recover", "--p", "2", "--q", "1024"),
                "recover,found,,,d=10; verified exactly with modulus 60",
                "recover [mul]\n  primes 3..10000\n  recover: found\n"
                "  d=10; verified exactly with modulus 60",
            ),
            (
                ("recover", "--p", "2", "--q", "3"),
                "recover,absent,,,Q is outside the cyclic group generated by P mod 7",
                "recover [mul]\n  primes 3..10000\n  recover: absent\n"
                "  Q is outside the cyclic group generated by P mod 7",
            ),
            (
                ("support-check", "--xs", "2", "--ys", "8", "--verify", "7:1"),
                "support-check,reproduced,7,1,",
                "support-check [mul]\n  primes 3..10000\n  support-check: reproduced\n"
                "  witness v=7 n=1",
            ),
            (
                ("cs-check", "--x", "2", "--y", "4", "--verify", "7:3"),
                "cs-check,NOT-reproduced,7,3,",
                "cs-check [mul]\n  primes 3..10000\n  cs-check: NOT-reproduced\n"
                "  witness v=7 n=3",
            ),
            (
                ("experiment", "--suite", "erdos", "--trials", "2", "--seed", "3"),
                "experiment:erdos,anomalies=0,,,trials=2",
                "experiment [mul]\n  experiment:erdos: anomalies=0\n  trials=2",
            ),
            (
                ("detect", *EC37, "--points", "(0,0)", "--lambda", "(0,0)", "--primes", "3..200"),
                "detect,holds_on_scan,,,certificate alpha=1 lambdas=[1] index=0",
                "detect [ec:0,0,1,-1,0]\n  primes 3..200\n  detect: holds_on_scan\n"
                "  certificate alpha=1 lambdas=[1] index=0",
            ),
            (
                ("detect", *EC37, "--points", P21, "--lambda", "(0,0)", "--primes", "3..200"),
                "detect,holds_on_scan,,,inconclusive (elliptic bounded search exhausted "
                "at |coefficients| <= 20)",
                "detect [ec:0,0,1,-1,0]\n  primes 3..200\n  detect: holds_on_scan\n"
                "  inconclusive (elliptic bounded search exhausted at |coefficients| <= 20)",
            ),
            (
                ("detect", "--points", "2", "--lambda", "3"),
                "detect,violated,11,5,no P_i lies in the reduced subgroup at 11; n=5 kills "
                "every generator mod 11 while ord_v(P_i)=[10]",
                "detect [mul]\n  primes 3..10000\n  detect: violated\n  witness v=11 n=5\n"
                "  no P_i lies in the reduced subgroup at 11; n=5 kills every generator "
                "mod 11 while ord_v(P_i)=[10]",
            ),
        ],
        ids=["witness", "no-witness", "hits", "no-hits", "density", "density-empty",
             "d", "no-d", "verify", "verify-failed", "experiment", "detect-certified",
             "detect-exhausted", "detect-violated"],
    )
    def test_csv_and_text_pins(self, capsys, argv, csv_row, text):
        _, out = run_cli(capsys, *argv, "--format", "csv")
        assert out == "condition_id,verdict,v,n,detail\n" + csv_row + "\n"
        _, out = run_cli(capsys, *argv, "--format", "text")
        assert out == text + "\n"

    # Outcomes of one command with different exit codes, which csv and text
    # must tell apart without the exit code.
    OUTCOMES = {
        "detect": [
            (OK, ("detect", *EC37, "--points", "(0,0)", "--lambda", "(0,0)", "--primes", "3..200")),
            (INCONCLUSIVE, ("detect", *EC37, "--points", P21, "--lambda", "(0,0)",
                            "--primes", "3..200")),
            (VIOLATED, ("detect", "--points", "2", "--lambda", "3")),
        ],
        "recover": [
            (OK, ("recover", "--p", "2", "--q", "1024")),
            (VIOLATED, ("recover", "--p", "2", "--q", "3")),
            (INCONCLUSIVE, ("recover", "--p", "2", "--q", "1024", "--primes", "3..7")),
        ],
        "density": [
            (OK, ("find-primes", "--points", "2", "--l", "2", "--ks", "0",
                  "--primes", "3..2000", "--density")),
            (INCONCLUSIVE, ("find-primes", "--points", "2", "--l", "2", "--ks", "30",
                            "--primes", "3..100", "--density")),
        ],
        "hits": [
            (OK, ("find-primes", "--points", "2,3", "--l", "5", "--ks", "1,0",
                  "--primes", "3..1000", "--max-hits", "3")),
            (INCONCLUSIVE, ("find-primes", "--points", "2", "--l", "2", "--ks", "30",
                            "--primes", "3..100")),
        ],
        "replay": [
            (OK, ("replay", "--p", "2", "--qs", "3", "--l", "5", "--primes", "3..1000")),
            (INCONCLUSIVE, ("replay", "--p", "2", "--qs", "4", "--l", "5",
                            "--primes", "3..1000")),
        ],
        "verify": [
            (OK, ("support-check", "--xs", "2", "--ys", "8", "--verify", "7:1")),
            (INTERNAL_ERROR, ("support-check", "--xs", "2", "--ys", "8", "--verify", "11:1")),
        ],
    }

    @pytest.mark.parametrize("family", sorted(OUTCOMES))
    def test_exit_codes_render_apart(self, capsys, family):
        for fmt in ("csv", "text"):
            outs = []
            for expected, argv in self.OUTCOMES[family]:
                code, out = run_cli(capsys, *argv, "--format", fmt)
                assert code == expected
                outs.append(out)
            assert len(set(outs)) == len(outs)

    def test_json_roundtrip(self, capsys):
        _, out = run_cli(capsys, "detect", "--points", "360", "--lambda", "6,10",
                         "--primes", "7..2000")
        json.loads(out)


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys):
        a = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8")[1]
        b = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8")[1]
        assert a == b

    def test_worker_count_invisible(self, capsys):
        outs = set()
        for w in ("1", "2", "8"):
            outs.add(
                run_cli(
                    capsys, "support-check", "--xs", "6,10", "--ys", "6,10",
                    "--primes", "3..3000", "--workers", w,
                )[1]
            )
        assert len(outs) == 1

    def test_experiment_seeded_determinism(self, capsys):
        a = run_cli(capsys, "experiment", "--suite", "erdos", "--trials", "3",
                    "--seed", "7")[1]
        b = run_cli(capsys, "experiment", "--suite", "erdos", "--trials", "3",
                    "--seed", "7", "--workers", "4")[1]
        assert a == b


# One command line per exit code, each run cold and in-process below.
EXITS = [
    (OK, ["support-check", "--xs", "2,3", "--ys", "3,2", "--primes", "3..100"]),
    (VIOLATED, ["support-check", "--xs", "2", "--ys", "8", "--primes", "3..100"]),
    (INCONCLUSIVE, ["find-primes", "--points", "2", "--l", "2", "--ks", "30",
                    "--primes", "3..100"]),
    (USAGE_ERROR, ["support-check", "--xs", "2", "--ys", "1"]),
    (INTERNAL_ERROR, ["support-check", "--xs", "2", "--ys", "8", "--verify", "11:1"]),
]


def test_module_entry_point(capsys):
    # The process entry freezes the heap before the interpreter exits; the
    # code, the report bytes and stderr are what cli.main gives in-process,
    # and cli.main itself freezes nothing.
    for module, (code, argv) in itertools.product(("mwlab", "mwlab.cli"), EXITS):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, cwd="src"
        )
        frozen = gc.get_freeze_count()
        assert cli.main(argv) == code
        assert gc.get_freeze_count() == frozen
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out.encode(), captured.err.encode()), (module, argv)


def test_the_entry_freezes_the_heap():
    script = ("import gc, sys; from mwlab.cli import entry; "
              "code = entry(); print(code, gc.get_freeze_count() > 0, file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-c", script, *EXITS[0][1]], capture_output=True, text=True, cwd="src"
    )
    assert proc.stderr.endswith("0 True\n")


def test_closed_stdout_is_an_io_error(capsys, monkeypatch):
    # The verdict holds, but the reader is gone before the report is
    # written: exit 74, not 1, and no traceback, cold or in-process.
    argv = ["support-check", "--xs", "2,3,5", "--ys", "5,3,2", "--primes", "3..200"]
    for module in ("mwlab", "mwlab.cli"):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv],
                stdout=w,
                stderr=subprocess.PIPE,
                text=True,
                cwd="src",
            )
            # In-process the report goes to the same pipe, through a stream
            # of its own, so 74 points that descriptor, not fd 1, at devnull.
            with open(w, "w", closefd=False) as stream, monkeypatch.context() as m:
                m.setattr(sys, "stdout", stream)
                assert cli.main(argv) == IO_ERROR
        finally:
            os.close(w)
        assert proc.returncode == IO_ERROR
        assert proc.stderr == capsys.readouterr().err == (
            "mwlab: support-check scanning primes 3..200\n")
