import json
import subprocess
import sys

import pytest

from mwlab import cli
from mwlab.cli import INCONCLUSIVE, INTERNAL_ERROR, OK, USAGE_ERROR, VIOLATED, parse_args


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

    def test_bad_backend(self, capsys):
        code, _ = run_cli(capsys, "cs-check", "--x", "2", "--y", "4", "--backend", "weird")
        assert code == USAGE_ERROR

    @pytest.mark.parametrize(
        "backend",
        ["S={2,x}", "S={4}", "S={1}", "S={-3}", "ec:1,2,3", "ec:0,0,0,0,0", "ec:a,0,0,0,0"],
        ids=["s-set-entry", "s-set-composite", "s-set-one", "s-set-negative",
             "too-few-coefficients", "singular-curve", "non-integer-coefficient"],
    )
    def test_malformed_backend(self, capsys, backend):
        code = cli.main(["cs-check", "--x", "2", "--y", "4", "--backend", backend])
        assert code == USAGE_ERROR
        assert "bad --backend" in capsys.readouterr().err

    def test_non_integer_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MWLAB_WORKERS", "abc")
        code, _ = run_cli(capsys, "support-check", "--xs", "2", "--ys", "8")
        assert code == USAGE_ERROR

    def test_composite_replay_prime(self, capsys):
        code, _ = run_cli(capsys, "replay", "--p", "2", "--qs", "3", "--l", "4")
        assert code == USAGE_ERROR

    def test_pattern_length_mismatch(self, capsys):
        code, _ = run_cli(capsys, "find-primes", "--points", "2,3", "--l", "5", "--ks", "1")
        assert code == USAGE_ERROR

    def test_zero_max_hits(self, capsys):
        code, _ = run_cli(
            capsys, "find-primes", "--points", "2", "--l", "5", "--ks", "1", "--max-hits", "0"
        )
        assert code == USAGE_ERROR

    def test_negative_coeff_bound(self, capsys):
        code, _ = run_cli(
            capsys, "detect", "--points", "360", "--lambda", "6,10", "--coeff-bound", "-1"
        )
        assert code == USAGE_ERROR


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
        "argv",
        [
            ("support-check", "--xs", "2", "--ys", "8", "--verify", "9:2"),  # composite v
            ("support-check", "--xs", "2", "--ys", "8", "--verify", "0:1"),  # v = 0
            ("cs-check", "--x", "2", "--y", "4", "--verify", "2:1"),  # bad prime
            ("support-check", "--xs", "2", "--ys", "8", "--verify", "7:0"),  # n < 1
            ("detect", "--backend", "ec:0,0,1,-1,0", "--points", "(0,0)",
             "--lambda", "(1,-1)", "--primes", "3..300", "--verify", "5:-4"),  # n < 1
        ],
        ids=["composite", "zero", "bad-prime", "n-zero", "n-negative"],
    )
    def test_rejects_invalid_witness_input(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mwlab", "recover", "--p", "2", "--q", "32"],
        capture_output=True,
        text=True,
        cwd="src",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"]["d"] == 5
