import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from pdeg import cli
from pdeg.probpoly import recipe_from_json


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestParseEps:
    def test_fraction_form(self):
        assert cli.parse_eps("1/8") == Fraction(1, 8)

    def test_power_form(self):
        assert cli.parse_eps("2^-20") == Fraction(1, 1 << 20)

    def test_decimal_form(self):
        assert cli.parse_eps("0.25") == Fraction(1, 4)

    @pytest.mark.parametrize("bad", ["0", "1", "3/2", "abc", "2^20", "-1/4"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cli.parse_eps(bad)


class TestAnalyze:
    def test_named_majority(self, capsys):
        code, payload, err = run_cli(
            capsys, ["analyze", "--kind", "MAJ", "--n", "6", "--field", "2"]
        )
        assert code == 0
        assert payload["command"] == "analyze"
        assert payload["period"] == 7
        assert payload["decomposition"]["g"] == "0100100"
        assert payload["decomposition"]["h"] == "0100011"
        assert "period=7" in err

    def test_spectrum_file(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("0111\n")
        code, payload, _ = run_cli(capsys, ["analyze", "--spectrum", str(path)])
        assert code == 0
        assert payload["spectrum"] == "0111"
        assert payload["n"] == 3

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        code, payload, _ = run_cli(
            capsys, ["analyze", "--spectrum", str(tmp_path / "nope.txt")]
        )
        assert code == 2
        assert payload["error"]["type"] in ("OSError", "FileNotFoundError")

    def test_no_input_given(self, capsys):
        code, payload, _ = run_cli(capsys, ["analyze"])
        assert code == 2
        assert payload["error"]["type"] == "ValueError"

    def test_kind_with_params(self, capsys):
        code, payload, _ = run_cli(
            capsys, ["analyze", "--kind", "ETHR", "--n", "6", "--params", "3"]
        )
        assert code == 0
        assert payload["spectrum"] == "0001000"

    def test_kind_with_wrong_param_count(self, capsys):
        code, payload, _ = run_cli(
            capsys, ["analyze", "--kind", "MAJ", "--n", "6", "--params", "3"]
        )
        assert code == 2
        assert payload["error"]["type"] == "ValueError"
        assert "MAJ takes no parameters" in payload["error"]["message"]

    def test_byte_identical_reruns(self, capsys):
        argv = ["analyze", "--kind", "MAJ", "--n", "8"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")


class TestConstruct:
    def test_exact_small(self, capsys):
        code, payload, err = run_cli(
            capsys,
            ["construct", "--kind", "OR", "--n", "8", "--eps", "1/8",
             "--field", "2"],
        )
        assert code == 0
        assert payload["targets"] == ["011111111"]
        assert payload["recipe"]["n"] == 8
        assert "declared degree bound" in err

    def test_threshold_tuple_request(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["construct", "--n", "40", "--thresholds", "2", "--eps", "1/8",
             "--field", "2"],
        )
        assert code == 0
        assert payload["recipe"]["params"]["branch"] == "hash"

    def test_thresholds_need_n(self, capsys):
        code, payload, _ = run_cli(
            capsys, ["construct", "--thresholds", "2", "--eps", "1/8"]
        )
        assert code == 2
        assert "requires --n" in payload["error"]["message"]


class TestSample:
    def test_exact_values_match_target(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["sample", "--kind", "MAJ", "--n", "6", "--eps", "1/8",
             "--field", "2"],
        )
        assert code == 0
        (component,) = payload["components"]
        assert component["values"] == ["0", "0", "0", "0", "1", "1", "1"]

    def test_seed_determinism(self, capsys):
        argv = ["sample", "--n", "40", "--thresholds", "2", "--eps", "1/8",
                "--field", "2", "--seed", "3"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_draw(self, capsys):
        base = ["sample", "--n", "40", "--thresholds", "2", "--eps", "1/8",
                "--field", "2"]
        cli.main(base + ["--seed", "0"])
        first = capsys.readouterr().out
        cli.main(base + ["--seed", "1"])
        second = capsys.readouterr().out
        assert first != second


# sha256 of `pdeg sample --kind K --n 60 --eps 1/8 --field F` stdout, recorded
# while each value was still computed by one eval_expr call per point.  The
# OR digests were re-recorded when all-ones threshold tuples took one
# disjunction per draw in place of the hashed branch.
SAMPLE_DIGESTS = {
    ("MAJ", "2"): "6f22d31cea0c2414c5b2f2fe8f5e8b79a6aec1605d6365c75b891273ce66f8b3",
    ("MAJ", "3"): "84963018ecf97624d612c11c4e45773b47151cb59b7d832a93058ea4af860df4",
    ("MAJ", "0"): "8e43b2ac761587bea35d20a3abc67ee243ce0dfb1c8abf1af4866491e0db32bd",
    ("OR", "2"): "0133d2b63816208cf068e5aa73960f2590480023cb66188d96f541671f2a16bf",
    ("OR", "3"): "6a654c5b1e061e1e355fbf5e0f3edcec0a125cb2e298443751a5aa89beca8d1d",
    ("OR", "0"): "df2a92798febda10abc5abb02ca583bc7fdc89d0113e62b153b4bcd9c1490af5",
    ("MOD 3 0", "2"): "1cea4d553d4f7e4e4aa02bb17c8d6841ca0d48b4e5d7be5ba4114bc0aabfd671",
    ("MOD 3 0", "3"): "bd5537e5bc9b48857454420aeaca7f3ac75b0286dd542e7a22973b473a11ef5e",
    ("MOD 3 0", "0"): "6f11d28993ed0c54b86a3b1cbffe6ee562b6f9a2c2ad457c8878783b9685c9fa",
    ("THR 10", "2"): "13b8f1f0a6f42afc013aec2d3c7e1853cc90885ccc1a75da531f846ba1d3a534",
    ("THR 10", "3"): "aab082e05600376469839fe2b12c27449ee0bc27bea4308a5daf49be3e1c2e86",
    ("THR 10", "0"): "b90a9d6fb140b825346e802ec94093a069d14d631f852ffd690c424ed241e5a4",
}


@pytest.mark.parametrize("family, field", sorted(SAMPLE_DIGESTS))
def test_sample_stdout_is_byte_identical(capsys, family, field):
    kind, *params = family.split()
    argv = ["sample", "--kind", kind, "--n", "60", "--eps", "1/8", "--field", field]
    if params:
        argv += ["--params", *params]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[family, field]


# sha256 of `pdeg reduce --reduction R ... --check` stdout, recorded while
# certificates were still checked through Spectrum objects and _mask.
REDUCE_CASES = {
    "mod": (
        ["--kind", "MOD", "--n", "300", "--params", "6", "1", "--field", "5"],
        "eaa05d178855ef20eddf9dce862e87f0556b29f180b59c4b35c2cae675bb4834",
    ),
    "thr": (
        ["--n", "1000", "--thresholds", "158"],
        "3b11c36d1eec39690d91d82288447a8747859610e388c1328826cfeb8a6c2f4c",
    ),
    "maj-periodic": (
        ["--kind", "MOD", "--n", "2000", "--params", "64", "0", "--field", "2",
         "--eps", "1/8"],
        "ab61f5848cc545f7d10f3692bc48505e04242a24266ee2f0883598f0948b13ea",
    ),
    # A random spectrum (random.Random(240), n = 240) needs three picks.
    "maj-general": (
        ["--spectrum", "{random240}", "--field", "3"],
        "d6575dbc99276cd28780b673ad57c6f89790f247656320593b5a9e419f4b1c22",
    ),
    # AND reflects to NOR, so the certificate's source is reflected.
    "thr-complement": (
        ["--kind", "AND", "--n", "600"],
        "11737546c3f5c17ce143d3501c286ddcbb977e3f66ba7234ca6624ddb482f5d3",
    ),
}


@pytest.mark.parametrize("reduction", sorted(REDUCE_CASES))
def test_reduce_stdout_is_byte_identical(capsys, tmp_path, reduction):
    rng = random.Random(240)
    path = tmp_path / "random240.txt"
    path.write_text("".join(str(rng.randint(0, 1)) for _ in range(241)) + "\n")
    args, digest = REDUCE_CASES[reduction]
    args = [a.format(random240=path) for a in args]
    assert cli.main(["reduce", "--reduction", reduction, *args, "--check"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_randomness_free_passes(self, capsys):
        code, payload, err = run_cli(
            capsys,
            ["verify", "--kind", "MAJ", "--n", "8", "--eps", "1/8",
             "--field", "2"],
        )
        assert code == 0
        assert payload["report"]["mode"] == "single-draw"
        assert payload["report"]["passed"] is True
        assert payload["exact_error"] == ["0"] * 9
        assert "PASS" in err

    def test_sampled_recipe(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--n", "40", "--thresholds", "2", "--eps", "1/8",
             "--field", "2", "--trials", "60"],
        )
        assert code == 0
        assert payload["report"]["mode"] == "stratified"
        assert payload["report"]["trials"] == 60
        assert payload["exact_error"] is None

    def test_jobs_do_not_change_output(self, capsys, monkeypatch):
        # --jobs is capped at the CPU count; keep two jobs legal anywhere.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        base = ["verify", "--n", "40", "--thresholds", "2", "--eps", "1/8",
                "--field", "2", "--trials", "40"]
        cli.main(base)
        first = json.loads(capsys.readouterr().out)
        cli.main(base + ["--jobs", "2"])
        second = json.loads(capsys.readouterr().out)
        assert first["report"]["per_weight"] == second["report"]["per_weight"]

    @pytest.mark.parametrize(
        "extra", [["--trials", "0"], ["--trials", "-3"], ["--jobs", "0"]]
    )
    def test_rejects_counts_below_one(self, capsys, extra):
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--thresholds", "3", "7", "--n", "100", "--field", "2",
             "--eps", "1/8"] + extra,
        )
        assert code == 2
        assert payload["error"]["type"] == "ValueError"

    def test_rejects_jobs_above_cpu_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr("pdeg.verify.ProcessPoolExecutor", no_pool)
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--n", "40", "--thresholds", "2", "--eps", "1/8",
             "--field", "2", "--trials", "40", "--jobs", "4"],
        )
        assert code == 2
        assert "4" in payload["error"]["message"]


class TestExtremeParameters:
    def test_error_parameter_past_the_digit_limit(self, capsys):
        for field, k in (("0", 100000), ("2", 20000)):
            code, payload, _ = run_cli(
                capsys,
                ["construct", "--kind", "OR", "--n", "40", "--eps", f"2^-{k}",
                 "--field", field],
            )
            assert code == 0, payload
            assert payload["recipe"]["eps"] == f"2^-{k}"
            assert recipe_from_json(payload["recipe"]).eps == Fraction(1, 1 << k)
        code, payload, _ = run_cli(
            capsys,
            ["verify", "--kind", "OR", "--n", "12", "--eps", "2^-20000",
             "--field", "2", "--trials", "2"],
        )
        assert code == 0, payload
        assert payload["report"]["eps"] == payload["recipe"]["eps"] == "2^-20000"
        assert payload["exact_error"] == ["0"] * 13

    def test_large_prime_fields_are_decided_quickly(self):
        # Run in a child with a time limit: trial division up to sqrt(p)
        # would never finish.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=package_root)
        base = [sys.executable, "-m", "pdeg.cli", "analyze", "--kind", "MAJ", "--n", "5"]
        cases = [
            (2**61 - 1, 0),
            (318665857834031151167461, 2),  # strong pseudoprime to bases 2..37
            (2**89 - 1, 2),  # prime, but past the exact Miller-Rabin range
        ]
        for p, want in cases:
            proc = subprocess.run(
                base + ["--field", str(p)], capture_output=True, text=True,
                env=env, timeout=30,
            )
            assert proc.returncode == want, (p, proc.stdout)
        # Pascal's triangle mod 10007 would hold about 5 * 10^7 entries; the
        # child's address space is capped so that cannot take the machine.
        proc = subprocess.run(
            [sys.executable, "-m", "pdeg.cli", "construct", "--kind", "MAJ",
             "--n", "20", "--eps", "1/8", "--field", "10007"],
            capture_output=True, text=True, env=env, timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert proc.returncode == 0, proc.stderr[-500:]


class TestReduce:
    def test_mod_with_check(self, capsys, tmp_path):
        path = tmp_path / "periodic.txt"
        path.write_text("".join("100110"[w % 6] for w in range(19)))
        code, payload, _ = run_cli(
            capsys,
            ["reduce", "--reduction", "mod", "--spectrum", str(path),
             "--field", "2", "--check"],
        )
        assert code == 0
        assert payload["checks"] == [True, True, True]
        assert len(payload["certificates"]) == 3
        assert payload["certificates"][0]["target"]["label"] == "MOD"

    def test_thr(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["reduce", "--reduction", "thr", "--n", "9", "--thresholds", "3"],
        )
        assert code == 0
        labels = [c["target"]["label"] for c in payload["certificates"]]
        assert labels == ["MAJ", "OR"]

    def test_thr_needs_thresholds(self, capsys):
        code, payload, _ = run_cli(
            capsys, ["reduce", "--reduction", "thr", "--n", "9"]
        )
        assert code == 2
        assert "thresholds" in payload["error"]["message"]

    def test_thr_takes_one_threshold(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["reduce", "--reduction", "thr", "--n", "20", "--thresholds", "3", "7"],
        )
        assert code == 2
        assert payload["error"]["type"] == "ValueError"
        assert "exactly one threshold" in payload["error"]["message"]

    def test_maj_periodic_needs_eps(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["reduce", "--reduction", "maj-periodic", "--kind", "MAJ",
             "--n", "12", "--field", "2"],
        )
        assert code == 2
        assert "--eps" in payload["error"]["message"]

    def test_maj_general(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["reduce", "--reduction", "maj-general", "--kind", "MAJ",
             "--n", "18", "--field", "2", "--check"],
        )
        assert code == 0
        assert payload["checks"] == [True]

    def test_thr_complement(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["reduce", "--reduction", "thr-complement", "--kind", "CONST",
             "--n", "18", "--params", "0"],
        )
        # NOR is not CONST; expect a clean rejection for a constant input
        assert code == 2
        assert payload["error"]["type"] == "ValueError"


class TestBounds:
    def test_predicted(self, capsys):
        code, payload, err = run_cli(
            capsys,
            ["bounds", "--kind", "MAJ", "--n", "64", "--eps", "1/8",
             "--field", "2"],
        )
        assert code == 0
        assert payload["case"] == "per-not-p-power"
        assert "case" in err

    def test_audit_paper_profile(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["bounds", "--audit", "--t", str(10**11), "--eps", "2^-128",
             "--field", "2", "--profile", "paper"],
        )
        assert code == 0
        assert payload["ok"] is True
        assert len(payload["checks"]) == 5

    def test_audit_practical_profile_fails(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            ["bounds", "--audit", "--t", str(10**11), "--eps", "2^-128",
             "--field", "2", "--profile", "practical"],
        )
        assert code == 1
        assert payload["ok"] is False

    def test_audit_needs_t(self, capsys):
        code, payload, _ = run_cli(
            capsys, ["bounds", "--audit", "--eps", "2^-128"]
        )
        assert code == 2
        assert "--t" in payload["error"]["message"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "usage"

    def test_bad_eps_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["construct", "--kind", "OR", "--n", "4", "--eps", "zero"])
        assert exc.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "usage"


def test_package_exports_each_name_once():
    import pdeg

    assert len(pdeg.__all__) == len(set(pdeg.__all__))
    missing = [name for name in pdeg.__all__ if not hasattr(pdeg, name)]
    assert missing == []


class TestConsoleScript:
    def test_entry_point_runs(self):
        # The child finds pdeg where this process imported it, whatever the
        # caller's PYTHONPATH.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + (os.pathsep + path if path else "")
        proc = subprocess.run(
            [sys.executable, "-m", "pdeg.cli", "analyze", "--kind", "OR",
             "--n", "4"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["spectrum"] == "01111"

    def test_installed_script(self):
        proc = subprocess.run(
            ["pdeg", "bounds", "--kind", "MAJ", "--n", "16", "--eps", "1/8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["case"] == "per-not-p-power"
