import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cicy_bundles
from cicy_bundles import QUINTIC, chi_rank2, constructions, verify
from cicy_bundles.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChi:
    def test_quintic_pair(self, capsys):
        code, out, _ = run(capsys, "chi", "--threefold", "5", "--c1", "2", "--c2", "5")
        assert code == 0 and out.strip() == "10"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "chi", "--threefold", "5", "--c1", "0", "--c2", "0")
        assert code == 0 and out.strip() == "0"

    def test_x24(self, capsys):
        code, out, _ = run(capsys, "chi", "--threefold", "2,4", "--c1", "1", "--c2", "0")
        assert code == 0 and out.strip() == "6"

    def test_fraction_output(self, capsys):
        code, out, _ = run(capsys, "chi", "--threefold", "3,3", "--c1", "1", "--c2", "1")
        assert code == 0 and out.strip() == "11/2"

    def test_bad_threefold(self, capsys):
        code, _, err = run(capsys, "chi", "--threefold", "7", "--c1", "1", "--c2", "0")
        assert code == 2 and "valid multidegrees" in err

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["chi", "--threefold", "5", "--c1", "1"])
        assert exc.value.code == 2


class TestClassify:
    def test_x33_plain(self, capsys):
        code, out, _ = run(capsys, "classify", "--threefold", "3,3",
                           "--c1-max", "2", "--rank", "2")
        assert code == 0
        assert "admissible c2: 0 9 12 15 16 18" in out
        assert "unresolved: 16" in out

    def test_quintic_higher(self, capsys):
        code, out, _ = run(capsys, "classify", "--threefold", "5",
                           "--c1-max", "2", "--rank", "higher")
        assert code == 0
        assert "admissible c2: 0 5 10 15 20" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "classify", "--threefold", "5",
                           "--c1-max", "0", "--rank", "2")
        assert code == 0
        assert "admissible c2: 0" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "classify", "--threefold", "2,4",
                           "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["admissible_c2"] == [0, 4, 8, 11, 16]
        assert json.dumps(parsed, indent=2) == out.strip()

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "classify", "--threefold", "5",
                           "--format", "markdown")
        assert code == 0 and out.startswith("# Classification report")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", "--threefold", "3,3",
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_alias(self, capsys):
        code, out, _ = run(capsys, "classify", "--threefold", "X9")
        assert code == 0 and "0 9 12 15 16 18" in out

    def test_unsupported_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--threefold", "2,2,3")
        assert code == 2 and "no complete rank-2 classification" in err


class TestVerify:
    def test_module_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--module", "bounds")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert lines and all("bounds/" in l for l in lines)

    def test_all_reports_40_plus(self, capsys):
        code, out, _ = run(capsys, "verify", "--all")
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("PASS")) >= 40
        assert "0 failures" in out

    def test_module_checked_by_the_command(self, capsys):
        # the parser leaves --module unchecked, so building it imports no verify;
        # the command refuses an unknown module and names the valid ones
        code, out, err = run(capsys, "verify", "--module", "no-such-module")
        assert (code, out) == (2, "") and err.startswith("error:")
        assert "bounds" in err.split("valid modules:")[1].replace(",", " ").split()
        code, out, _ = run(capsys, "verify", "--module", "bounds")
        names = [name for mod, name, _ in verify.CHECKS if mod == "bounds"]
        assert code == 0 and [line.split(":")[0] for line in out.splitlines()] == [
            *(f"PASS bounds/{name}" for name in names), f"{len(names)} checks, 0 failures"]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0 and "--module" in capsys.readouterr().out

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        # a check that raises is reported, counted and named on the last line
        names = [name for mod, name, _ in verify.CHECKS if mod == "chow"]

        def broken():
            raise verify.CheckFailure("broken on purpose")

        monkeypatch.setattr(verify, "CHECKS", [
            (mod, name, broken if name == names[0] else fn) for mod, name, fn in verify.CHECKS])
        code, out, _ = run(capsys, "verify", "--module", "chow")
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == f"FAIL chow/{names[0]}: CheckFailure: broken on purpose"
        assert lines[-2:] == [f"{len(names)} checks, 1 failures", f"failing: chow/{names[0]}"]

    def test_all_under_optimize(self):
        # python -O strips asserts: every check must still run and pass
        src = str(Path(cicy_bundles.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-O", "-m", "cicy_bundles", "verify", "--all"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.splitlines()[-1] == f"{len(verify.CHECKS)} checks, 0 failures"


class TestQuery:
    @pytest.mark.parametrize("argv, expected", [
        (("query", "pi", "--d", "14", "--r", "5"), "15"),
        (("query", "pi1", "--d", "14", "--r", "5"), "13"),
        (("query", "hirzebruch-genus", "--e", "3", "--q", "0",
          "--class", "5,15"), "26"),
        (("query", "intersect", "--e", "1", "--q", "0",
          "--c1", "4,8", "--c2", "2,5"), "28"),
        (("query", "liaison", "--total", "24", "--omega", "3",
          "--target", "2", "--cut", "3"), "18"),
        (("query", "h0", "--threefold", "5", "--t", "2"), "15"),
    ])
    def test_values(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == expected

    def test_precondition_exits_2(self, capsys):
        code, _, err = run(capsys, "query", "pi", "--d", "2", "--r", "5")
        assert code == 2 and "degenerate for this span" in err

    def test_unsupported_refined_bound(self, capsys):
        code, _, err = run(capsys, "query", "pi1", "--d", "10", "--r", "5")
        assert code == 2 and "unsupported" in err


@pytest.mark.parametrize("argv, message", [
    (("classify", "--threefold", "5", "--c1-max", "3"), "c1_max must be between 0 and 2"),
    (("classify", "--threefold", "5", "--c1-max", "-1"), "c1_max must be between 0 and 2"),
    (("chi", "--threefold", "5,x", "--c1", "1", "--c2", "0"), "cannot parse threefold label"),
    (("query", "intersect", "--e", "1", "--c1", "1,2,3", "--c2", "2,5"),
     "divisor class must be 'a,b'"),
    (("query", "hirzebruch-genus", "--e", "1", "--class", "1"), "divisor class must be 'a,b'"),
], ids=["c1-max-3", "c1-max-negative", "threefold-label", "intersect-class", "genus-class"])
def test_bad_values_exit_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [("classify", "--threefold", "5"), ("registry",)],
                         ids=["classify", "registry"])
def test_unwritable_out_exits_2(capsys, tmp_path, command):
    code, _, err = run(capsys, *command, "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and err.startswith("error:")


class TestRegistryCommand:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "registry", "--validate")
        assert code == 0 and out.startswith("PASS")

    def test_validate_refuses_a_corrupted_entry(self, capsys, monkeypatch):
        # one entry's c2 off by one: the command names it on stderr and exits 1
        first, *rest = constructions.REGISTRY
        wrong = dataclasses.replace(first, c2=first.c2 + 1)
        monkeypatch.setattr(constructions, "REGISTRY", (wrong, *rest))
        code, out, err = run(capsys, "registry", "--validate")
        assert (code, out) == (1, "")
        assert err == (f"FAIL construction {first.name!r} on {first.threefold}: "
                       "failed checks ['c2']\n")

    def test_dump_stable_keys(self, capsys):
        code, out, _ = run(capsys, "registry")
        records = json.loads(out)
        assert list(records[0].keys()) == [
            "name", "threefold", "rank", "c1", "c2", "components", "ref",
        ]


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "cicy_bundles", "query", "pi", "--d", "16", "--r", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"


def test_chi_cold_start_loads_only_chow():
    # a cold start of `chi` imports the package, the CLI and the Chow-ring
    # kernel, and no other engine module; nor `dataclasses` or `inspect`,
    # unless the bare interpreter with the same environment loads them itself
    watched = ("dataclasses", "inspect")
    report = ("print(*sorted(m for m in sys.modules\n"
              f"             if m.startswith('cicy_bundles') or m in {watched!r}))\n")
    src = str(Path(cicy_bundles.__file__).parent.parent)

    def loaded(script):
        proc = subprocess.run([sys.executable, "-c", "import sys\n" + script + report],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        return proc.stdout.splitlines()

    (bare,) = loaded("")
    chi = loaded("from cicy_bundles import cli\n"
                 "cli.main(['chi', '--threefold', '5', '--c1', '2', '--c2', '5'])\n")
    expected = sorted(["cicy_bundles", "cicy_bundles.chow", "cicy_bundles.cli", *bare.split()])
    assert chi == ["10", " ".join(expected)]


def test_lax_mode_env(capsys, monkeypatch):
    # the quintic inside a hyperplane of P^5 answers as the quintic, unwarned
    monkeypatch.setenv("CICY_BUNDLES_LAX", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "chi", "--threefold", "1,5", "--c1", "2", "--c2", "5")
    assert code == 0 and out.strip() == str(chi_rank2(QUINTIC, 2, 5))


def test_lax_mode_refuses_unencoded_classification(capsys, monkeypatch):
    # lax mode admits 1,5 for chi and h0, but no rank-2 case tree is encoded
    # for it: a usage error with one line, not a traceback
    monkeypatch.setenv("CICY_BUNDLES_LAX", "1")
    code, out, err = run(capsys, "classify", "--threefold", "1,5")
    assert code == 2 and out == ""
    assert err.startswith("error: no complete rank-2 classification is encoded for 1,5")
    assert "Traceback" not in err and len(err.splitlines()) == 1
