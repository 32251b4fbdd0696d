"""CLI behaviour: exit codes, text output, and JSON schema conformance."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from wcikit import cli
from wcikit.hilbert import _MAX_SERIES_ORDER

X6 = "6/1,2,3"
X66 = "6,6/1^2,2^2,3^2"
X231 = "231,231,26/3^2,7^2,11^2,1^447"


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = resources.files("wcikit").joinpath("schemas").joinpath(name)
    return json.loads(path.read_text())


def validate(name, payload):
    jsonschema.validate(payload, load_schema(name), cls=jsonschema.Draft202012Validator)


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


# -- check --------------------------------------------------------------------


def test_check_text_and_assert(capsys):
    code, out, _ = run_cli(["check", X66], capsys)
    assert code == 0
    assert "well_formed: true" in out
    assert "type: calabi_yau" in out
    code, _, _ = run_cli(["check", X66, "--assert", "smooth"], capsys)
    assert code == 0
    code, _, _ = run_cli(["check", "8,8,8/2^3,3^4,5^3", "--assert", "quasi_smooth"], capsys)
    assert code == 1


def test_check_json_schema(capsys):
    for family in (X66, X231, "7/1,2,3", "2/2,1,1", "8,8,8/2^3,3^4,5^3"):
        code, out, _ = run_cli(["check", family, "--json"], capsys)
        assert code == 0
        validate("check.json", json.loads(out))


def test_check_json_nulls(capsys):
    _, out, _ = run_cli(["check", "2/2,1,1", "--json"], capsys)
    report = json.loads(out)
    assert report["linear_cone"] is True
    assert report["quasi_smooth"] is None and report["strata"] is None
    _, out, _ = run_cli(["check", "7/1,2,3", "--json"], capsys)
    report = json.loads(out)
    assert report["well_formed"] is False
    assert report["fundamental_index"] is None and report["type"] is None


def test_check_assert_undefined_field_is_domain_error(capsys):
    code, _, err = run_cli(["check", "2/2,1,1", "--assert", "smooth"], capsys)
    assert code == 3
    assert "error:" in err


def test_check_parse_error(capsys):
    code, _, err = run_cli(["check", "6//2"], capsys)
    assert code == 2
    assert "error:" in err


# -- pair ---------------------------------------------------------------------


def test_pair_text_witness(capsys):
    code, out, _ = run_cli(["pair", "4/2,6"], capsys)
    assert code == 0
    assert "h_regular: false" in out
    assert "witness: 2,6" in out


def test_pair_json_schema_and_split(capsys):
    code, out, _ = run_cli(
        ["pair", "6,6/2^2,3^2", "--h", "2", "--split", "3", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    validate("pair.json", report)
    assert report["split"]["prime"] == 3
    assert report["split"]["at_prime"] == "6,6/3^2"
    code, out, _ = run_cli(["pair", "4/2,6", "--json"], capsys)
    report = json.loads(out)
    validate("pair.json", report)
    assert report["witness"] == [2, 6]


def test_pair_assert_and_errors(capsys):
    assert run_cli(["pair", "6,6/2^2,3^2", "--assert", "regular"], capsys)[0] == 0
    assert run_cli(["pair", "4/2,6", "--assert", "h_regular"], capsys)[0] == 1
    assert run_cli(["pair", "6/2,3", "--split", "4"], capsys)[0] == 2
    assert run_cli(["pair", "6/2,3", "--h", "0"], capsys)[0] == 2
    assert run_cli(["pair", "6//2"], capsys)[0] == 2


def test_prime_over_ceiling_exits_2(capsys):
    # Trial division on 10^18 + 3 would run for minutes; both options refuse it.
    big = str(10**18 + 3)
    assert run_cli(["pair", "6/2,3", "--split", big], capsys)[0] == 2
    window = ["--max-codim", "1", "--max-vars", "2", "--max-weight", "4", "--max-degree", "4"]
    code, out, err = run_cli(["verify", "lemma-qdiv", "--q", big, *window], capsys)
    assert (code, out) == (2, "")
    assert f"prime candidate {big} exceeds ceiling 1000000000000" in err


# -- frobenius ------------------------------------------------------------------


def test_frobenius_text(capsys):
    assert run_cli(["frobenius", "2,3"], capsys)[1].strip() == "1"
    assert run_cli(["frobenius", "3,5"], capsys)[1].strip() == "7"


def test_frobenius_json_schema(capsys):
    code, out, _ = run_cli(["frobenius", "10,15,14,21", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    validate("frobenius.json", report)
    assert report["frobenius"] == 47
    assert report["brauer_bound"] == 61


def test_frobenius_errors(capsys):
    assert run_cli(["frobenius", "2,4"], capsys)[0] == 3  # shared factor: undefined
    assert run_cli(["frobenius", "2,x"], capsys)[0] == 2
    assert run_cli(["frobenius", ""], capsys)[0] == 2


def test_frobenius_over_ceiling_exits_2(capsys):
    code, out, err = run_cli(["frobenius", "1000003,1000033"], capsys)
    assert code == 2
    assert out == ""
    assert "exceeds ceiling" in err


# -- hilbert --------------------------------------------------------------------


def test_hilbert_csv(capsys):
    code, out, _ = run_cli(["hilbert", X6, "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,h0"
    assert [int(line.split(",")[1]) for line in lines[1:]] == [1, 1, 2, 3, 4, 5, 6, 7]


def test_hilbert_json_schema(capsys):
    code, out, _ = run_cli(["hilbert", X66, "4", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    validate("hilbert.json", report)
    assert report["coefficients"] == [1, 2, 5, 10, 18]
    assert report["formal"] is False
    _, out, _ = run_cli(["hilbert", "8,8,8/2^3,3^4,5^3", "4", "--json"], capsys)
    assert json.loads(out)["formal"] is True
    # a formal series can go negative and still matches the schema
    _, out, _ = run_cli(["hilbert", "5/2,2", "6", "--json"], capsys)
    report = json.loads(out)
    validate("hilbert.json", report)
    assert report["coefficients"] == [1, 0, 2, 0, 3, -1, 4]
    assert report["formal"] is True


def test_hilbert_negative_k(capsys):
    assert run_cli(["hilbert", X6, "-1"], capsys)[0] == 2


def test_hilbert_over_ceiling_exits_2(capsys):
    code, out, err = run_cli(["hilbert", X6, str(_MAX_SERIES_ORDER + 1)], capsys)
    assert code == 2
    assert out == ""
    assert "exceeds ceiling" in err


# -- base-locus -------------------------------------------------------------------


def test_base_locus_component(capsys):
    code, out, _ = run_cli(["base-locus", X231, "1"], capsys)
    assert code == 0
    assert "values=3,7,11" in out
    assert "family=231,231,26/11^2,7^2,3^2" in out
    assert run_cli(["base-locus", X231, "1", "--assert-empty"], capsys)[0] == 1


def test_base_locus_free(capsys):
    code, out, _ = run_cli(["base-locus", X6, "6"], capsys)
    assert code == 0
    assert out.strip() == "base-point free"
    assert run_cli(["base-locus", X6, "6", "--assert-empty"], capsys)[0] == 0


def test_base_locus_json_schema(capsys):
    for family, ell in ((X231, "1"), (X6, "6"), (X66, "1")):
        code, out, _ = run_cli(["base-locus", family, ell, "--json"], capsys)
        assert code == 0
        validate("base-locus.json", json.loads(out))
    assert run_cli(["base-locus", X6, "0"], capsys)[0] == 2


# -- enumerate --------------------------------------------------------------------


ENUM_ARGS = [
    "--max-codim", "1", "--max-vars", "3", "--max-weight", "3", "--max-degree", "6",
    "--quasi-smooth", "--well-formed", "--non-cone", "--fano", "--calabi-yau",
]


def test_enumerate_text(capsys):
    code, out, _ = run_cli(["enumerate", *ENUM_ARGS], capsys)
    assert code == 0
    assert out.splitlines() == ["2/1^2", "2/1^3", "3/1^3", "4/2,1^2", "6/3,2,1"]


def test_enumerate_json_schema(capsys):
    code, out, _ = run_cli(["enumerate", *ENUM_ARGS, "--json"], capsys)
    assert code == 0
    lines = json_lines(out)
    for line in lines:
        validate("enumerate-line.json", line)
    assert {line["instance"] for line in lines} == {
        "2/1^2", "2/1^3", "3/1^3", "4/2,1^2", "6/3,2,1"
    }
    code, out, _ = run_cli(
        ["enumerate", "--kind", "pairs", "--max-codim", "0", "--max-vars", "1",
         "--max-weight", "2", "--max-degree", "1", "--json"],
        capsys,
    )
    assert code == 0
    lines = json_lines(out)
    for line in lines:
        validate("enumerate-line.json", line)
    assert [line["instance"] for line in lines] == ["/1", "/2"]


def test_enumerate_pair_filters_rejected(capsys):
    code, _, err = run_cli(
        ["enumerate", "--kind", "pairs", "--max-codim", "1", "--max-vars", "2",
         "--max-weight", "2", "--max-degree", "2", "--smooth"],
        capsys,
    )
    assert code == 2 and "error:" in err


# -- verify -----------------------------------------------------------------------


VERIFY_ARGS = ["--max-codim", "2", "--max-vars", "4", "--max-weight", "8",
               "--max-degree", "16"]


def test_verify_text(capsys):
    code, out, _ = run_cli(["verify", "prop-regular", *VERIFY_ARGS], capsys)
    assert code == 0
    assert "claim: prop-regular" in out
    assert "checked: 621" in out
    assert "counterexamples: 0" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(["verify", "prop-regular", *VERIFY_ARGS, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    validate("verify.json", report)
    assert report["checked"] == 621
    code, out, _ = run_cli(
        ["verify", "lemma-qdiv", "--q", "3", "--max-codim", "2", "--max-vars", "3",
         "--max-weight", "9", "--max-degree", "12", "--json"],
        capsys,
    )
    validate("verify.json", json.loads(out))


def test_verify_csv(capsys):
    code, out, _ = run_cli(["verify", "prop-regular", *VERIFY_ARGS, "--csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,encoding,detail"
    witness_rows = [line for line in lines[1:] if line.startswith("witness,")]
    assert len(witness_rows) == 3


def test_verify_q_handling(capsys):
    assert run_cli(["verify", "lemma-qdiv", *VERIFY_ARGS], capsys)[0] == 2
    assert run_cli(["verify", "prop-regular", *VERIFY_ARGS, "--q", "2"], capsys)[0] == 2
    assert run_cli(["verify", "lemma-qdiv", *VERIFY_ARGS, "--q", "4"], capsys)[0] == 2


def test_verify_refuses_workers_below_one(capsys):
    for workers in ("0", "-1"):
        code, out, err = run_cli(
            ["verify", "prop-regular", *VERIFY_ARGS, "--workers", workers], capsys
        )
        assert code == 2
        assert out == ""
        assert "workers" in err


def test_verify_hypersurface_without_codim_one(capsys):
    code, out, _ = run_cli(
        ["verify", "hypersurface", "--max-codim", "0", "--max-vars", "3", "--max-weight", "3",
         "--max-degree", "4", "--workers", "1"],
        capsys,
    )
    assert code == 0
    assert "checked: 0" in out


def test_verify_ceiling_refusal(capsys):
    code, _, err = run_cli(
        ["verify", "prop-regular", "--max-codim", "6", "--max-vars", "12",
         "--max-weight", "60", "--max-degree", "120"],
        capsys,
    )
    assert code == 2
    assert "ceiling" in err


# -- parser-level -----------------------------------------------------------------


def test_argparse_failures_exit_2(capsys):
    assert run_cli(["no-such-command"], capsys)[0] == 2
    assert run_cli(["verify", "prop-regular", "--max-codim", "2"], capsys)[0] == 2
    assert run_cli(["check", X6, "--assert", "delta"], capsys)[0] == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wcikit.cli", "frobenius", "2,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_python_dash_m_wcikit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "wcikit", "frobenius", "3,5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


def test_installed_script_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "wci" in scripts
    # Write the launcher an installer writes for each [project.scripts] entry, so
    # the entry point runs as a standalone executable found on PATH without
    # building the project: a checkout holds no `wci`.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, target in scripts.items():
        module, _, func = target.partition(":")
        launcher = bin_dir / name
        launcher.write_text(
            f"#!{sys.executable}\nimport sys\nfrom {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(["wci", "check", X6], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "quasi_smooth: true" in proc.stdout
