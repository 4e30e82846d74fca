"""End to end checks of the command line front end."""

import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import adelic.arakelov
from adelic.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        rc = main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue()


# -- the three documented invocations ----------------------------------


def test_height_example():
    rc, out, err = run(["height", "1", "1", "max", "2", "3"])
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == "3"


def test_theta_example():
    rc, out, _ = run(["lattice", "theta", "--gram", "I1", "--t", "1"])
    assert rc == 0
    first = out.splitlines()[0]
    value = float(first.split()[0])
    assert abs(value - 1.086434811213308) < 1e-12
    assert "±" in first and "rigorous" in first


def test_count_example():
    rc, out, _ = run(["count", "--n", "1", "--arch", "max", "--H", "2"])
    assert rc == 0
    assert out.splitlines()[0] == "8"


# -- input formats -----------------------------------------------------


def test_gram_spellings_agree(tmp_path):
    path = tmp_path / "gram.txt"
    path.write_text("rank 2\n# identity\n1 0\n0 1\n")
    outs = set()
    for spec in ("I2", "diag:1,1", str(path)):
        rc, out, _ = run(["lattice", "theta", "--gram", spec, "--t", "1/2"])
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_gram_file_rational_entries(tmp_path):
    path = tmp_path / "gram.txt"
    path.write_text("rank 2\n2 1/2\n1/2 3\n")
    rc, out, _ = run(["lattice", "zeta", "--gram", str(path), "--s", "4"])
    assert rc == 0
    rc2, out2, _ = run(["lattice", "zeta", "--gram", "diag:1,1", "--s", "4"])
    assert out != out2  # the file really was parsed, not defaulted

    bad = tmp_path / "bad.txt"
    bad.write_text("2 1/2\n1/2 3\n")  # missing header
    rc, _, err = run(["lattice", "theta", "--gram", str(bad), "--t", "1"])
    assert rc == 2 and err.startswith("error: validation:")


def test_twist_element_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("rank 2\nplace inf\n2 0\n0 1\nplace 5\n1/5 0\n0 1\n")
    rc, out, _ = run(["twist", "1", "1", "max", "2", "3", "--element", str(path)])
    assert rc == 0
    assert out.splitlines()[0] == "20"

    rc, out, _ = run(["twist", "1", "1", "max", "2", "3", "--element", str(path), "--compare"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lhs: 20" and lines[1] == "rhs: 20" and lines[2] == "equal: true"

    ident = tmp_path / "id.txt"
    ident.write_text("rank 2\n")
    rc, out, _ = run(["twist", "1", "1", "max", "2", "3", "--element", str(ident)])
    assert out.splitlines()[0] == "3"  # identity twist is the plain height

    rc, _, err = run(["twist", "2", "1", "max", "1", "2", "3", "--element", str(path)])
    assert rc == 2 and "rank 2" in err  # wrong size for P^2


# -- exit code contract ------------------------------------------------


def test_validation_exit_code():
    rc, out, err = run(["height", "1", "1", "max", "0", "0"])
    assert rc == 2 and out == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1

    rc, _, err = run(["lattice", "lambda", "--gram", "I2", "--s", "2"])
    assert rc == 2 and "pole" in err


def test_capacity_exit_code():
    rc, out, err = run(["count", "--n", "2", "--method", "enumerate", "--H", "200"])
    assert rc == 3 and out == ""
    assert err.startswith("error: capacity:") and err.count("\n") == 1

    rc, _, err = run(["count", "--n", "1", "--H", "99999999"])
    assert rc == 3 and err.startswith("error: capacity:")


def test_arakelov_cutoff_refused_before_work():
    t0 = time.perf_counter()
    rc, out, err = run(["arakelov", "--cutoff", "3000", "--phi", "norm"])
    elapsed = time.perf_counter() - t0
    assert rc == 3 and out == ""
    assert err.startswith("error: capacity:") and err.count("\n") == 1
    assert elapsed < 1.0


def test_bad_flags_exit_code():
    for argv in (
        ["nope"],
        [],
        ["--precision-bits", "32", "height", "1", "1", "max", "2", "3"],
        ["--eps", "-1", "height", "1", "1", "max", "2", "3"],
        ["--threads", "0", "height", "1", "1", "max", "2", "3"],
        ["height", "1", "1", "sup", "2", "3"],
    ):
        rc, _, err = run(argv)
        assert rc == 2, argv
        assert err.startswith("error: validation:"), argv


def test_help_exits_zero():
    rc, out, _ = run(["--help"])
    assert rc == 0


# -- determinism -------------------------------------------------------


def test_reruns_byte_identical():
    for argv in (
        ["arakelov", "--degrees", "1,2", "--s", "2.5", "--cutoff", "8"],
        ["--output", "json", "tamagawa", "--variety", "F2", "--cutoff", "100"],
        ["fit", "--n", "1", "--thresholds", "100,200,400,800,1600,3200,6400,10000", "--a", "2", "--b", "1"],
        ["hirzebruch", "enumerate", "--n", "1", "--cls", "2,1,2", "--arch", "l2", "--H", "6"],
    ):
        rc1, out1, _ = run(argv)
        rc2, out2, _ = run(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_cli_goldens_replay(monkeypatch):
    # bench/cli_goldens.json pins the stdout and exit code of a fixed
    # command mix; its file arguments are relative to the checkout root
    monkeypatch.chdir(ROOT)
    goldens = json.loads((ROOT / "bench" / "cli_goldens.json").read_text(encoding="utf-8"))
    assert goldens
    for g in goldens:
        rc, out, _ = run(g["argv"])
        assert (rc, out) == (g["exit"], g["stdout"]), g["name"]


# -- import cost ---------------------------------------------------------


def test_plain_command_loads_no_numeric_packages():
    # a fresh interpreter, since this one has numpy loaded already
    code = (
        "import sys\n"
        "import adelic.cli\n"
        "rc = adelic.cli.main(['height', '1', '1', 'max', '2', '3'])\n"
        "heavy = [m for m in ('numpy', 'scipy', 'mpmath') if m in sys.modules]\n"
        "assert rc == 0 and not heavy, (rc, heavy)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "3"


# -- json mode ---------------------------------------------------------


def test_json_outputs():
    rc, out, _ = run(["--output", "json", "height", "1", "1", "max", "2", "3"])
    body = json.loads(out)
    assert body["schema_version"] == 1
    assert body["exact"] == "3" and body["decimal"] == 3.0

    rc, out, _ = run(["--output", "json", "lattice", "theta", "--gram", "I1", "--t", "1"])
    body = json.loads(out)
    assert body["rigorous"] is True
    assert abs(body["value"] - 1.086434811213308) < 1e-12

    # the tamagawa report is JSON in both modes and carries its own version
    rc, csv_out, _ = run(["tamagawa", "--variety", "P1", "--cutoff", "200"])
    rc, json_out, _ = run(["--output", "json", "tamagawa", "--variety", "P1", "--cutoff", "200"])
    assert json.loads(csv_out) == json.loads(json_out)
    assert json.loads(csv_out)["schema_version"] == 1


# -- command coverage --------------------------------------------------


def test_lattice_check_fe():
    rc, out, _ = run(["lattice", "check-fe", "--gram", "diag:2,3", "--t", "1/3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[2] == "within: true"


def test_arakelov_table_and_probes():
    rc, out, _ = run(["arakelov", "--degrees", "1", "--s", "2.5", "--cutoff", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "height_sq,point,covolume,phi_value,phi_error,term,term_error"
    assert len(lines) == 2 + 16  # 4 + 4 + 8 points through height 3

    rc, out, _ = run(["arakelov", "--degrees", "1,2", "--s", "2.5", "--cutoff", "12", "--duality"])
    assert rc == 0
    assert float(out.split(":")[1]) < 1e-9

    rc, out, _ = run(["arakelov", "--grouped", "4", "--s", "2.5"])
    rows = out.splitlines()
    assert rows[0] == "N,count,reference_coefficient,theta_value,term"
    assert [r.split(",")[:3] for r in rows[1:]] == [
        ["1", "4", "6"],
        ["2", "4", "10"],
        ["3", "8", "18"],
        ["4", "8", "26"],
    ]


def test_arakelov_enumerates_once(monkeypatch):
    calls = []
    pairs = adelic.arakelov._canonical_pairs

    def counted(*args):
        calls.append(args)
        return pairs(*args)

    monkeypatch.setattr(adelic.arakelov, "_canonical_pairs", counted)
    for mode in ("csv", "json"):
        calls.clear()
        rc, _, _ = run(["--output", mode, "arakelov", "--degrees", "1,2", "--s", "2.5", "--cutoff", "5"])
        assert rc == 0 and len(calls) == 1


def test_zeta_matches_count_at_zero():
    rc, out, _ = run(["zeta", "--n", "1", "--s", "0", "--H", "25"])
    assert rc == 0
    value = float(out.split()[0])
    rc, count_out, _ = run(["count", "--n", "1", "--H", "25"])
    assert value == float(count_out.strip())


def test_fit_recovers_leading_constant():
    rc, out, _ = run(
        ["fit", "--n", "1", "--thresholds", "100,200,400,800,1600,3200,6400,10000", "--a", "2", "--b", "1"]
    )
    assert rc == 0
    lines = out.splitlines()
    theta_line = next(line for line in lines if line.startswith("theta:"))
    theta = float(theta_line.split()[1])
    assert abs(theta - 12 / math.pi**2) / (12 / math.pi**2) < 0.01
    assert lines[4] == "threshold,count,model"


def test_hirzebruch_commands():
    rc, out, _ = run(["hirzebruch", "anticanonical", "--n", "3"])
    assert out.splitlines() == ["k,w,j", "2,1,2"]

    rc, out, _ = run(["hirzebruch", "height", "--n", "2", "--cls", "2,1,2", "--base", "2,1", "--fiber", "1,3"])
    assert out.splitlines()[0] == "16"

    rc, out, _ = run(["hirzebruch", "check-shift", "--n", "1", "--cls", "1,1,0", "--base", "3,1", "--fiber", "1,2"])
    lines = out.splitlines()
    assert lines[1] == "shifted: 1,2,-1"
    assert lines[-1] == "equal: true"

    rc, out, _ = run(["hirzebruch", "enumerate", "--n", "0", "--cls", "1,0,1", "--arch", "max", "--H", "2"])
    lines = out.splitlines()
    assert lines[0] == "base,fiber,height_sq"
    assert len(lines) == 1 + 48


def test_tamagawa_report_and_peyre():
    rc, out, _ = run(["tamagawa", "--variety", "P1", "--cutoff", "2000"])
    body = json.loads(out)
    assert abs(body["tau"] - 24 / math.pi**2) < body["error_budget"]["total"]
    assert body["lstar"] == "1/1"

    rc, out, _ = run(["tamagawa", "--variety", "P1", "--peyre-check", "--cutoff", "500", "--H", "1000000"])
    assert rc == 0
    lines = out.splitlines()
    predicted = float(lines[0].split()[1])
    assert abs(predicted - 12 / math.pi**2) < 1e-2
    rel = float(lines[2].split()[1])
    assert rel < 0.05


def test_selftest_passes():
    rc, out, _ = run(["--selftest"])
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_high_precision_context():
    rc, out, _ = run(["--precision-bits", "128", "lattice", "theta", "--gram", "I1", "--t", "1"])
    assert rc == 0
    digits = out.split()[0]
    assert digits.startswith("1.08643481121330801457")  # beyond double precision
    assert "128-bit" in out
