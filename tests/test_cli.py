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
import adelic.lattice
from adelic.cli import main

ROOT = Path(__file__).resolve().parents[1]
GRAM3 = str(ROOT / "bench" / "data" / "gram3.txt")


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

    rc, out, err = run(["count", "--n", "1", "--table", "2,5,10"])
    assert rc == 0 and err == ""
    assert out.splitlines() == ["threshold,count,model", "2,8,", "5,40,", "10,128,"]


def test_count_large_sup_radius_is_prompt():
    t0 = time.perf_counter()
    rc, out, err = run(["count", "--n", "1", "--H", "1000000"])
    elapsed = time.perf_counter() - t0
    assert rc == 0 and err == ""
    assert out.splitlines()[0] == "1215854209568"
    assert elapsed < 2.0


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

    # the section value 1048583^2 has no prime factor below 2^20
    argv = ["twist", "1", "2", "max", "1048583", "1", "--element", str(path), "--compare", "--section", "2,0"]
    rc, out, _ = run(argv)
    assert rc == 0
    assert out.splitlines() == ["lhs: 109952630788900", "rhs: 109952630788900", "equal: true"]

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


@pytest.mark.parametrize("bits", ["64", "128"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "zeta", "--gram", "I1", "--s", "-2"],
        ["lattice", "zeta", "--gram", "I2", "--s", "-4"],
        ["arakelov", "--phi", "zeta", "--degrees", "1", "--s", "-2", "--cutoff", "2"],
    ],
)
def test_lattice_zeta_trivial_zeros(bits, argv):
    # 1/Gamma(s/2) vanishes at s = -2, -4, ...: zeta_L is exactly 0 there
    rc, out, err = run(["--precision-bits", bits, *argv])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("0.0 ± ")
    for row in lines[2:]:
        fields = row.split(",")
        assert fields[3] == "0.0" and fields[5] == "0.0"


def test_zeta_past_double_range():
    rc, out, err = run(["zeta", "--n", "1", "--m", "1000", "--s", "3", "--H", "1e400"])
    assert rc == 0 and out.startswith("4.0 ")
    for s in ("-3", "-3+1j"):
        rc, out, err = run(["zeta", "--n", "1", "--m", "1000", "--s", s, "--H", "1e400"])
        assert rc == 2 and out == ""
        assert err.startswith("error: validation:") and err.count("\n") == 1


def test_arakelov_cutoff_refused_before_work():
    t0 = time.perf_counter()
    rc, out, err = run(["arakelov", "--cutoff", "3000", "--phi", "norm"])
    elapsed = time.perf_counter() - t0
    assert rc == 3 and out == ""
    assert err.startswith("error: capacity:") and err.count("\n") == 1
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "1", "--arch", "max", "--H", "1e400"],
        ["count", "--n", "1", "--arch", "max", "--H", "1e30"],
        ["count", "--n", "1", "--arch", "l2", "--H", "1e400"],
        ["zeta", "--n", "1", "--s", "3", "--H", "1e400"],
        ["hirzebruch", "enumerate", "--n", "1", "--cls", "1,0,1", "--H", "1e400"],
        ["hirzebruch", "enumerate", "--n", "1", "--cls", "1,0,200", "--H", "1e400"],
        ["tamagawa", "--variety", "P1", "--cutoff", "100", "--peyre-check", "--H", "1e400"],
        ["tamagawa", "--variety", "P1", "--cutoff", "100", "--peyre-check", "--H", "1e700"],
        ["tamagawa", "--variety", "P1", "--cutoff", "100", "--peyre-check", "--H", "36000000000000"],
        ["tamagawa", "--variety", "P1", "--cutoff", str(10**30)],
        ["hirzebruch", "enumerate", "--n", "3", "--cls", "1,0,1", "--H", "100"],
        ["hirzebruch", "enumerate", "--n", "0", "--cls", "1,0,1", "--H", "1500"],
    ],
)
def test_huge_bound_refused_before_work(argv):
    # integer roots stay exact for any bound, so the caps refuse these at
    # once; 1e400 used to overflow a float, and 1e30 to start a +-1
    # correction walk from a float estimate some 1e14 steps off.  The
    # fit ladder of --peyre-check is refused before its lower thresholds
    # are counted (3.6e13 reaches degree-1 height 6e6, over the cap), and
    # a prime cutoff over the cap before its sieve is allocated.  The
    # candidates on the Hirzebruch fiber rows are counted exactly, height
    # by height, before any base or fiber is built (F0 under H = 1500 used
    # to build 2.7 million base points before its refusal).
    t0 = time.perf_counter()
    rc, out, err = run(argv)
    elapsed = time.perf_counter() - t0
    assert rc == 3 and out == ""
    assert err.startswith("error: capacity:") and err.count("\n") == 1
    # bound-derived integers print as digit counts past 30 digits
    assert all(len(line) <= 200 for line in err.splitlines())
    assert elapsed < 1.0


def test_twist_prime_beyond_proven_range_refused(tmp_path):
    element = tmp_path / "element.txt"
    for element_text, point in (
        # a place above the Miller-Rabin range
        ("rank 2\nplace 10000000000000000000000013\n1 0\n0 1\n", ["2", "3"]),
        # a point coordinate above it with no factor below 2^20, which
        # --compare factors
        ("rank 2\nplace 3\n1 0\n0 3\n", ["1000000000000000000000000000057", "1", "--compare"]),
    ):
        element.write_text(element_text)
        t0 = time.perf_counter()
        rc, out, err = run(["twist", "1", "1", "max", *point, "--element", str(element)])
        elapsed = time.perf_counter() - t0
        assert rc == 2 and out == ""
        assert err.startswith("error: validation:") and err.count("\n") == 1
        assert elapsed < 1.0


def test_tamagawa_surface_beyond_two():
    rc, out, err = run(["tamagawa", "--variety", "F3", "--cutoff", "1000"])
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["variety"] == "F3" and report["archimedean_density"] == 16.0
    rc, out2, _ = run(["tamagawa", "--variety", "F2", "--cutoff", "1000"])
    assert rc == 0 and json.loads(out2)["tau"] == report["tau"]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_eps_refused(value):
    for argv in (
        ["--eps", value, "lattice", "theta", "--gram", "I1", "--t", "1"],
        ["--eps", value, "arakelov", "--cutoff", "3", "--s", "2"],
    ):
        rc, out, err = run(argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error: validation: eps") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["arakelov", "--s", "nan", "--cutoff", "2"],
        ["arakelov", "--s", "inf"],
        ["arakelov", "--s", "1+infj"],
        ["zeta", "--n", "1", "--s", "nan", "--H", "5"],
        ["zeta", "--n", "1", "--s", "1e400", "--H", "5"],
        ["lattice", "lambda", "--gram", "I1", "--s", "inf"],
        ["lattice", "lambda", "--gram", "I1", "--s", "1e400"],
        ["lattice", "zeta", "--gram", "I1", "--s", "1e400j"],
    ],
)
def test_non_finite_s_refused(argv):
    # nan and inf used to print nan values with exit 0, and a literal past
    # the double range to exit 1 with an OverflowError traceback
    rc, out, err = run(argv)
    assert rc == 2 and out == "", argv
    assert err == f"error: validation: --s must be finite in double precision, got {argv[argv.index('--s') + 1]!r}\n"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["lattice", "theta", "--gram", "I2", "--t", "1e-55"], 3, "capacity: rank-one theta needs too many terms"),
        (["lattice", "theta", "--gram", "I2", "--t", "1e400"], 2, "validation: theta needs t inside the double range"),
        (["lattice", "theta", "--gram", GRAM3, "--t", "1e400"], 2, "validation: theta needs t inside the double range"),
        (["lattice", "theta", "--gram", GRAM3, "--t", "1e-400"], 2, "validation: theta needs t inside the double range"),
        (["lattice", "theta", "--gram", GRAM3, "--t", "1e-320"], 3, "capacity: theta truncation radius diverged"),
        (["arakelov", "--degrees", "400", "--cutoff", "3"], 3, "capacity: rank-one theta needs too many terms"),
        (
            ["arakelov", "--degrees", "-400", "--cutoff", "3"],
            2,
            "validation: rank-one theta scale pi*t*c^2 lies outside the double range",
        ),
    ],
)
def test_theta_scale_out_of_range_refused(argv, code, message):
    # all but the subnormal t on a dense Gram (already exit 3) exited 1
    # with a ZeroDivisionError or OverflowError traceback: the term cap is
    # now checked before the first tail is evaluated, and a t or a
    # rank-one scale outside the double range is refused before any work
    rc, out, err = run(argv)
    assert (rc, out, err) == (code, "", f"error: {message}\n")


HUGE, TINY = "1" + "0" * 400, "1/1" + "0" * 400
WIDE, NARROW = "1" + "0" * 200, "1/1" + "0" * 200


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lattice", "lambda", "--gram", f"diag:{HUGE},1", "--s", "1.3"], "Lambda"),
        (["lattice", "zeta", "--gram", f"diag:{HUGE},1", "--s", "1.3"], "Lambda"),
        (["--precision-bits", "128", "lattice", "lambda", "--gram", f"diag:{HUGE},1", "--s", "1.3"], "Lambda"),
        (["--precision-bits", "128", "lattice", "zeta", "--gram", f"diag:{HUGE},1", "--s", "1.3"], "Lambda"),
        (["lattice", "lambda", "--gram", f"diag:{TINY},1", "--s", "1.3"], "Lambda"),
        (["lattice", "zeta", "--gram", f"diag:{TINY},1", "--s", "1.3"], "Lambda"),
        # sqrt(det) t^(d/2) = 1, but det itself lies outside the double range
        (["lattice", "check-fe", "--gram", f"diag:{WIDE},{WIDE}", "--t", NARROW], "the theta functional equation"),
        (["lattice", "check-fe", "--gram", f"diag:{NARROW},{NARROW}", "--t", WIDE], "the theta functional equation"),
    ],
)
def test_det_outside_double_range_refused(argv, message, monkeypatch):
    # these exited 1 with an OverflowError or ZeroDivisionError traceback
    def no_ball(*args):
        raise AssertionError("a ball was enumerated")

    monkeypatch.setattr(adelic.lattice, "_ball_rows", no_ball)
    rc, out, err = run(argv)
    assert (rc, out, err) == (2, "", f"error: validation: {message} needs det(G) inside the double range\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["arakelov", "--degrees", "-1", "--s", "1000", "--cutoff", "3"], "covol^s * phi at s = (1000+0j)"),
        (["arakelov", "--degrees", "-1", "--s", "1000+1j"], "covol^s * phi at s = (1000+1j)"),
        (["arakelov", "--grouped", "5", "--s", "-1000"], "covol^s * phi at s = (-1000+0j)"),
        (
            ["--precision-bits", "128", "arakelov", "--degrees", "-1", "--s", "1e30", "--cutoff", "3"],
            "covol^s * phi at s = (1e+30+0j)",
        ),
        (["lattice", "zeta", "--gram", "I1", "--s", "300"], "Lambda at s = (300+0j)"),
        (["lattice", "zeta", "--gram", "I1", "--s", "-400"], "Lambda at s = (-400+0j)"),
        (["lattice", "lambda", "--gram", "I1", "--s", "1500"], "Lambda at s = (1500+0j)"),
        (["--precision-bits", "128", "lattice", "lambda", "--gram", "I1", "--s", "1500"], "Lambda at s = (1500+0j)"),
    ],
)
def test_value_past_double_range_refused(argv, message):
    # the 64-bit requests exited 1 with an OverflowError traceback; the
    # 128-bit ones printed a value with the bound "± inf" and exit 0
    rc, out, err = run(argv)
    assert rc == 2 and out == "", argv
    assert err.startswith(f"error: validation: {message} overflows a float") and err.count("\n") == 1, err


def test_high_precision_zeta_inside_double_range():
    # Gamma(200) lies past the double range, but zeta_Z(400) = 2 + ... does not
    rc, out, err = run(["--precision-bits", "128", "lattice", "zeta", "--gram", "I1", "--s", "400"])
    assert rc == 0 and err == ""
    assert out.startswith("1.99999999999999999999999999999999999999")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["arakelov", "--grouped", "5", "--phi", "zeta"], "--grouped tabulates the theta series, not --phi zeta"),
        (["arakelov", "--grouped", "5", "--phi", "norm"], "--grouped tabulates the theta series, not --phi norm"),
        (["arakelov", "--grouped", "5", "--duality"], "argument --duality: not allowed with argument --grouped"),
        (["arakelov", "--duality", "--grouped", "5"], "argument --grouped: not allowed with argument --duality"),
    ],
)
def test_arakelov_grouped_refuses_ignored_flags(argv, message):
    # these printed the theta table, or only the duality defect, with exit 0
    assert run(argv) == (2, "", f"error: validation: {message}\n")


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_quad_eps_must_be_positive_and_finite(value):
    # an infinite budget used to print "total": Infinity, which is not JSON
    rc, out, err = run(["tamagawa", "--variety", "F2", "--quad-eps", value])
    assert rc == 2 and out == ""
    assert err.startswith("error: validation: quadrature tolerance") and err.count("\n") == 1


def test_arakelov_zeta_class_over_cap_refused_promptly():
    # a late height class's Lambda ball is over the cap; every class's two
    # balls are counted before the first class is evaluated, so the
    # refusal no longer waits for the earlier classes' millions of terms
    t0 = time.perf_counter()
    rc, out, err = run(["arakelov", "--phi", "zeta", "--degrees", "2,-1,3", "--s", "2.5", "--cutoff", "12"])
    elapsed = time.perf_counter() - t0
    assert (rc, out, err) == (3, "", "error: capacity: enumeration exceeds cap of 5000000 vectors\n")
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

PARSER_ONLY = ["adelic", "adelic.cli", "adelic.errors", "adelic.numeric"]


@pytest.mark.parametrize(
    "argv, first_line, unused",
    [
        pytest.param(None, None, None, id="import"),
        pytest.param(["--help"], "usage: adelic [-h] [--precision-bits PRECISION_BITS] [--eps EPS]", None, id="help"),
        pytest.param(
            ["lattice", "theta", "--gram", "I2", "--t", "1"],
            "1.1803405990160962 ± 1.048e-15 (18 terms, rigorous, 64-bit)",
            ("heights", "arakelov", "counts", "fibration", "tamagawa", "twist", "places"),
            id="lattice-theta",
        ),
        pytest.param(
            ["height", "1", "1", "max", "2", "3"], "3", ("arakelov", "counts", "fibration", "tamagawa", "twist"), id="height"
        ),
    ],
)
def test_plain_command_loads_no_numeric_packages(argv, first_line, unused):
    # a fresh interpreter, since this one has every module loaded already.
    # Importing the CLI loads the parser alone (argv None: no command), and
    # a command loads only the library modules it runs; no plain command
    # loads numpy, scipy or mpmath.
    code = (
        "import json, sys\n"
        "import adelic.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "rc = 0 if argv is None else adelic.cli.main(argv)\n"
        "roots = ('adelic', 'numpy', 'scipy', 'mpmath')\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
        "sys.stderr.write(json.dumps([rc, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stderr)
    assert rc == 0
    assert (proc.stdout.splitlines() or [None])[0] == first_line
    heavy = [m for m in loaded if m.split(".")[0] != "adelic"]
    assert heavy == []
    if unused is None:
        assert loaded == PARSER_ONLY
    else:
        assert [m for m in loaded if m.split(".")[-1] in unused] == []


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


SHEARED_Z2 = "rank 2\n1 100000000\n100000000 10000000000000001\n"


def test_lattice_theta_sheared_basis(tmp_path):
    # in floating point the entries 1e8 and 1e16 + 1 lose the determinant 1
    gram = tmp_path / "sheared.txt"
    gram.write_text(SHEARED_Z2)
    rc, out, err = run(["lattice", "theta", "--gram", str(gram), "--t", "1"])
    assert rc == 0 and err == ""
    assert out.split()[0] == "1.1803405990160962"


def test_lattice_check_fe_skewed_dual_refused_promptly(tmp_path):
    # the dual ball at t = 3 has few vectors but about 8e8 partial vectors
    # on its top level, so the partial-vector bound refuses it up front
    gram = tmp_path / "sheared.txt"
    gram.write_text(SHEARED_Z2)
    t0 = time.perf_counter()
    rc, out, err = run(["lattice", "check-fe", "--gram", str(gram), "--t", "1/3"])
    elapsed = time.perf_counter() - t0
    assert rc == 3 and out == ""
    assert err.startswith("error: capacity:") and err.count("\n") == 1
    assert elapsed < 1.0


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


# Whole stdout of grouped and duality requests, as printed when every
# base point was listed: counting the height classes instead must leave
# every count, theta value, term and defect unchanged.
GROUPED_30_64 = """\
N,count,reference_coefficient,theta_value,term
1,4,6,1.086434811213308,1.086434811213308
2,4,10,2.000013949369425,0.25000174367117817
3,8,18,3.0000000000031535,0.1111111111112279
4,8,26,4.0,0.06250000000000003
5,16,42,5.0,0.04000000000000002
6,8,50,6.0,0.02777777777777777
7,24,74,7.0,0.02040816326530613
8,16,90,8.0,0.015625000000000014
9,24,114,9.0,0.012345679012345678
10,16,130,10.0,0.009999999999999993
11,40,170,11.0,0.008264462809917352
12,16,186,12.0,0.006944444444444441
13,48,234,13.0,0.005917159763313607
14,24,258,14.0,0.005102040816326536
15,32,290,15.0,0.004444444444444447
16,32,322,16.0,0.003906250000000003
17,64,386,17.0,0.003460207612456743
18,24,410,18.0,0.003086419753086424
19,72,482,19.0,0.002770083102493076
20,32,514,20.0,0.0025
21,48,562,21.0,0.0022675736961451235
22,40,602,22.0,0.0020661157024793376
23,88,690,23.0,0.001890359168241966
24,32,722,24.0,0.0017361111111111097
25,80,802,25.0,0.0016000000000000016
26,48,850,26.0,0.0014792899408284012
27,72,922,27.000000000000004,0.0013717421124828531
28,48,970,28.0,0.0012755102040816339
29,112,1082,29.000000000000004,0.001189060642092747
30,32,1114,30.0,0.0011111111111111113
"""

GROUPED_30_128 = """\
N,count,reference_coefficient,theta_value,term
1,4,6,1.086434811213308014575316121510223301611,1.086434811213308014575316121510223301611
2,4,10,2.000013949369424835982262907517916374641,0.2500017436711781044977828634397395468301
3,8,18,3.000000000003153291105308014224547133161,0.1111111111112278996705669634897980419692
4,8,26,3.999999999999999999870723975340631382152,0.06249999999999999999798006211469736534612
5,16,42,4.999999999999999999959943474227467048095,0.03999999999999999999967954779381973638496
6,8,50,5.999999999999999999074530020153169003291,0.0277777777777777777734931945377461527931
7,24,74,6.999999999999999999688890066342223801297,0.02040816326530612244807256579108520058687
8,16,90,7.999999999999999997506486719640143014476,0.01562499999999999999512985687429715432515
9,24,114,8.99999999999999999902026522247674453851,0.0123456790123456790110017355589530103409
10,16,130,9.999999999999999995380541788164029796294,0.009999999999999999995380541788164029796333
11,40,170,10.99999999999999998378968419435452124177,0.008264462809917355359721776254210759760957
12,16,186,11.99999999999999999288775479786546723448,0.00694444444444444444032856180432029353849
13,48,234,12.99999999999999997994545984586232082886,0.005917159763313609458327473757788948943497
14,24,258,13.99999999999999999015202452916901931379,0.005102040816326530608655985615586377300955
15,32,290,14.99999999999999997617800569990822682097,0.004444444444444444437386075762935770909937
16,32,322,15.99999999999999998725044846978230921737,0.003906249999999999996887316520942946586272
17,64,386,16.99999999999999997246819397217376316822,0.003460207612456747399240422139664922281343
18,24,410,17.99999999999999998423183333702016037699,0.003086419753086419750382687472054211312928
19,72,482,18.99999999999999996880169823548214163778,0.002770083102493074787695246863315664329749
20,32,514,19.99999999999999998112804611360640925563,0.002499999999999999997641005764200801156959
21,48,562,20.99999999999999996516816604139649373401,0.00226757369614512471279215700695351406262
22,40,602,21.99999999999999993928652598447016771278,0.002066115702479338837273340156317634082722
23,88,690,22.99999999999999996156011937708003228705,0.001890359168241965970375615959322760934254
24,32,722,23.99999999999999993607030886418609442456,0.001736111111111111106486567481494943173081
25,80,802,24.99999999999999995797209505608777000197,0.001599999999999999997310214083589617280126
26,48,850,25.99999999999999993281600755177370344697,0.001479289940828402363041420548007151994022
27,72,922,26.99999999999999995440004111129795167505,0.001371742112482853221277246411182134414219
28,48,970,27.99999999999999992953142021007181139491,0.001275510204081632649851103325896128434538
29,112,1082,28.99999999999999995084090419524002160132,0.001189060642092746728067608520039362893164
30,32,1114,29.99999999999999992622237158953423099432,0.001111111111111111108378606355167934481275
"""


@pytest.mark.parametrize(
    ("argv", "want"),
    [
        pytest.param(["arakelov", "--grouped", "30", "--degrees", "1", "--s", "3"], GROUPED_30_64, id="grouped-64"),
        pytest.param(
            ["--precision-bits", "128", "arakelov", "--grouped", "30", "--degrees", "1", "--s", "3"],
            GROUPED_30_128,
            id="grouped-128",
        ),
        pytest.param(
            ["arakelov", "--duality", "--degrees", "1,2", "--s", "3", "--cutoff", "50"],
            "duality-defect: 0.000000e+00\n",
            id="duality-64",
        ),
        pytest.param(
            ["--precision-bits", "128", "arakelov", "--duality", "--degrees", "1,2", "--s", "3", "--cutoff", "12"],
            "duality-defect: 3.817439e-20\n",
            id="duality-128",
        ),
    ],
)
def test_arakelov_grouped_and_duality_bytes(argv, want):
    rc, out, err = run(argv)
    assert (rc, err) == (0, "")
    assert out == want


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


def test_high_precision_dense_theta_bytes(tmp_path):
    # a dense Gram sums the ball's terms on the mpmath engine, whose last
    # bits depend on the order of the terms, so this pins that order
    gram = tmp_path / "gram3.txt"
    gram.write_text("rank 3\n2 1/2 1/3\n1/2 3 1/4\n1/3 1/4 5/2\n")
    rc, out, err = run(["--precision-bits", "128", "lattice", "theta", "--gram", str(gram), "--t", "1/2"])
    assert rc == 0 and err == ""
    assert out == "1.154267196773153761966260419063232507562 ± 5.558e-35 (581 terms, rigorous, 128-bit)\n"
