import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from gencube import cli
from gencube.cli import build_parser, main

from circuit_suite import SUITE

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_threshold_joint_depol_cube():
    code, out = run_cli(["threshold", "--noise", "joint-depol", "--space", "cube", "--R", "1"])
    assert code == 0
    assert "tolerances:" in out
    assert "0.666667" in out


def test_threshold_precision_flag():
    code, out = run_cli(["threshold", "--noise", "local-dephase", "--space", "cube",
                         "--R", "1", "--precision", "4"])
    assert code == 0
    assert "0.2929" in out


@pytest.mark.parametrize("precision", ["-1", "two"])
def test_threshold_refuses_a_bad_precision_as_a_usage_error(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--noise", "joint-depol", "--space", "cube", "--precision", precision])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --precision: must be an integer of at least 0; got '{precision}'" in captured.err


def test_threshold_precision_zero_prints_no_decimals():
    code, out = run_cli(["threshold", "--noise", "joint-depol", "--space", "cube",
                         "--R", "1", "--precision", "0"])
    assert code == 0
    assert out.splitlines()[-1] == "1"


def test_threshold_deterministic_output():
    argv = ["threshold", "--noise", "local-depol", "--space", "cube", "--R", "1"]
    assert run_cli(argv) == run_cli(argv)


def test_curve_writes_csv(tmp_path):
    out_file = tmp_path / "curve.csv"
    code, out = run_cli(["curve", "--noise", "joint-depol", "--space", "cube",
                         "--r-min", "0.9", "--r-max", "1.1", "--steps", "3",
                         "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "R,lambda_star,method"
    assert len(lines) == 4
    R_mid, lam_mid, method = lines[2].split(",")
    assert abs(float(lam_mid) - 2 / 3) < 1e-4
    assert method == "facet"


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_curve_rejects_fewer_than_one_step(tmp_path, capsys, steps):
    out_file = tmp_path / "curve.csv"
    code, _ = run_cli(["curve", "--noise", "joint-depol", "--space", "cube",
                       "--r-min", "0.9", "--r-max", "1.1", "--steps", steps,
                       "--out", str(out_file)])
    assert code == 1
    assert "error: steps must be at least 1" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("argv, refusal", [
    (["threshold", "--noise", "joint-depol", "--space", "cube", "--R", "inf"],
     "error: rescaling factor R must be positive and finite; got inf"),
    (["threshold", "--noise", "joint-depol", "--space", "sphere", "--R", "inf"],
     "error: rescaling factor R must be positive and finite; got inf"),
    (["curve", "--noise", "joint-depol", "--space", "cube", "--r-min", "0.5",
      "--r-max", "inf", "--steps", "3"],
     "error: R_max must be positive and finite; got inf"),
], ids=["cube", "sphere", "curve"])
def test_an_infinite_R_is_refused(capsys, argv, refusal):
    code, _ = run_cli(argv)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [refusal]


def test_verify_subcommands_pass():
    for which in ("appendix1", "appendix2", "bell", "epg-bounds", "orbit", "appendix3"):
        code, out = run_cli(["verify", which])
        assert code == 0, (which, out)
        assert "[FAIL]" not in out
        assert "[PASS]" in out


def test_verify_appendix1_has_seven_lines():
    code, out = run_cli(["verify", "appendix1"])
    assert code == 0
    assert sum(1 for line in out.splitlines() if line.startswith("[PASS]")) == 7


# every bundle's row labels, in order; the details are free
VERIFY_LABELS = {
    "appendix1": [f"appendix certificate {k}" for k in range(1, 8)],
    "appendix2": ["stated vertex probability equals -1/2",
                  "witnesses found for all over-unit vectors",
                  "no witnesses for unit-ball vectors"],
    "appendix3": [f"theta -> theta+pi spectrum invariance (trial {k})" for k in range(5)],
    "bell": [f"Bell {w} cube certificate" for w in ("phi+", "phi-", "psi+", "psi-")],
    "lemma8": ["CJ marginal is I/4", "output non-PPT for (|T>+|Tbar>)/sqrt2 input",
               "CJ non-PPT across input:output split", "CJ non-PPT across A:B split",
               "all 64 vertex outputs cube-separable"],
    "epg-bounds": ["lower bound equals 1/5 exactly", "magic identity residual < 1e-12",
                   "w^2+(w-1)^2 = 2", "50% one-arm dephasing feasible on all 64 vertices"],
    "orbit": ["X/Y/S cycle visits all 8 vertices"],
}


def test_verify_choices_are_the_bundles():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    [which] = [a for a in sub.choices["verify"]._actions if a.dest == "which"]
    assert list(which.choices) == sorted(cli._VERIFIERS) == sorted(VERIFY_LABELS)


@pytest.mark.parametrize("which", sorted(VERIFY_LABELS))
def test_verify_prints_each_label_once_in_order(which):
    code, out = run_cli(["verify", which])
    lines = out.splitlines()
    assert code == 0 and lines[0].startswith("tolerances:")
    assert len(lines) == 1 + len(VERIFY_LABELS[which])
    for line, label in zip(lines[1:], VERIFY_LABELS[which]):
        assert line == f"[PASS] {label}" or line.startswith(f"[PASS] {label} "), line


def test_verify_appendix2_prints_the_probability_as_a_float():
    _, out = run_cli(["verify", "appendix2"])
    assert "[PASS] stated vertex probability equals -1/2 got -0.5" in out.splitlines()


def test_verify_exits_1_on_a_failing_row(monkeypatch):
    monkeypatch.setitem(cli._VERIFIERS, "orbit",
                        lambda: (("first", True, ""), ("second", False, "why"), ("third", True, "")))
    code, out = run_cli(["verify", "orbit"])
    assert code == 1
    assert out.splitlines()[1:] == ["[PASS] first", "[FAIL] second why", "[PASS] third"]


def test_verify_lemma8_reports_known_red():
    # the noiseless channel fails 16 of the 64 corners (Born probability
    # -eps/3); the search's white-noise retry must bring all 64 back, and the
    # exit code must follow the printed verdicts
    code, out = run_cli(["verify", "lemma8"])
    checks = [l for l in out.splitlines() if l.startswith(("[PASS]", "[FAIL]"))]
    names = ("CJ marginal is I/4", "output non-PPT for (|T>+|Tbar>)/sqrt2 input",
             "CJ non-PPT across input:output split", "CJ non-PPT across A:B split",
             "all 64 vertex outputs cube-separable")
    assert len(checks) == len(names)
    for name in names:
        assert any(l.split("] ", 1)[1].startswith(name) for l in checks), name
    assert "[PASS] all 64 vertex outputs cube-separable 64/64" in out
    assert code == (1 if any(l.startswith("[FAIL]") for l in checks) else 0)


def test_simulate_command(tmp_path):
    f = tmp_path / "circ.txt"
    f.write_text(SUITE["bell_like_joint"])
    code, out = run_cli(["simulate", "--circuit", str(f), "--shots", "4000",
                         "--seed", "5", "--compare-dense"])
    assert code == 0
    assert "rng: PCG64 seed: 5 shots: 4000" in out
    assert "outcome_string,count" in out
    tvd_line = [l for l in out.splitlines() if l.startswith("tvd_vs_dense:")][0]
    assert float(tvd_line.split(":")[1]) < 0.05


def test_simulate_rejects_noiseless(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("qubits 2\nprep 0 1 0 0\nprep 1 0 0 1\ncsign 0 1 joint-depol 0.0\nmeas 0 X a\n")
    code, _ = run_cli(["simulate", "--circuit", str(f), "--shots", "10", "--seed", "1"])
    assert code == 1
    assert "error: noisy CSIGN" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_simulate_rejects_bad_shot_count(tmp_path, capsys, shots):
    f = tmp_path / "circ.txt"
    f.write_text(SUITE["bell_like_joint"])
    code, out = run_cli(["simulate", "--circuit", str(f), "--shots", shots,
                         "--compare-dense"])
    assert code == 1
    assert "error: shots must be at least 1" in capsys.readouterr().err
    assert "tvd_vs_dense" not in out


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    f = tmp_path / "circ.txt"
    f.write_text(SUITE["bell_like_joint"])
    code, out = run_cli(["simulate", "--circuit", str(f), "--shots", "10",
                         "--seed", "-1", "--compare-dense"])
    assert code == 1
    assert "error: seed must be a non-negative integer; got -1" in capsys.readouterr().err
    assert "tvd_vs_dense" not in out


@pytest.mark.parametrize("line", ["meas 0 Z", "ifeq a 1", "ifeq a 1 clif 0",
                                  "csign 0 1 joint-depol"])
def test_simulate_reports_a_malformed_line(tmp_path, capsys, line):
    f = tmp_path / "circ.txt"
    f.write_text(f"qubits 2\nprep 0 1 0 0\nmeas 0 Z a\n{line}\n")
    code, _ = run_cli(["simulate", "--circuit", str(f), "--shots", "10"])
    assert code == 1
    assert f"error: circuit line 4 {line!r}" in capsys.readouterr().err


def test_simulate_reports_an_unwritten_record_id(tmp_path, capsys):
    f = tmp_path / "circ.txt"
    f.write_text("qubits 1\nprep 0 1 0 0\nifeq z +1 clif 0 X\nmeas 0 Z a\n")
    code, _ = run_cli(["simulate", "--circuit", str(f), "--shots", "10"])
    assert code == 1
    assert "error: ifeq reads record id 'z'" in capsys.readouterr().err


def test_simulate_refuses_a_wide_dense_comparison_before_sampling(tmp_path, capsys,
                                                                  monkeypatch):
    f = tmp_path / "nine.txt"
    f.write_text("qubits 9\nprep 0 1 0 0\nmeas 0 Z a\n")
    monkeypatch.setattr(cli.simulator, "simulate_hn",
                        lambda *args: pytest.fail("sampled a run that must be refused"))
    code, out = run_cli(["simulate", "--circuit", str(f), "--shots", "100", "--seed", "1",
                         "--compare-dense"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == "error: dense simulation supports at most 8 qubits; got 9\n"


def test_simulate_refuses_a_cube_preparation_for_the_dense_comparison_before_sampling(
        tmp_path, capsys, monkeypatch):
    f = tmp_path / "cube.txt"
    f.write_text("qubits 1\nprep 0 1 1 1\nmeas 0 X a\n")
    # HN sampling alone takes the cube vertex
    code, out = run_cli(["simulate", "--circuit", str(f), "--shots", "100", "--seed", "1"])
    assert code == 0 and out.endswith("outcome_string,count\n+,100\n")
    monkeypatch.setattr(cli.simulator, "simulate_hn",
                        lambda *args: pytest.fail("sampled a run that must be refused"))
    code, out = run_cli(["simulate", "--circuit", str(f), "--shots", "100", "--seed", "1",
                         "--compare-dense"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == ("error: dense simulation requires quantum preparations "
                                       "(|bloch| <= 1); got [1. 1. 1.]\n")


def test_simulate_refuses_a_state_too_large_to_allocate(tmp_path):
    # 10^6 qubits x ~10^14 shots pass 2^63 bytes, which numpy refuses
    # before allocating; the refusal is one line, not a traceback
    f = tmp_path / "wide.txt"
    f.write_text("qubits 1000000\nmeas 0 Z a\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "gencube.cli", "simulate", "--circuit", str(f),
                           "--shots", "99999999999999"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: the shot state of 1000000 qubits x 99999999999999 shots "
                           "(99999999999999000000 bytes) cannot be allocated\n")


def test_compat_xyz():
    code, out = run_cli(["compat", "--povms", "xyz"])
    assert code == 0
    assert "compatible: yes (8 corner operators)" in out


def test_compat_json_file(tmp_path):
    def enc(m):
        return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]

    rng = np.random.default_rng(71)
    povms = []
    for a in rng.standard_normal((4, 3)):
        a = a / np.linalg.norm(a)
        obs = (a[0] * np.array([[0, 1], [1, 0]], dtype=complex)
               + a[1] * np.array([[0, -1j], [1j, 0]])
               + a[2] * np.array([[1, 0], [0, -1]], dtype=complex))
        povms.append([enc((np.eye(2) + s * obs) / 2) for s in (1, -1)])
    f = tmp_path / "povms.json"
    f.write_text(json.dumps({"dim": 2, "povms": povms}))
    code, out = run_cli(["compat", "--povms", str(f)])
    assert code == 0
    assert "compatible: no" in out


def test_compat_json_file_compatible(tmp_path):
    # X and Z projectors: [re, im] pairs of (I + X)/2, (I - X)/2, (I + Z)/2, (I - Z)/2
    half, zero = [0.5, 0.0], [0.0, 0.0]
    x_proj = [[[half, half], [half, half]], [[half, [-0.5, 0.0]], [[-0.5, 0.0], half]]]
    z_proj = [[[[1.0, 0.0], zero], [zero, zero]], [[zero, zero], [zero, [1.0, 0.0]]]]
    f = tmp_path / "xz.json"
    f.write_text(json.dumps({"dim": 2, "povms": [x_proj, z_proj]}))
    code, out = run_cli(["compat", "--povms", str(f)])
    assert code == 0
    assert "compatible: yes (4 corner operators)" in out


@pytest.mark.parametrize("content, problem", [
    ('{"povms": []}', "expected an object with keys 'dim' and 'povms'"),
    ('{"dim": 2, "povms": [[[[1]]]]}', "a matrix of [re, im] pairs"),
    ('{"dim": 1, "povms": [[[[{"re": 1}]]]]}', "a matrix of [re, im] pairs"),
    ('{"dim": 1, "povms": [[[[[1, 0, 5]]]]]}', "a matrix of [re, im] pairs"),
    ('{"dim": 2, "povms": [[[[[1, 0], [0, 0]], [[0, 0]]]]]}', "a matrix of [re, im] pairs"),
    ('{"dim": 0, "povms": []}', "'dim' must be a positive integer; got 0"),
])
def test_compat_reports_a_malformed_povm_file(tmp_path, capsys, content, problem):
    f = tmp_path / "povms.json"
    f.write_text(content)
    code, _ = run_cli(["compat", "--povms", str(f)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: POVM file {f}: ")
    assert problem in err


def test_compat_refuses_a_non_finite_povm_entry(tmp_path, capsys):
    # JSON's NaN reaches PovmSet, which refuses it before any SVD runs
    f = tmp_path / "povms.json"
    f.write_text('{"dim": 2, "povms": [[[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]], '
                 '[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]]}')
    code, _ = run_cli(["compat", "--povms", str(f)])
    assert code == 1
    assert capsys.readouterr().err == ("error: element 0 of POVM 0 has a non-finite "
                                       "entry\n")


def test_compat_refuses_a_non_hermitian_povm_element(tmp_path, capsys):
    # [[0.5, 1], [0, 0.5]] and [[0.5, -1], [0, 0.5]] sum to I, and their
    # Hermitian parts are positive
    f = tmp_path / "povms.json"
    f.write_text('{"dim": 2, "povms": [[[[[0.5, 0], [1, 0]], [[0, 0], [0.5, 0]]], '
                 '[[[0.5, 0], [-1, 0]], [[0, 0], [0.5, 0]]]]]}')
    code, out = run_cli(["compat", "--povms", str(f)])
    assert code == 1
    assert "compatible" not in out
    assert capsys.readouterr().err == ("error: element 0 of POVM 0 is not Hermitian "
                                       "to 1e-12\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--noise", "cosmic-ray", "--space", "cube"])
    assert exc.value.code == 2


def test_invalid_input_exit_code():
    code, _ = run_cli(["simulate", "--circuit", "/nonexistent/file.txt"])
    assert code == 1


def test_tolerance_banner_reads_the_constants(monkeypatch):
    from gencube import cli, lp, separability

    def banner():
        buf = io.StringIO()
        cli._tolerance_banner(buf)
        return buf.getvalue().strip()

    assert banner() == "tolerances: lp-feasibility=1e-09 positivity=1e-09"
    monkeypatch.setattr(lp, "FEASIBILITY_TOL", 2e-10)
    monkeypatch.setattr(separability, "POSITIVITY_TOL", 3e-8)
    assert banner() == "tolerances: lp-feasibility=2e-10 positivity=3e-08"


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time; no package code loads it
    code = "import sys, gencube.cli; sys.exit('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "import gencube.cli loaded scipy.optimize"


def test_cli_import_derives_no_eigen_rows():
    # the sphere threshold's eigen-rows are derived on first use only
    code = ("import sys, gencube.cli, gencube.thresholds as th; "
            "sys.exit(th._eigen_rows.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "import gencube.cli derived the eigen-rows"


def test_cube_threshold_and_curve_leave_scipy_optimize_unloaded():
    # the cube and the sphere thresholds are facet roots: neither loads
    # scipy.optimize
    runs = [["threshold", "--noise", family, "--space", space, "--R", "1"]
            for space in ("cube", "sphere")
            for family in ("joint-depol", "local-depol", "local-dephase")]
    runs += [["curve", "--noise", "local-depol", "--space", space,
              "--r-min", "0.5", "--r-max", "1.5", "--steps", "3"] for space in ("cube", "sphere")]
    code = ("import sys\n"
            "from gencube.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "sys.exit(any(codes) or 'scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "a threshold loaded scipy.optimize"
    assert proc.stdout.count("tolerances:") == 8


def test_every_command_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: with scipy unimportable, every
    # command still exits 0
    circuit = tmp_path / "circ.txt"
    circuit.write_text(SUITE["bell_like_joint"])
    runs = [[cmd, "--noise", "local-depol", "--space", space] + args
            for space in ("cube", "sphere")
            for cmd, args in (("threshold", ["--R", "1.16"]),
                              ("curve", ["--r-min", "0.5", "--r-max", "1.5", "--steps", "3"]))]
    runs += [["verify", which] for which in sorted(cli._VERIFIERS)]
    runs += [["simulate", "--circuit", str(circuit), "--shots", "1000", "--compare-dense"],
             ["compat", "--povms", "xyz"]]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from gencube.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    if main(argv):\n"
            "        sys.exit(f'{argv} failed')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("tolerances:") == len(runs) == 13
