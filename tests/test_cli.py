import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delonetop.cli import SchemaError, load_config, main
from delonetop.experiments import run_robustness, run_stacking
from delonetop.serialize import dumps17

QUANT_INI = """\
# two-band model on a small periodic window
[lattice]
generator = periodic
dim = 2
window = [0.0, 10.0]

[model]
name = chern_2band_2d
M = 1.0
mu = 0.0

[index]
kappa_list = [0.15]
"""

QUANT_JSON = {
    "lattice": {"generator": "periodic", "dim": 2, "window": [0.0, 10.0]},
    "model": {"name": "chern_2band_2d", "M": 1.0, "mu": 0.0},
    "index": {"kappa_list": [0.15]},
}


# An open SSH chain (t1 = 0.5, t2 = 1): chiral, so mu is pinned to 0.
SSH_INI = """\
[lattice]
generator = periodic
dim = 1
window = [0.0, 34.0]

[index]
kappa_list = [0.1]

[model]
name = chiral_ssh_1d
t1 = 0.5
t2 = 1.0
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_ini_and_json_configs_are_equivalent(tmp_path):
    ini = write(tmp_path, "run.ini", QUANT_INI)
    js = write(tmp_path, "run.json", json.dumps(QUANT_JSON, indent=1))
    assert load_config(ini) == load_config(js) == QUANT_JSON


def test_unknown_key_is_line_anchored(tmp_path):
    p = write(tmp_path, "run.ini",
              "[index]\nkapa_list = [0.1]\n")
    with pytest.raises(SchemaError) as exc:
        load_config(p)
    msg = str(exc.value)
    assert f"{p}:2:" in msg
    assert "kapa_list" in msg and "[index]" in msg


def test_unknown_section_rejected(tmp_path):
    p = write(tmp_path, "run.ini", "[lattice]\ndim = 2\n\n[paint]\ncolor = red\n")
    with pytest.raises(SchemaError, match=r"run\.ini:4.*paint"):
        load_config(p)


def test_wrong_value_type_rejected(tmp_path):
    p = write(tmp_path, "run.ini", "[lattice]\nseed = fifteen\n")
    with pytest.raises(SchemaError, match=r":2:.*'seed'.*expects int"):
        load_config(p)


@pytest.mark.parametrize("name, key", [("chern_2band_2d", "t1"), ("chiral_ssh_1d", "M"),
                                       ("dimer_chain_1d", "t2"),
                                       ("nn_laplacian", "range_cut")])
def test_model_key_misuse_rejected(tmp_path, name, key):
    # Each builtin model with a key that only another model takes.
    p = write(tmp_path, "run.ini", f"[model]\nname = {name}\n{key} = 0.5\n")
    with pytest.raises(SchemaError, match=rf":3:.*'{key}'.*{name}"):
        load_config(p)


def test_structural_ini_errors(tmp_path):
    with pytest.raises(SchemaError, match="outside"):
        load_config(write(tmp_path, "a.ini", "dim = 2\n"))
    with pytest.raises(SchemaError, match="key = value"):
        load_config(write(tmp_path, "b.ini", "[lattice]\nnonsense\n"))
    with pytest.raises(SchemaError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_json_config_errors(tmp_path):
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_config(write(tmp_path, "a.json", "{"))
    with pytest.raises(SchemaError, match="must be an object"):
        load_config(write(tmp_path, "b.json", "[1, 2]"))
    with pytest.raises(SchemaError, match=r"unknown section \[paint\]"):
        load_config(write(tmp_path, "c.json", '{"paint": {"color": "red"}}'))
    # A key anchors to its own section, not to the first line naming it.
    twice = ('{\n "lattice": {"dim": 2},\n "model": {"name": "chern_2band_2d",\n'
             '  "dim": 2}\n}\n')
    with pytest.raises(SchemaError, match=r"d\.json:4: key 'dim' does not apply"):
        load_config(write(tmp_path, "d.json", twice))
    seeds = ('{\n "lattice": {"seed": 1},\n "experiment": {"n_trials": 3,\n'
             '  "seed": 2}\n}\n')
    with pytest.raises(SchemaError, match=r"e\.json:4: unknown key 'seed' in section \[experiment\]"):
        load_config(write(tmp_path, "e.json", seeds))


# ---------------------------------------------------------------------------
# end-to-end subcommands
# ---------------------------------------------------------------------------

def test_quantization_run_emits_all_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    out = tmp_path / "out"
    assert main(["quantization", "--config", str(cfg), "--out", str(out)]) == 0
    assert "quantization: pass" in capsys.readouterr().out

    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "quantization"
    assert report["verdict"] == "pass"
    assert report["summary"]["integers"] == [1]
    assert report["summary"]["bloch"] == [1]
    assert report["inputs"]["model"]["M"] == 1.0

    assert (out / "spectrum.csv").read_text().startswith("index,eigenvalue")
    assert not (out / "localizer_spectrum.csv").exists()
    trials = (out / "trials.csv").read_text().splitlines()
    assert trials[0] == "trial,seed,index,margin,gap"
    assert len(trials) == 2
    svg = (out / "lattice.svg").read_text()
    assert svg.startswith("<?xml") and "<circle" in svg
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["command"] == "quantization"
    assert "timings" in meta and "timestamp" in meta


def test_report_bytes_identical_across_workers_and_reruns(tmp_path):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    blobs = []
    for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / tag
        assert main(["quantization", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_generate_command_writes_points(tmp_path):
    cfg = write(tmp_path, "gen.ini", """\
[lattice]
generator = hardcore_random
dim = 2
window = [0.0, 8.0]
min_dist = 0.8
target_R = 1.2
seed = 3
""")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["records"][0]["validated"] is True
    assert report["records"][0]["r_pack"] == 0.4
    header = (out / "points.csv").read_text().splitlines()[0]
    assert header == "x0,x1"
    sidecar = json.loads((out / "points.json").read_text())
    assert sidecar["r_pack"] == 0.4


def test_generate_seed_override(tmp_path):
    cfg = write(tmp_path, "gen.ini", """\
[lattice]
generator = hardcore_random
window = [0.0, 8.0]
min_dist = 0.8
target_R = 1.2
seed = 3
""")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out),
                 "--seed", "9"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["inputs"]["lattice"]["seed"] == 9


def test_spectrum_command_reports_gap(tmp_path):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["mu"] == 0.0
    assert report["summary"]["gap"] > 0.1
    assert (out / "spectrum.csv").exists()


def test_spectrum_command_pins_chiral_mu_to_zero(tmp_path):
    # The spectrum of a chiral model resolves mu and its gap like the
    # localizer runs do: mu = 0 and the bulk gap around it, not the centre
    # of the widest gap (which lies between the bulk and the edge modes).
    cfg = write(tmp_path, "run.ini", SSH_INI)
    for command in ("spectrum", "quantization"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    spectrum = json.loads((tmp_path / "spectrum" / "report.json").read_text())
    quant = json.loads((tmp_path / "quantization" / "report.json").read_text())
    assert spectrum["summary"] == {"mu": 0.0, "gap": quant["records"][0]["gap"]}
    assert quant["records"][0]["gap"] == pytest.approx(1.0084913628628982, rel=1e-9)
    assert quant["records"][0]["mu"] == 0.0


def test_omega_command(tmp_path):
    cfg = write(tmp_path, "run.ini", QUANT_INI + """
[experiment]
base_sites = 2
""")
    out = tmp_path / "out"
    assert main(["omega", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "omega_independence"
    assert report["summary"]["indices"] == [1, 1]


def test_omega_collects_window_artifacts_only_for_csv_or_svg(tmp_path, monkeypatch):
    # The whole window is represented once more, and diagonalized, only for
    # spectrum.csv and lattice.svg; a json-only run represents just the
    # recentred windows and writes the same report.
    import delonetop.experiments as experiments

    represented = []
    real = experiments.represent

    def spy(f, sites):
        represented.append(len(sites))
        return real(f, sites)

    monkeypatch.setattr(experiments, "represent", spy)
    cfg = write(tmp_path, "run.ini", QUANT_INI + """
[experiment]
base_sites = 2
""")
    assert main(["omega", "--config", str(cfg), "--out", str(tmp_path / "json"),
                 "--format", "json"]) == 0
    assert len(represented) == 2
    assert not (tmp_path / "json" / "spectrum.csv").exists()
    assert main(["omega", "--config", str(cfg), "--out", str(tmp_path / "all")]) == 0
    assert len(represented) == 5
    assert (tmp_path / "all" / "spectrum.csv").exists()
    assert (tmp_path / "all" / "lattice.svg").exists()
    assert ((tmp_path / "json" / "report.json").read_bytes()
            == (tmp_path / "all" / "report.json").read_bytes())


def test_robustness_command(tmp_path):
    cfg = write(tmp_path, "run.ini", QUANT_INI + """
[experiment]
n_trials = 3
strength_rel = 0.2
master_seed = 1
""")
    out = tmp_path / "out"
    assert main(["robustness", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["included"] == 3
    trials = (out / "trials.csv").read_text().splitlines()
    assert len(trials) == 5  # header + base + 3 trials
    assert trials[1].startswith("base,")


def test_stacking_command(tmp_path):
    cfg = write(tmp_path, "run.ini", """\
[lattice]
generator = periodic
dim = 1
window = [0.0, 30.0]

[model]
name = chiral_ssh_1d
t1 = 0.5
t2 = 1.0

[index]
kappa_list = [0.1]

[experiment]
stack_window = [0.0, 5.0]
control_window = [0.0, 10.0]
""")
    out = tmp_path / "out"
    assert main(["stacking", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["winding"] == -1
    assert report["summary"]["stacked_indices"] == [0]
    assert report["summary"]["control"]["integers"] == [1]


# ---------------------------------------------------------------------------
# the inputs echo: every effective default, CLI and library alike
# ---------------------------------------------------------------------------

# No [experiment] section: every robustness default applies.
ROBUSTNESS_MIN_INI = """\
[lattice]
window = [0.0, 6.0]

[model]
M = 1.0
mu = 0.0

[index]
kappa_list = [0.1]
"""

QUANT_LATTICE = {"dim": 2, "generator": "periodic", "seed": 0, "window": [0, 10]}
CHERN_MODEL = {"M": 1, "mu": 0, "name": "chern_2band_2d"}
QUANT_INDEX = {"kappa_list": [0.15], "x0": "center"}
STACKING_EXPERIMENT = {"control": True, "control_window": [0, 12],
                       "stack_generator": "periodic", "stack_seed": 0,
                       "stack_window": [0, 8]}


@pytest.mark.parametrize("command, text, code, inputs", [
    ("quantization", QUANT_INI, 0, {
        "experiment": {"seeds": [0]}, "index": QUANT_INDEX,
        "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
    ("robustness", ROBUSTNESS_MIN_INI, 0, {
        "experiment": {"master_seed": 0, "n_trials": 30,
                       "perturbation": {"range": 2, "strength_rel": 0.2,
                                        "symmetry": "none"}},
        "index": {"kappa_list": [0.1], "x0": "center"},
        "lattice": {"generator": "periodic", "seed": 0, "window": [0, 6]},
        "model": CHERN_MODEL}),
    ("stacking", SSH_INI, 0, {
        "experiment": {
            "control": {"index": {"kappa_list": [0.1]},
                        "lattice": {"dim": 2, "generator": "periodic",
                                    "window": [0, 12]},
                        "model": {"mu": 0, "name": "chern_2band_2d"}},
            "stack": {"dim": 1, "generator": "periodic", "seed": 0,
                      "window": [0, 8]}},
        "index": {"kappa_list": [0.1], "x0": "center"},
        "lattice": {"dim": 1, "generator": "periodic", "seed": 0, "window": [0, 34]},
        "model": {"mu": "largest-gap", "name": "chiral_ssh_1d", "t1": 0.5, "t2": 1}}),
    ("omega", QUANT_INI, 0, {
        "experiment": {"base_sites": 5}, "index": QUANT_INDEX,
        "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
    ("spectrum", QUANT_INI, 0, {
        "experiment": {}, "index": QUANT_INDEX,
        "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
    ("generate", "[lattice]\nwindow = [0.0, 4.0]\n", 0, {
        "experiment": {}, "index": {"kappa_list": [], "x0": "center"},
        "lattice": {"generator": "periodic", "seed": 0, "window": [0, 4]},
        "model": {"mu": "largest-gap", "name": "chern_2band_2d"}}),
    # a failure report echoes the materialized config, experiment defaults too
    ("stacking", QUANT_INI, 1, {
        "experiment": STACKING_EXPERIMENT, "index": QUANT_INDEX,
        "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
], ids=["quantization", "robustness", "stacking", "omega", "spectrum", "generate",
        "stacking-failure"])
def test_inputs_echo_shows_every_default(tmp_path, command, text, code, inputs):
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == code
    assert json.loads((out / "report.json").read_text())["inputs"] == inputs


def test_cli_and_library_robustness_defaults_agree(tmp_path):
    cfg = write(tmp_path, "run.ini", ROBUSTNESS_MIN_INI)
    out = tmp_path / "out"
    assert main(["robustness", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    cli_report = json.loads((out / "report.json").read_text())
    lib_report = json.loads(dumps17(run_robustness(
        {"window": [0.0, 6.0]}, {"M": 1.0, "mu": 0.0}, {"kappa_list": [0.1]}).as_dict()))
    assert lib_report["records"] == cli_report["records"]
    assert lib_report["summary"] == cli_report["summary"]
    assert lib_report["inputs"]["experiment"] == cli_report["inputs"]["experiment"]
    assert len(cli_report["records"]) == 31


def test_cli_and_library_stacking_control_agree(tmp_path):
    cfg = write(tmp_path, "run.ini", SSH_INI)
    out = tmp_path / "out"
    assert main(["stacking", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    cli_report = json.loads((out / "report.json").read_text())
    lib_report = json.loads(dumps17(run_stacking(
        {"generator": "periodic", "dim": 1, "window": [0.0, 34.0]},
        {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0},
        index_cfg={"kappa_list": [0.1]}).as_dict()))
    control = [r for r in cli_report["records"] if r["stage"] == "control"]
    assert len(control) == 1
    assert [r for r in lib_report["records"] if r["stage"] == "control"] == control
    assert lib_report["summary"]["control"] == cli_report["summary"]["control"]
    assert lib_report["inputs"]["experiment"] == cli_report["inputs"]["experiment"]


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------

def test_schema_error_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[index]\nkapa_list = [0.1]\n")
    assert main(["quantization", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "kapa_list" in err


def test_unknown_format_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    assert main(["quantization", "--config", str(cfg),
                 "--out", str(tmp_path / "out"), "--format", "json,pdf"]) == 2
    assert "pdf" in capsys.readouterr().err


def test_gapless_run_exits_1_with_failure_report(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", """\
[lattice]
window = [0.0, 12.0]

[model]
name = nn_laplacian
dim = 2
mu = 0.0
""")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
    assert "gap_closed" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "fail"
    assert report["summary"]["status"] == "gap_closed"


@pytest.mark.parametrize("command, text", [
    pytest.param("spectrum", QUANT_INI.replace("mu = 0.0", "mu = widest"), id="spectrum"),
    pytest.param("quantization", QUANT_INI.replace("mu = 0.0", "mu = widest"),
                 id="quantization"),
    # [model] is the last section of SSH_INI
    pytest.param("quantization", SSH_INI + "mu = widest\n", id="ssh"),
])
def test_unknown_mu_policy_exits_1(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "mu must be a number or 'largest-gap'" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["status"] == "error"


def test_unconverged_localizer_margin_exits_1_unreliable(tmp_path, capsys,
                                                         monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    out = tmp_path / "out"
    assert main(["quantization", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error [unreliable]" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["status"] == "unreliable"


def test_json_only_format_skips_csv_and_svg(tmp_path):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    out = tmp_path / "out"
    assert main(["quantization", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    assert (out / "report.json").exists()
    assert not (out / "spectrum.csv").exists()
    assert not (out / "lattice.svg").exists()


def test_unwritable_output_directory_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = main(["quantization", "--config", str(cfg),
               "--out", str(blocker / "out")])
    assert rc == 1
    assert "cannot write artifacts" in capsys.readouterr().err


def test_robustness_report_stable_across_blas_thread_counts(tmp_path):
    # The reproducibility contract at the granularity that holds: integers,
    # statuses and the verdict are exact across OPENBLAS_NUM_THREADS, floats
    # agree to 1e-9 relative (they move in the last digits).
    cfg = write(tmp_path, "run.ini", """\
[lattice]
generator = periodic
dim = 2
window = [0.0, 6.0]

[model]
name = chern_2band_2d
M = 1.0
mu = 0.0

[index]
kappa_list = [0.1]

[experiment]
n_trials = 3
strength_rel = 0.2
master_seed = 0
""")
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = tmp_path / f"t{threads}"
        proc = subprocess.run([sys.executable, "-m", "delonetop", "robustness",
                               "--config", str(cfg), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads((out / "report.json").read_text()))
    one, two = reports

    def same(a, b, where):
        if isinstance(a, float) and isinstance(b, float):
            assert math.isclose(a, b, rel_tol=1e-9), where
        elif isinstance(a, dict):
            assert a.keys() == b.keys(), where
            for k in a:
                same(a[k], b[k], f"{where}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), where
            for k, (x, y) in enumerate(zip(a, b)):
                same(x, y, f"{where}[{k}]")
        else:
            assert a == b, where

    # Integers, statuses and the verdict compare exactly, floats at 1e-9.
    same(one, two, "report")
    assert one["verdict"] == "pass"
    assert [(r["index"], r["status"]) for r in one["records"]] == [(1, "ok")] * 4


def test_cli_import_leaves_sparse_solvers_unloaded():
    # The even localizer imports scipy.sparse.csgraph (component labels) and
    # scipy.sparse.linalg (ARPACK margin) at call time, so that starting the
    # CLI does not pay for them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, delonetop.cli; "
            "print([m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
