import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delonetop.cli import SchemaError, load_config, main

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


def test_model_key_misuse_rejected(tmp_path):
    p = write(tmp_path, "run.ini",
              "[model]\nname = chern_2band_2d\nt1 = 0.5\n")
    with pytest.raises(SchemaError, match=r":3:.*'t1'.*chern_2band_2d"):
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


@pytest.mark.parametrize("command", ["spectrum", "quantization"])
def test_unknown_mu_policy_exits_1(tmp_path, capsys, command):
    cfg = write(tmp_path, "run.ini", QUANT_INI.replace("mu = 0.0", "mu = widest"))
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
