import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delonetop import experiments
from delonetop.cli import SchemaError, load_config, main
from delonetop.errors import InvalidInput
from delonetop.experiments import (run_omega_independence, run_quantization,
                                   run_robustness, run_stacking)
from delonetop.serialize import dumps17

# QUANT_INI without the [index] section, which spectrum does not read
CHERN_INI = """\
# two-band model on a small periodic window
[lattice]
generator = periodic
dim = 2
window = [0.0, 10.0]

[model]
name = chern_2band_2d
M = 1.0
mu = 0.0
"""

QUANT_INI = CHERN_INI + """
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


@pytest.mark.parametrize("command, section, key, value, kind", [
    ("quantization", "index", "kappa_list", ["a"], "numbers"),
    ("quantization", "index", "x0", ["a", 1], "str-or-numbers"),
    ("quantization", "lattice", "window", ["a", 12.0], "window"),
    ("quantization", "lattice", "window", [[0.0, 12.0], [0.0]], "window"),
    ("quantization", "lattice", "window", [], "window"),
    ("stacking", "experiment", "stack_window", [0.0, "b"], "window"),
    ("stacking", "experiment", "control_window", [0.0, 6.0, 12.0], "window"),
    ("quantization", "lattice", "seeds", ["x"], "ints"),
    ("quantization", "lattice", "seeds", [1.5, 2], "ints"),
    ("omega", "experiment", "base_sites", [84.9], "int-or-ints"),
    ("omega", "experiment", "base_sites", [True], "int-or-ints"),
], ids=["kappa_list", "x0", "window", "window-axis", "window-empty", "stack_window",
        "control_window", "seeds-str", "seeds-float", "base_sites-float",
        "base_sites-bool"])
def test_list_element_of_the_wrong_kind_exits_2(tmp_path, capsys, command, section, key,
                                                value, kind):
    cfg = write(tmp_path, "run.ini", f"[{section}]\n{key} = {json.dumps(value)}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (f"run.ini:2: key {key!r} in [{section}] expects {kind}, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_list_valued_keys_accept_each_of_their_forms(tmp_path):
    body = {"lattice": {"window": [[0.0, 4.0], [0, 2]], "seeds": [1, 2]},
            "index": {"kappa_list": [0.1, 1], "x0": [1.0, 2]},
            "experiment": {"base_sites": [84, 90], "control_window": 6}}
    cfg = write(tmp_path, "run.json", json.dumps(body, indent=1))
    assert load_config(cfg) == body
    empty = write(tmp_path, "empty.ini", "[index]\nkappa_list = []\n")
    assert load_config(empty) == {"index": {"kappa_list": []}}


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


@pytest.mark.parametrize("command, key, value", [
    ("quantization", "n_trials", 3),
    ("robustness", "stack_window", [0.0, 4.0]),
    ("stacking", "n_trials", 3),
])
def test_experiment_key_of_another_command_is_rejected(tmp_path, capsys, command,
                                                       key, value):
    ini = write(tmp_path, "run.ini",
                QUANT_INI + f"\n[experiment]\n{key} = {json.dumps(value)}\n")
    js = write(tmp_path, "run.json",
               json.dumps({**QUANT_JSON, "experiment": {key: value}}, indent=1))
    for cfg in (ini, js):
        line = next(n for n, text in enumerate(cfg.read_text().splitlines(), 1)
                    if key in text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert (f"{cfg.name}:{line}: key {key!r} in [experiment] does not apply "
                f"to command {command!r}") in capsys.readouterr().err
        # Read without a command, the same file passes the schema.
        assert load_config(cfg)["experiment"] == {key: value}
    assert not (tmp_path / "out").exists()


# (command, section, key, value): a one-key config the command does not read.
_COMMAND_DOES_NOT_READ = [
    *[pytest.param(command, "lattice", "seeds", [3, 4], id=f"seeds-{command}")
      for command in ("robustness", "stacking", "omega", "spectrum", "generate")],
    pytest.param("omega", "index", "x0", [5.0, 5.0], id="x0-omega"),
    pytest.param("omega", "index", "x0", "center", id="x0-center-omega"),
    pytest.param("generate", "model", "M", 3.0, id="M-generate"),
    pytest.param("generate", "model", "name", "chern_2band_2d", id="name-generate"),
    *[pytest.param(command, "index", key, value, id=f"{key}-{command}")
      for command in ("generate", "spectrum")
      for key, value in (("margin_min", 0.5), ("kappa_list", [0.1]), ("x0", "center"))],
]


@pytest.mark.parametrize("command, section, key, value", _COMMAND_DOES_NOT_READ)
def test_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, section, key,
                                               value):
    # Only quantization runs several seeds, omega moves x0 over its sites,
    # generate reads no [model] and neither generate nor spectrum reads
    # [index]: elsewhere the key would be echoed in the report and never used.
    cfg = write(tmp_path, "run.ini", f"[{section}]\n{key} = {json.dumps(value)}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (f"run.ini:2: key {key!r} in [{section}] does not apply to command "
            f"{command!r}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert load_config(cfg, "quantization") == load_config(cfg) == {section: {key: value}}


@pytest.mark.parametrize("section, body, key, reader", [
    ("lattice", {"generator": "fibonacci_1d", "window": [0.0, 100.0]}, "window",
     "generator 'fibonacci_1d'"),
    ("lattice", {"generator": "periodic", "max_disp": 0.1}, "max_disp",
     "generator 'periodic'"),
    # a section that names no generator or model gets the one DEFAULTS names
    ("lattice", {"window": [0.0, 6.0], "min_dist": 0.8}, "min_dist",
     "generator 'periodic'"),
    ("model", {"M": 1.0, "t1": 0.5}, "t1", "model 'chern_2band_2d'"),
], ids=["fibonacci-window", "periodic-max_disp", "default-min_dist", "default-model-t1"])
def test_key_its_generator_or_model_does_not_read_exits_2(tmp_path, capsys, section,
                                                          body, key, reader):
    ini = write(tmp_path, "run.ini", f"[{section}]\n" + "".join(
        f"{k} = {json.dumps(v)}\n" for k, v in body.items()))
    js = write(tmp_path, "run.json", json.dumps({section: body}, indent=1))
    for cfg in (ini, js):
        line = next(n for n, text in enumerate(cfg.read_text().splitlines(), 1)
                    if key in text)
        assert main(["quantization", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert (f"{cfg.name}:{line}: key {key!r} does not apply to {reader}"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_optional_experiment_keys_are_accepted(tmp_path):
    stack = write(tmp_path, "s.ini", "[experiment]\nstack_generator = hardcore_random\n"
                  "stack_min_dist = 0.8\nstack_target_R = 1.2\n")
    assert load_config(stack, "stacking")["experiment"] == {
        "stack_generator": "hardcore_random", "stack_min_dist": 0.8,
        "stack_target_R": 1.2}
    with pytest.raises(SchemaError, match=r"s\.ini:2: key 'stack_generator'"):
        load_config(stack, "robustness")


# (command, body, key, message): a config the run would reject, the key
# its message is anchored at and the message.
_RUN_WOULD_REJECT = [
    pytest.param("spectrum", "[model]\nname = kagome\n", "name",
                 "unknown model name 'kagome'", id="model-name"),
    pytest.param("generate", "[lattice]\ngenerator = penrose\n", "generator",
                 "unknown lattice generator 'penrose'", id="generator"),
    pytest.param("generate", "[lattice]\ngenerator = fibonacci_1d\ndim = 2\n", "dim",
                 "generator 'fibonacci_1d' makes 1D sets, not 2D",
                 id="cut-and-project-dim"),
    pytest.param("stacking", SSH_INI + "[experiment]\nstack_min_dist = 0.8\n",
                 "stack_min_dist",
                 "key 'stack_min_dist' does not apply to stack_generator 'periodic'",
                 id="stack_min_dist"),
    # a cut-and-project stack set reads no stack_window, not even its default
    pytest.param("stacking", SSH_INI + "[experiment]\nstack_generator = fibonacci_1d\n",
                 "stack_generator", "key 'stack_window' does not apply to stack_generator "
                 "'fibonacci_1d'", id="stack-generator"),
]


@pytest.mark.parametrize("command, body, key, message", _RUN_WOULD_REJECT)
def test_config_the_run_would_reject_exits_2(tmp_path, capsys, command, body, key,
                                             message):
    cfg = write(tmp_path, "run.ini", body)
    line = next(n for n, text in enumerate(body.splitlines(), 1)
                if text.startswith(key + " "))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"run.ini:{line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_DRIVERS = {"quantization": run_quantization, "robustness": run_robustness,
            "stacking": run_stacking, "omega": run_omega_independence}


@pytest.mark.parametrize("command, body", [
    *[pytest.param(*p.values[:2], id=p.id) for p in _RUN_WOULD_REJECT
      if p.values[0] in _DRIVERS],
    *[pytest.param(command, f"[{section}]\n{key} = {json.dumps(value)}\n", id=p.id)
      for p in _COMMAND_DOES_NOT_READ
      for command, section, key, value in [p.values] if command in _DRIVERS],
])
def test_cli_and_library_reject_a_config_with_one_message(tmp_path, monkeypatch, command,
                                                          body):
    # load_config and the command's driver hold the config to one key rule
    # (experiments.unread_key): the same message, the CLI's anchored at a line.
    def no_solve(*args):
        raise AssertionError("the driver represented H before its key check")

    monkeypatch.setattr(experiments, "represent", no_solve)
    cfg = write(tmp_path, "run.ini", body)
    with pytest.raises(SchemaError) as cli_err:
        load_config(cfg, command)
    sections = load_config(cfg)
    kwargs = {} if command == "quantization" else {"experiment": sections.get("experiment")}
    with pytest.raises(InvalidInput) as lib_err:
        _DRIVERS[command](sections.get("lattice", {}), sections.get("model", {}),
                          sections.get("index"), **kwargs)
    line, _, message = str(cli_err.value).removeprefix(f"{cfg}:").partition(": ")
    assert line.isdigit() and message == str(lib_err.value)


def test_load_config_rejects_an_unknown_command(tmp_path):
    with pytest.raises(SchemaError, match="unknown command 'quantisation'"):
        load_config(write(tmp_path, "run.ini", QUANT_INI), "quantisation")


def test_benchmark_workload_configs_pass_the_schema(tmp_path, monkeypatch):
    # Each call of every benchmark workload, full and smoke, written as JSON
    # the way perfbench/child.py writes it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    calls = [call for w in workloads.WORKLOADS.values() for smoke in (False, True)
             for call in w.calls(w.default_seed, smoke=smoke)]
    assert len(calls) == 8
    for k, (command, config) in enumerate(calls):
        cfg = tmp_path / f"config_{k}.json"
        cfg.write_text(json.dumps(config))
        assert load_config(cfg, command) == config


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


def test_spectrum_command_reports_gap(tmp_path):
    cfg = write(tmp_path, "run.ini", CHERN_INI)
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
    no_index = SSH_INI.replace("[index]\nkappa_list = [0.1]\n\n", "")
    for command, text in (("spectrum", no_index), ("quantization", SSH_INI)):
        cfg = write(tmp_path, f"{command}.ini", text)
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


def test_omega_represents_and_solves_its_window_once(tmp_path, monkeypatch):
    # x0 moves over the chosen sites of one window: a run represents the
    # window once and solves its spectrum once, whatever the number of
    # sites, and that spectrum also feeds spectrum.csv and lattice.svg.
    import scipy.linalg

    import delonetop.experiments as experiments

    represented, solved = [], []
    real = experiments.represent

    def spy(f, sites):
        represented.append(len(sites))
        return real(f, sites)

    def counted(name, fn):
        def wrapped(a, *args, **kwargs):
            solved.append((name, a.shape[0]))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(experiments, "represent", spy)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
    for base_sites in (2, 5):
        cfg = write(tmp_path, "run.ini", QUANT_INI + f"""
[experiment]
base_sites = {base_sites}
""")
        out = tmp_path / f"out{base_sites}"
        represented.clear()
        solved.clear()
        assert main(["omega", "--config", str(cfg), "--out", str(out)]) == 0
        assert represented == [121]
        assert solved == [("eigvalsh", 242)]
        assert (out / "lattice.svg").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["indices"] == [1] * base_sites
    # The spectrum is the window's.
    rows = (tmp_path / "out5" / "spectrum.csv").read_text().splitlines()[1:]
    window = experiments.build_lattice(QUANT_JSON["lattice"])
    f = experiments.builtin_model("chern_2band_2d", M=1.0)
    want = np.linalg.eigvalsh(real(f, window).to_dense())
    assert np.allclose([float(r.split(",")[1]) for r in rows], want, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("text, certified, solved", [
    (CHERN_INI + "[index]\nkappa_list = [0.1]\n[experiment]\nn_trials = 2\n", 2, 0),
    (SSH_INI.replace("[0.0, 34.0]", "[0.0, 50.0]")
     + "[experiment]\nn_trials = 3\nsymmetry = chiral\n", 0, 3),
], ids=["chern-10", "ssh-chiral"])
def test_robustness_diagnostics_land_in_run_meta_only(tmp_path, text, certified, solved):
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert main(["robustness", "--config", str(cfg), "--out", str(out)]) == 0
    diagnostics = json.loads((out / "run_meta.json").read_text())["diagnostics"]
    assert (diagnostics["certified"], diagnostics["solved"]) == (certified, solved)
    assert (diagnostics["min_headroom"] > 0) == bool(certified)
    assert "diagnostics" not in (out / "report.json").read_text()


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
    # omega moves x0 over its base sites, spectrum reads no [index] and
    # generate neither [model] nor [index]: none of them echoes what it
    # does not read
    ("omega", QUANT_INI, 0, {
        "experiment": {"base_sites": 5}, "index": {"kappa_list": [0.15]},
        "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
    ("spectrum", CHERN_INI, 0, {
        "experiment": {}, "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
    ("generate", "[lattice]\nwindow = [0.0, 4.0]\n", 0, {
        "experiment": {},
        "lattice": {"generator": "periodic", "seed": 0, "window": [0, 4]}}),
    # a failure report echoes the materialized config, experiment defaults too
    ("stacking", QUANT_INI, 1, {
        "experiment": STACKING_EXPERIMENT, "index": QUANT_INDEX,
        "lattice": QUANT_LATTICE, "model": CHERN_MODEL}),
], ids=["quantization", "robustness", "stacking", "omega", "spectrum", "generate",
        "stacking-failure"])
def test_inputs_echo_shows_every_default(tmp_path, command, text, code, inputs):
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert json.loads((out / "report.json").read_text())["inputs"] == inputs


def test_cli_and_library_robustness_defaults_agree(tmp_path):
    cfg = write(tmp_path, "run.ini", ROBUSTNESS_MIN_INI)
    out = tmp_path / "out"
    assert main(["robustness", "--config", str(cfg), "--out", str(out)]) == 0
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
    assert main(["stacking", "--config", str(cfg), "--out", str(out)]) == 0
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


@pytest.mark.parametrize("command, text, section, key", [
    ("quantization", QUANT_INI + "sector_radius = 3.0\n", "index", "sector_radius"),
    ("quantization", QUANT_INI + "sector_theta0 = 0.5\n", "index", "sector_theta0"),
    ("quantization", QUANT_INI + "fhs_grid = 16\n", "index", "fhs_grid"),
    ("stacking", SSH_INI.replace("[model]", "winding_samples = 512\n\n[model]"),
     "index", "winding_samples"),
    ("robustness", QUANT_INI + "[experiment]\nstrength = 0.05\n", "experiment", "strength"),
], ids=["sector_radius", "sector_theta0", "fhs_grid", "winding_samples", "strength"])
def test_removed_key_exits_2_at_its_line(tmp_path, capsys, command, text, section, key):
    cfg = write(tmp_path, "run.ini", text)
    line = next(n for n, t in enumerate(text.splitlines(), 1) if t.startswith(key))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (f"run.ini:{line}: unknown key {key!r} in section [{section}]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--seed", "9"], ["--format", "json"]],
                         ids=["seed", "format"])
def test_removed_flag_exits_2(tmp_path, capsys, flag):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    with pytest.raises(SystemExit) as exc:
        main(["quantization", "--config", str(cfg), "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_1_exits_2(tmp_path, capsys, workers):
    cfg = write(tmp_path, "run.ini", QUANT_INI)
    with pytest.raises(SystemExit) as exc:
        main(["quantization", "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--workers", workers])
    assert exc.value.code == 2
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    pytest.param("spectrum", CHERN_INI.replace("mu = 0.0", "mu = widest"), id="spectrum"),
    pytest.param("quantization", QUANT_INI.replace("mu = 0.0", "mu = widest"),
                 id="quantization"),
    # [model] is the last section of SSH_INI
    pytest.param("quantization", SSH_INI + "mu = widest\n", id="ssh"),
    pytest.param("omega", QUANT_INI.replace("mu = 0.0", "mu = widest"), id="omega"),
])
def test_unknown_mu_policy_exits_1(tmp_path, capsys, monkeypatch, command, text):
    # The policy's form is checked before H is represented.
    def no_solve(*args):
        raise AssertionError("H was represented before the mu policy check")

    monkeypatch.setattr(experiments, "represent", no_solve)
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "mu must be a number or 'largest-gap'" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["status"] == "error"


@pytest.mark.parametrize("command", ["quantization", "robustness"])
def test_x0_of_another_dimension_exits_1(tmp_path, capsys, monkeypatch, command):
    # A 3-vector x0 passes the schema; on a 2D window the run rejects it
    # before H is represented, with a failure report, not a traceback.
    def no_solve(*args):
        raise AssertionError("H was represented before the x0 check")

    monkeypatch.setattr(experiments, "represent", no_solve)
    cfg = write(tmp_path, "run.ini", QUANT_INI + "x0 = [3.0, 3.0, 3.0]\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert ("error [error]: x0 must be a finite point of the ambient dimension"
            in capsys.readouterr().err)
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "fail"
    assert report["summary"]["status"] == "error"


_STACK = "[experiment]\nstack_window = [0.0, 3.0]\n"


@pytest.mark.parametrize("command, text, solves", [
    pytest.param("quantization", QUANT_INI, [("zhetrd", 242)], id="quantization-2d"),
    pytest.param("quantization", SSH_INI, [("eigvalsh", 70)], id="quantization-1d"),
    pytest.param("robustness", QUANT_INI + "[experiment]\nn_trials = 2\n",
                 [("eigvalsh", 242)], id="robustness"),
    pytest.param("stacking", SSH_INI + _STACK + "control = false\n",
                 [("eigvalsh", 70)] * 5, id="stacking"),
    pytest.param("stacking", SSH_INI + _STACK + "control_window = [0.0, 6.0]\n",
                 [("eigvalsh", 70)] * 5 + [("zhetrd", 98)], id="stacking-control"),
    pytest.param("omega", QUANT_INI + "[experiment]\nbase_sites = 2\n",
                 [("eigvalsh", 242)], id="omega"),
    pytest.param("spectrum", CHERN_INI, [("eigvalsh", 242)], id="spectrum"),
])
def test_each_command_forms_eigenvectors_only_for_kitaev(tmp_path, monkeypatch, command,
                                                         text, solves):
    # Every window is represented and solved through one pipeline: one
    # window-sized eigvalsh per window (the stacked chain's layers are
    # windows too), and where the Kitaev oracle reads eigenvectors, a 2D
    # quantization window (the stacking control's), one Householder
    # reduction (zhetrd) and no eigh: the Bloch oracle's grid solves go
    # through NumPy.
    import scipy.linalg

    solved = []

    def counted(name, fn):
        def wrapped(a, *args, **kwargs):
            solved.append((name, a.shape[0]))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
    monkeypatch.setattr(scipy.linalg.lapack, "zhetrd",
                        counted("zhetrd", scipy.linalg.lapack.zhetrd))
    cfg = write(tmp_path, "run.ini", text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert solved == solves


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
    # The even localizer imports scipy.sparse.linalg (ARPACK margin) at call
    # time, so that starting the CLI does not pay for it; its component
    # labels need no scipy.sparse.csgraph at all.
    assert _modules_loaded_after(
        "import delonetop.cli",
        ("scipy.sparse.csgraph", "scipy.sparse.linalg")) == "[]"


def _modules_loaded_after(code, modules):
    """The modules of `modules` that a fresh interpreter has loaded after
    running `code`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code += f"\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_spatial_special_and_constants_unloaded():
    # The neighbour engine is NumPy alone: scipy.spatial would pull in
    # scipy.special and scipy.constants with it.
    assert _modules_loaded_after(
        "import delonetop.cli",
        ("scipy.spatial", "scipy.special", "scipy.constants")) == "[]"


def test_runs_never_load_csgraph():
    # The stacking multiplicity check labels components with NumPy.
    code = """\
from delonetop.experiments import run_robustness, run_stacking
run_robustness({"window": [0.0, 6.0]}, {"M": 1.0, "mu": 0.0},
               {"kappa_list": [0.1]}, {"n_trials": 2})
rep = run_stacking({"generator": "periodic", "dim": 1, "window": [0.0, 20.0]},
                   {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0},
                   {"kappa_list": [0.1]}, {"stack_window": [0.0, 4.0], "control": False})
assert rep.passed
"""
    assert _modules_loaded_after(code, ("scipy.sparse.csgraph",)) == "[]"
