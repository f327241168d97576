"""Batch front-end: config ingestion, experiment dispatch, artifact emission.

Configs are INI-style section/key files (JSON accepted interchangeably);
every key is schema-checked and unknown keys are rejected with a
line-anchored message (exit code 2).  Runs write report.json, spectrum.csv,
trials.csv, lattice.svg and a run_meta.json holding timestamps and timings,
which is excluded from golden comparisons.  Exit code 0 iff the experiment
verdict is pass; runtime failures exit 1 with the failure recorded in
report.json.
"""

from __future__ import annotations

import argparse
import datetime
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GapUndefined, LocalizerUnreliable, ToolkitError
from .experiments import (DEFAULTS, EXPERIMENT_DEFAULTS, ExperimentReport,
                          _model_from_cfg, _mu_gap, build_lattice,
                          run_omega_independence, run_quantization,
                          run_robustness, run_stacking)
from .geometry import validate_delone, write_pointset
from .groupoid import BUILTIN_MODELS, represent
from .serialize import dumps17, format_float, to_plain
from .spectral import eig_hermitian, write_spectrum_csv

__all__ = ["main", "entry", "load_config", "emit_report", "SchemaError"]


class SchemaError(Exception):
    """Config schema violation; message carries file and line anchors."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
    "num-or-str": lambda v: _is_number(v) or isinstance(v, str),
    "str-or-list": lambda v: isinstance(v, (str, list)),
    "int-or-list": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or isinstance(v, list),
    "window": lambda v: _is_number(v) or isinstance(v, list),
}

_SCHEMA = {
    "lattice": {
        "generator": "str", "dim": "int", "spacing": "float", "window": "window",
        "seed": "int", "seeds": "list", "min_dist": "float", "target_R": "float",
        "max_disp": "float", "max_attempts": "int", "length": "float",
        "radius": "float",
    },
    "model": {"name": "str", "mu": "num-or-str"},
    "index": {
        "kappa_list": "list", "x0": "str-or-list", "margin_min": "float",
        "sector_radius": "float", "sector_theta0": "float", "fhs_grid": "int",
        "winding_samples": "int",
    },
    "experiment": {
        "n_trials": "int", "master_seed": "int", "strength": "float",
        "strength_rel": "float", "range": "float", "symmetry": "str",
        "base_sites": "int-or-list", "control": "bool",
        "stack_generator": "str", "stack_window": "window", "stack_seed": "int",
        "stack_min_dist": "float", "stack_target_R": "float",
        "control_window": "window",
    },
    "output": {"dir": "str", "formats": "str-or-list"},
}

# A model's keys and kinds: its factory's parameters and their annotations.
_MODEL_PARAMS = {
    name: {p.name: p.annotation.__name__
           for p in inspect.signature(factory, eval_str=True).parameters.values()}
    for name, factory in BUILTIN_MODELS.items()
}
_SCHEMA["model"].update(kv for params in _MODEL_PARAMS.values() for kv in params.items())


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _read_ini(path: Path) -> dict:
    """Tiny INI reader: [section], key = value, #/; comments.

    Values are parsed as JSON where possible, otherwise kept as strings.
    Returns {section: {key: (value, lineno)}}.
    """
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise SchemaError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise SchemaError(f"{path}:{lineno}: key outside of any [section]")
        key, _, val = line.partition("=")
        sections[current][key.strip()] = (_parse_scalar(val.strip()), lineno)
    return sections


def _read_json_config(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}:{err.lineno}: invalid JSON: {err.msg}")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}:1: top level must be an object of sections")

    lines = text.splitlines()
    at = 1

    def line_of(name: str) -> int:
        # Sections and keys come in file order, so searching on from the
        # last anchor finds a key in its own section.
        nonlocal at
        needle = f'"{name}"'
        at = next((n for n in range(at, len(lines) + 1) if needle in lines[n - 1]), at)
        return at

    sections = {}
    for sec, body in doc.items():
        lineno = line_of(sec)
        if sec not in _SCHEMA:
            raise SchemaError(f"{path}:{lineno}: unknown section [{sec}]")
        if not isinstance(body, dict):
            raise SchemaError(f"{path}:{lineno}: section [{sec}] must be an object")
        sections[sec] = {k: (v, line_of(k)) for k, v in body.items()}
    return sections


def load_config(path) -> dict:
    """Read and schema-check a config file; returns {section: {key: value}}."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: config file not found")
    raw = _read_json_config(path) if path.suffix == ".json" else _read_ini(path)
    out: dict = {}
    for sec, body in raw.items():
        out[sec] = {}
        for key, (value, lineno) in body.items():
            kind = _SCHEMA[sec].get(key)
            if kind is None:
                raise SchemaError(
                    f"{path}:{lineno}: unknown key {key!r} in section [{sec}]")
            if not _KINDS[kind](value):
                raise SchemaError(
                    f"{path}:{lineno}: key {key!r} in [{sec}] expects {kind}, "
                    f"got {value!r}")
            out[sec][key] = value
    model = out.get("model", {})
    name = model.get("name")
    params = _MODEL_PARAMS.get(name)
    if params is not None:
        for key in model:
            if key in ("name", "mu"):
                continue
            if key not in params:
                lineno = raw["model"][key][1]
                raise SchemaError(
                    f"{path}:{lineno}: key {key!r} does not apply to model {name!r}")
    return out


def _materialize(cfg: dict, command: str, seed_override: int | None) -> dict:
    """Fill defaults so the echoed config shows every effective setting."""
    out = {sec: {**defaults, **cfg.get(sec, {})} for sec, defaults in DEFAULTS.items()}
    if seed_override is not None:
        out["lattice"]["seed"] = seed_override
        out["lattice"].pop("seeds", None)
    out["experiment"] = {**EXPERIMENT_DEFAULTS.get(command, {}),
                         **cfg.get("experiment", {})}
    return out


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

def _lerp_color(t: float) -> str:
    """Two-stop diverging ramp, blue -> white -> red."""
    lo, mid, hi = (33, 102, 172), (247, 247, 247), (178, 24, 43)
    if t <= 0.5:
        a, b, s = lo, mid, t / 0.5
    else:
        a, b, s = mid, hi, (t - 0.5) / 0.5
    rgb = tuple(round(x + (y - x) * s) for x, y in zip(a, b))
    return "#%02x%02x%02x" % rgb


def render_lattice_svg(sites, values, title: str) -> str:
    """Sites as circles of radius r_pack colored by their on-site value."""
    pts = sites.points
    if sites.dim == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(len(sites))])
        lo = np.array([float(sites.window[0][0]), -2.0])
        hi = np.array([float(sites.window[1][0]), 2.0])
    elif sites.dim == 2:
        lo, hi = sites.window[0].astype(float), sites.window[1].astype(float)
    else:
        raise ValueError("SVG rendering supports dim 1 and 2 only")
    values = np.asarray(values, dtype=float)
    if values.size != len(sites):
        values = np.zeros(len(sites))
    vmin, vmax = (values.min(), values.max()) if values.size else (0.0, 0.0)
    span = vmax - vmin

    pad = max(sites.r_pack * 2.0, 0.05 * float((hi - lo).max()) if len(sites) else 1.0)
    width = hi[0] - lo[0] + 2 * pad
    height = hi[1] - lo[1] + 2 * pad
    fmt = lambda v: format_float(float(v)) if isinstance(v, float) else str(v)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(lo[0] - pad)} {fmt(lo[1] - pad)} {fmt(width)} {fmt(height)}">',
        f'<text x="{fmt(lo[0])}" y="{fmt(lo[1] - pad / 2)}" '
        f'font-size="{fmt(pad / 2)}">{title}</text>',
        f'<line x1="{fmt(lo[0])}" y1="{fmt(lo[1])}" x2="{fmt(hi[0])}" '
        f'y2="{fmt(lo[1])}" stroke="#888888" stroke-width="{fmt(pad / 20)}"/>',
    ]
    for p, v in zip(pts, values):
        t = 0.5 if span == 0 else (float(v) - vmin) / span
        out.append(
            f'<circle cx="{fmt(p[0])}" cy="{fmt(p[1])}" r="{fmt(sites.r_pack)}" '
            f'fill="{_lerp_color(t)}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def emit_report(report: ExperimentReport, outdir, formats, meta: dict) -> Path:
    """Write report.json and sibling artifacts; bytes depend only on content.

    All wall-clock data lands in run_meta.json, never in report.json, so
    identical (config, seed) runs compare byte-for-byte.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    formats = set(formats)

    report_path = outdir / "report.json"
    _write_text(report_path, dumps17(to_plain(report.as_dict())))

    if "csv" in formats:
        if "spectrum" in report.artifacts:
            write_spectrum_csv(outdir / "spectrum.csv", report.artifacts["spectrum"])
        if report.records:
            rows = ["trial,seed,index,margin,gap"]
            for k, rec in enumerate(report.records):
                rows.append(",".join(_csv_cell(rec.get(col, "" if col != "trial" else k))
                                     for col in ("trial", "seed", "index",
                                                 "margin", "gap")))
            _write_text(outdir / "trials.csv", "\n".join(rows) + "\n")

    if "svg" in formats and "sites" in report.artifacts:
        sites = report.artifacts["sites"]
        if sites.dim <= 2:
            values = report.artifacts.get("onsite", np.zeros(len(sites)))
            _write_text(outdir / "lattice.svg",
                        render_lattice_svg(sites, values, report.experiment))

    meta = dict(meta)
    meta["timings"] = dict(report.timings)
    _write_text(outdir / "run_meta.json", dumps17(to_plain(meta)))
    return report_path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(cfg: dict, workers: int) -> ExperimentReport:
    sites = build_lattice(cfg["lattice"])
    grid_step = min(sites.r_pack / 2.0, sites.R_cov / 8.0)
    val = validate_delone(sites, grid_step=grid_step)
    report = ExperimentReport("generate", cfg)
    report.records.append({
        "n_sites": len(sites),
        "r_pack": sites.r_pack,
        "R_cov": sites.R_cov,
        "min_pair_half": val.min_pair_half,
        "max_cover_radius_estimate": val.max_cover_radius_estimate,
        "validated": val.passed,
    })
    report.passed = val.passed
    report.summary = {"n_sites": len(sites), "validated": val.passed}
    report.artifacts["sites"] = sites
    report.artifacts["onsite"] = np.zeros(len(sites))
    return report


def _cmd_spectrum(cfg: dict, workers: int) -> ExperimentReport:
    sites = build_lattice(cfg["lattice"])
    f, mu_policy = _model_from_cfg(cfg["model"])
    hdata = eig_hermitian(represent(f, sites).to_dense())
    mu, gap = _mu_gap(hdata.eigenvalues, mu_policy, f.grading)
    report = ExperimentReport("spectrum", cfg)
    report.records.append({
        "n_sites": len(sites), "mu": mu, "gap_below": gap.below,
        "gap_above": gap.above, "gap": gap.width,
    })
    report.summary = {"mu": mu, "gap": gap.width}
    report.passed = True
    report.artifacts["sites"] = sites
    report.artifacts["onsite"] = np.zeros(len(sites))
    report.artifacts["spectrum"] = np.asarray(hdata.eigenvalues)
    return report


def _dispatch(command: str, cfg: dict, workers: int,
              formats) -> ExperimentReport:
    lattice, model, index = cfg["lattice"], cfg["model"], cfg["index"]
    exp = cfg["experiment"]
    if command == "generate":
        return _cmd_generate(cfg, workers)
    if command == "spectrum":
        return _cmd_spectrum(cfg, workers)
    if command in ("index", "quantization"):
        return run_quantization(lattice, model, index, workers=workers)
    if command == "robustness":
        return run_robustness(lattice, model, index, exp, workers=workers)
    if command == "stacking":
        return run_stacking(lattice, model, index, exp, workers=workers)
    if command == "omega":
        # The window spectrum and site map feed only spectrum.csv and
        # lattice.svg.
        return run_omega_independence(
            lattice, model, index, exp, workers=workers,
            collect_artifacts=bool({"csv", "svg"} & set(formats)))
    raise SchemaError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delonetop",
        description="Tight-binding models on Delone sets and their localizer indices.")
    parser.add_argument("command",
                        choices=["generate", "spectrum", "index", "quantization",
                                 "robustness", "stacking", "omega"])
    parser.add_argument("--config", required=True, help="INI or JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the lattice seed")
    parser.add_argument("--workers", type=int, default=1, help="task pool size")
    parser.add_argument("--format", default=None,
                        help="comma-separated subset of json,csv,svg")
    args = parser.parse_args(argv)

    started = time.time()
    try:
        cfg_sections = load_config(args.config)
    except SchemaError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    cfg = _materialize(cfg_sections, args.command, args.seed)
    out_cfg = cfg_sections.get("output", {})
    outdir = Path(args.out if args.out is not None else out_cfg.get("dir", "out"))
    fmt_spec = args.format if args.format is not None else out_cfg.get(
        "formats", "json,csv,svg")
    if isinstance(fmt_spec, str):
        formats = [s.strip() for s in fmt_spec.split(",") if s.strip()]
    else:
        formats = [str(s) for s in fmt_spec]
    unknown = set(formats) - {"json", "csv", "svg"}
    if unknown:
        print(f"config error: unknown formats {sorted(unknown)}", file=sys.stderr)
        return 2

    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": args.command,
        "config_path": str(args.config),
        "workers": args.workers,
        "version": __version__,
    }

    try:
        report = _dispatch(args.command, cfg, max(1, args.workers), formats)
    except ToolkitError as err:
        status = "gap_closed" if isinstance(err, GapUndefined) else (
            "unreliable" if isinstance(err, LocalizerUnreliable) else "error")
        failure = ExperimentReport(args.command, cfg)
        failure.passed = False
        failure.summary = {"status": status, "error": str(err)}
        failure.records.append({"status": status, "error": str(err)})
        try:
            emit_report(failure, outdir, formats, meta)
        except OSError:
            pass
        print(f"error [{status}]: {err}", file=sys.stderr)
        return 1

    meta["elapsed_s"] = time.time() - started
    try:
        emit_report(report, outdir, formats, meta)
        if args.command == "generate" and "csv" in formats:
            write_pointset(report.artifacts["sites"], outdir / "points.csv")
    except OSError as err:
        print(f"cannot write artifacts: {err}", file=sys.stderr)
        return 1
    print(f"{report.experiment}: {'pass' if report.passed else 'fail'} "
          f"(report at {outdir / 'report.json'})")
    return 0 if report.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
