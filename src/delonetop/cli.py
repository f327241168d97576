"""Batch front-end: config ingestion, experiment dispatch, artifact emission.

Configs are INI-style section/key files (JSON accepted interchangeably);
every key is schema-checked, a list value element by element, and an
unknown key or one the run does not read (experiments.unread_key, the key
rule the drivers apply too) is rejected with a line-anchored message (exit
code 2).  Every run writes each artifact its report has: report.json,
spectrum.csv, trials.csv, lattice.svg (points.csv for generate) and a
run_meta.json holding timestamps and timings, which is excluded from golden
comparisons.  Exit code 0 iff the experiment verdict is pass; runtime
failures exit 1 with the failure recorded in report.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GapUndefined, LocalizerUnreliable, ToolkitError
from .experiments import (_COMMAND_KEYS, _COMMANDS, _MODEL_PARAMS, DEFAULTS,
                          EXPERIMENT_DEFAULTS, LATTICE_DEFAULTS, ExperimentReport,
                          _model_from_cfg, _window, build_lattice, run_omega_independence,
                          run_quantization, run_robustness, run_stacking, unread_key)
from .geometry import validate_delone, write_pointset
from .serialize import dumps17, format_float, to_plain
from .spectral import write_spectrum_csv

__all__ = ["main", "entry", "load_config", "emit_report", "SchemaError"]


class SchemaError(Exception):
    """Config schema violation; message carries file and line anchors."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str)


def _list_of(is_kind):
    return lambda v: isinstance(v, list) and all(map(is_kind, v))


def _is_pair(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))


def _is_window(v):
    """A number (hi, over [0, hi]), [lo, hi], or one [lo, hi] per axis."""
    return (_is_number(v) or _is_pair(v)
            or (isinstance(v, list) and bool(v) and all(map(_is_pair, v))))


# A list kind names its elements: "ints" is a list of ints, "str-or-numbers"
# a string or a list of numbers.
_KINDS = {
    "int": _is_int,
    "float": _is_number,
    "str": _is_str,
    "bool": lambda v: isinstance(v, bool),
    "num-or-str": lambda v: _is_number(v) or _is_str(v),
    "ints": _list_of(_is_int),
    "numbers": _list_of(_is_number),
    "str-or-numbers": lambda v: _is_str(v) or _list_of(_is_number)(v),
    "int-or-ints": lambda v: _is_int(v) or _list_of(_is_int)(v),
    "window": _is_window,
}

_SCHEMA = {
    "lattice": {"generator": "str", "seed": "int", "seeds": "ints"},
    "model": {"name": "str", "mu": "num-or-str"},
    "index": {"kappa_list": "numbers", "x0": "str-or-numbers", "margin_min": "float"},
    "experiment": {
        "n_trials": "int", "master_seed": "int",
        "strength_rel": "float", "range": "float", "symmetry": "str",
        "base_sites": "int-or-ints", "control": "bool",
        "stack_generator": "str", "stack_window": "window", "stack_seed": "int",
        "stack_min_dist": "float", "stack_target_R": "float",
        "control_window": "window",
    },
}
# A model key's kind is its factory parameter's annotation.
_SCHEMA["model"].update(kv for params in _MODEL_PARAMS.values() for kv in params.items())
# A generator key's kind is its default's; the one list default is a window.
_SCHEMA["lattice"].update((k, "window" if isinstance(v, list) else type(v).__name__)
                          for keys in LATTICE_DEFAULTS.values() for k, v in keys.items())


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


def load_config(path, command: str | None = None) -> dict:
    """Read and schema-check a config file; returns {section: {key: value}}.

    A key of an unknown section, an unknown key and a value of the wrong
    kind are rejected, and then the first key experiments.unread_key finds
    a run of command (None: any command) does not read, with its message;
    each is anchored at its line."""
    path = Path(path)
    if command not in (None, *_COMMANDS):
        raise SchemaError(f"unknown command {command!r}")
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

    if unread := unread_key(command, out):
        sec, key, message = unread
        raise SchemaError(f"{path}:{raw[sec][key][1]}: {message}")
    return out


def _materialize(cfg: dict, command: str) -> dict:
    """Fill defaults so the echoed config shows every effective setting, and
    only those: a section or key the command does not read (_COMMAND_KEYS)
    is left out."""
    unread = {key for key, commands in _COMMAND_KEYS.items() if command not in commands}
    out = {sec: {k: v for k, v in {**defaults, **cfg.get(sec, {})}.items()
                 if (sec, k) not in unread}
           for sec, defaults in DEFAULTS.items() if (sec, None) not in unread}
    out["experiment"] = {**EXPERIMENT_DEFAULTS.get(command, {}),
                         **cfg.get("experiment", {})}
    return out


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------

_SITE_FILL = "#f7f7f7"


def render_lattice_svg(sites, title: str) -> str:
    """The sites of a 1D or 2D set as circles of radius r_pack."""
    pts = sites.points
    if sites.dim == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(len(sites))])
        lo = np.array([float(sites.window[0][0]), -2.0])
        hi = np.array([float(sites.window[1][0]), 2.0])
    else:
        lo, hi = sites.window[0].astype(float), sites.window[1].astype(float)
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
    for p in pts:
        out.append(
            f'<circle cx="{fmt(p[0])}" cy="{fmt(p[1])}" r="{fmt(sites.r_pack)}" '
            f'fill="{_SITE_FILL}"/>')
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


def emit_report(report: ExperimentReport, outdir, meta: dict) -> Path:
    """Write report.json and sibling artifacts; bytes depend only on content.

    All wall-clock data lands in run_meta.json, never in report.json, so
    identical (config, seed) runs compare byte-for-byte.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    report_path = outdir / "report.json"
    _write_text(report_path, dumps17(to_plain(report.as_dict())))

    if "spectrum" in report.artifacts:
        write_spectrum_csv(outdir / "spectrum.csv", report.artifacts["spectrum"])
    if report.records:
        rows = ["trial,seed,index,margin,gap"]
        for k, rec in enumerate(report.records):
            rows.append(",".join(_csv_cell(rec.get(col, "" if col != "trial" else k))
                                 for col in ("trial", "seed", "index", "margin", "gap")))
        _write_text(outdir / "trials.csv", "\n".join(rows) + "\n")

    if "sites" in report.artifacts:
        sites = report.artifacts["sites"]
        if sites.dim <= 2:
            _write_text(outdir / "lattice.svg", render_lattice_svg(sites, report.experiment))

    meta = dict(meta)
    meta["timings"] = dict(report.timings)
    _write_text(outdir / "run_meta.json", dumps17(to_plain(meta)))
    return report_path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(cfg: dict) -> ExperimentReport:
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
    return report


def _cmd_spectrum(cfg: dict) -> ExperimentReport:
    sites = build_lattice(cfg["lattice"])
    report = ExperimentReport("spectrum", cfg)
    w = _window(sites, *_model_from_cfg(cfg["model"]), report=report)
    report.records.append({
        "n_sites": len(sites), "mu": w.mu, "gap_below": w.gap.below,
        "gap_above": w.gap.above, "gap": w.gap.width,
    })
    report.summary = {"mu": w.mu, "gap": w.gap.width}
    report.passed = True
    return report


def _dispatch(command: str, cfg: dict, workers: int) -> ExperimentReport:
    if command == "generate":
        return _cmd_generate(cfg)
    if command == "spectrum":
        return _cmd_spectrum(cfg)
    lattice, model, index = cfg["lattice"], cfg["model"], cfg["index"]
    exp = cfg["experiment"]
    if command == "quantization":
        return run_quantization(lattice, model, index, workers=workers)
    if command == "robustness":
        return run_robustness(lattice, model, index, exp, workers=workers)
    if command == "stacking":
        return run_stacking(lattice, model, index, exp, workers=workers)
    if command == "omega":
        return run_omega_independence(lattice, model, index, exp, workers=workers)
    raise SchemaError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delonetop",
        description="Tight-binding models on Delone sets and their localizer indices.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="INI or JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="task pool size (at least 1)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")

    started = time.time()
    try:
        cfg_sections = load_config(args.config, args.command)
    except SchemaError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    cfg = _materialize(cfg_sections, args.command)
    outdir = Path(args.out)

    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": args.command,
        "config_path": str(args.config),
        "workers": args.workers,
        "version": __version__,
    }

    try:
        report = _dispatch(args.command, cfg, args.workers)
    except ToolkitError as err:
        status = "gap_closed" if isinstance(err, GapUndefined) else (
            "unreliable" if isinstance(err, LocalizerUnreliable) else "error")
        failure = ExperimentReport(args.command, cfg)
        failure.passed = False
        failure.summary = {"status": status, "error": str(err)}
        failure.records.append({"status": status, "error": str(err)})
        try:
            emit_report(failure, outdir, meta)
        except OSError:
            pass
        print(f"error [{status}]: {err}", file=sys.stderr)
        return 1

    meta["elapsed_s"] = time.time() - started
    try:
        emit_report(report, outdir, meta)
        if args.command == "generate":
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
