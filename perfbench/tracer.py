"""Span tracer installed from outside the library.

The wrappers rebind the names that ``delonetop.cli`` and
``delonetop.experiments`` look up at call time (``experiments`` imports its
helpers by name, so patching the defining module alone would miss them),
patch ``BlockOperator.to_dense`` and ``.add`` on the class, and wrap the
numpy/scipy Hermitian eigen routines so a later switch of eigen solver
stays visible.  The library itself is not modified.

Each span records its name, start, end, parent and a dict of computed
counts.  Spans stay in memory and are written once, when the traced child
ends.  One stack serves all threads: the CLI runs with ``--workers 1``, so
the pool's single worker computes while the submitting thread waits, and
the innermost open span is always the caller of the next one.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, counts]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def annotate(self, key: str, value) -> None:
        """Add a count to the innermost open span."""
        counts = self.spans[self._stack[-1]][4]
        counts[key] = counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        """fn traced as a span; count(args, kwargs, result) -> dict of counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][4].update(count(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap the layers in this process; there is no uninstall."""
        import scipy.linalg
        from delonetop import cli, experiments, groupoid

        def by_name(name, attr, modules, count=None):
            fn = getattr(modules[0], attr)
            traced = self.wrap(name, fn, count)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, traced)

        both = (experiments, cli)
        by_name("experiments.run_quantization", "run_quantization", both)
        by_name("experiments.run_robustness", "run_robustness", both)
        by_name("experiments.run_stacking", "run_stacking", both)
        by_name("cli.emit_report", "emit_report", (cli,))
        by_name("geometry.build_lattice", "build_lattice", both,
                lambda a, k, r: {"sites": len(r)})
        by_name("groupoid.represent", "represent", both,
                lambda a, k, r: {"blocks": len(r.entries)})
        by_name("groupoid.stack_operator", "stack_operator", (experiments,))
        by_name("roe.random_perturbation", "random_perturbation", (experiments,),
                lambda a, k, r: {"blocks": len(r.entries)})
        by_name("spectral.eig_hermitian", "eig_hermitian", both)
        by_name("spectral.fermi_projection", "fermi_projection", (experiments,))
        by_name("index.localizer_even", "localizer_index_even", (experiments,),
                lambda a, k, r: {"dim": 2 * _dense_dim(a[0]), **_evaluation(r)})
        by_name("index.localizer_odd", "localizer_index_odd", (experiments,),
                lambda a, k, r: _evaluation(r))
        by_name("index.kitaev_chern", "kitaev_chern", (experiments,))
        by_name("index.bloch_chern_fhs", "bloch_chern_fhs", (experiments,))
        by_name("index.bloch_winding", "bloch_winding", (experiments,))

        # RSA attempts and acceptances, credited to the enclosing
        # build_lattice span; no span of its own, so generation stays in
        # geometry.build_lattice's self time.
        gen = experiments.gen_hardcore_random

        @functools.wraps(gen)
        def hardcore(*args, **kwargs):
            ds = gen(*args, **kwargs)
            self.annotate("rsa_accepted", int(ds.metadata["rsa_accepted"]))
            self.annotate("rsa_attempts", int(kwargs["max_attempts"]))
            return ds
        experiments.gen_hardcore_random = hardcore

        bo = groupoid.BlockOperator
        bo.to_dense = self.wrap("groupoid.to_dense", bo.to_dense)
        bo.add = self.wrap("groupoid.add", bo.add)

        for mod in (np.linalg, scipy.linalg):
            for attr in ("eigh", "eigvalsh"):
                setattr(mod, attr, self.wrap("linalg.eig", getattr(mod, attr), _eig_counts))


def _dense_dim(H) -> int:
    dense_dim = getattr(H, "dense_dim", None)
    return int(dense_dim if dense_dim is not None else np.shape(H)[0])


def _evaluation(result) -> dict:
    res = result[0] if isinstance(result, tuple) else result
    return {"evals": 1, "ok": int(res.status == "ok")}


def _eig_counts(args, kwargs, result) -> dict:
    a = args[0] if args else kwargs["a"]
    n = a.shape[-1]
    batch = a.size // (n * n) if n else 0
    return {"n3": batch * n ** 3, "bytes": int(a.nbytes)}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one span stack, see the module
    docstring), so the covered time is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict:
    """Per-layer calls, self time and computed counts from one traced run."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for (name, _, _, _, c), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        for key, value in c.items():
            counts[name, key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    evals = counts["index.localizer_even", "evals"] + counts["index.localizer_odd", "evals"]
    ok = counts["index.localizer_even", "ok"] + counts["index.localizer_odd", "ok"]
    experiments = sum(v for k, v in self_s.items() if k.startswith("experiments."))
    return {
        "geometry.build_lattice.calls": calls["geometry.build_lattice"],
        "geometry.build_lattice.self_s": self_s["geometry.build_lattice"],
        "geometry.sites": counts["geometry.build_lattice", "sites"],
        "geometry.rsa_accept_ratio": ratio(
            counts["geometry.build_lattice", "rsa_accepted"],
            counts["geometry.build_lattice", "rsa_attempts"]),
        "spectral.eig_hermitian.calls": calls["spectral.eig_hermitian"],
        "spectral.eig_hermitian.self_s": self_s["spectral.eig_hermitian"],
        "spectral.fermi_projection.self_s": self_s["spectral.fermi_projection"],
        "index.localizer_even.calls": calls["index.localizer_even"],
        "index.localizer_even.self_s": self_s["index.localizer_even"],
        "index.localizer_even.dim_sum": counts["index.localizer_even", "dim"],
        "index.localizer_odd.calls": calls["index.localizer_odd"],
        "index.localizer_odd.self_s": self_s["index.localizer_odd"],
        "index.reliable_ratio": ratio(ok, evals),
        "index.kitaev_chern.self_s": self_s["index.kitaev_chern"],
        "index.bloch_chern_fhs.self_s": self_s["index.bloch_chern_fhs"],
        "index.bloch_winding.self_s": self_s["index.bloch_winding"],
        "roe.random_perturbation.calls": calls["roe.random_perturbation"],
        "roe.random_perturbation.self_s": self_s["roe.random_perturbation"],
        "roe.random_perturbation.blocks": counts["roe.random_perturbation", "blocks"],
        "groupoid.add.calls": calls["groupoid.add"],
        "groupoid.add.self_s": self_s["groupoid.add"],
        "groupoid.represent.calls": calls["groupoid.represent"],
        "groupoid.represent.self_s": self_s["groupoid.represent"],
        "groupoid.represent.blocks": counts["groupoid.represent", "blocks"],
        "groupoid.to_dense.self_s": self_s["groupoid.to_dense"],
        "groupoid.stack_operator.self_s": self_s["groupoid.stack_operator"],
        "linalg.eig.calls": calls["linalg.eig"],
        "linalg.eig.self_s": self_s["linalg.eig"],
        "linalg.eig.n3_sum": counts["linalg.eig", "n3"],
        "linalg.eig.bytes": counts["linalg.eig", "bytes"],
        "experiments.self_s": experiments,
        "cli.main.self_s": self_s["cli.main"],
        "cli.emit_report.self_s": self_s["cli.emit_report"],
        "cli.bytes_written": counts["cli.main", "bytes_written"],
    }
