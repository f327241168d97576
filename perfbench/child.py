"""One measured process: import the CLI, write the configs, run the calls.

    python3 child.py SPEC.json

SPEC holds ``calls`` (a list of [command, config, out_dir]), ``work`` (a
scratch directory), ``result`` (where this process writes its result),
``setup_only`` and ``trace``.  Set-up ends once ``delonetop.cli`` is
imported and every config is written; the parent turns that moment into
``setup_s`` by subtracting the time it launched this process (both read
the system-wide monotonic clock).  ``wall_s`` is the time spent inside
``cli.main``, summed over the calls.
"""

import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    from delonetop import cli

    work = Path(spec["work"])
    runs = []
    for k, (command, config, out_dir) in enumerate(spec["calls"]):
        path = work / f"config_{k}.json"
        path.write_text(json.dumps(config))
        runs.append(([command, "--config", str(path), "--out", out_dir,
                      "--workers", "1"], Path(out_dir)))
    result = {"ready": time.monotonic()}

    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        codes, wall = [], 0.0
        for argv, out in runs:
            t0 = time.perf_counter()
            if tracer is None:
                codes.append(cli.main(argv))
            else:
                span = tracer.open("cli.main")
                try:
                    codes.append(cli.main(argv))
                    tracer.annotate("bytes_written",
                                    sum(p.stat().st_size for p in out.iterdir()))
                finally:
                    tracer.close(span)
            wall += time.perf_counter() - t0
        result.update(codes=codes, wall_s=wall)
        if tracer is not None:
            result["spans"] = tracer.spans

    import platform
    import resource

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
