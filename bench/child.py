"""Run one fracperc command line in this fresh interpreter and time it.

    python3 child.py RESULT_JSON TRACE -- ARGS...

runs ``fracperc.cli.main(ARGS)``, the function behind the ``fracperc``
console script, and writes to RESULT_JSON the seconds the import and the
command took, the command's exit code and the peak resident memory of this
process. With TRACE = 1 the layer modules are traced first (see spans.py),
and the result also holds every span and the tracemalloc replays.
The package is imported from ``PYTHONPATH``, which run.py points at the
checkout's ``src/``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    t_start = time.perf_counter()
    import fracperc
    from fracperc import cli

    import_s = time.perf_counter() - t_start
    result_path, trace, sep, *args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- ARGS...")
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install(fracperc)
    t0 = time.perf_counter()
    rc = cli.main(args)
    wall_s = time.perf_counter() - t0
    record = {
        "package": fracperc.__file__,
        "import_s": import_s,
        "wall_s": wall_s,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["spans"] = tracer.stats
        record["work"] = tracer.work
        record["cold_s"] = tracer.cold_s
        record["peak_bytes_per_cell"] = tracer.peak_bytes_per_cell(fracperc)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
