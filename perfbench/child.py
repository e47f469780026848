"""Run one tikhreg CLI call in this fresh process and report what it cost.

    python3 perfbench/child.py SRC_DIR TRACE_FILE -- <tikhreg arguments>
    python3 perfbench/child.py SRC_DIR --env

SRC_DIR is the directory that holds the `tikhreg` package. TRACE_FILE is `-`
for an untraced run; otherwise every public tikhreg function is wrapped (see
tracing.py) and the recorded spans are written to that file after main()
returns. The last line of standard output is one JSON object:

    setup_s      time to import tikhreg.cli (numpy and scipy included)
    wall_s       time from tikhreg.cli.main(argv) entry to return
    cpu_s        user+sys CPU of this process, all threads, during main()
    peak_rss_mb  peak resident set of this process (VmHWM)
    exit_code    main()'s return value

`--env` only imports tikhreg.cli (which also compiles its bytecode before
the timed runs) and prints the interpreter, library and BLAS versions.
"""

import json
import platform
import resource
import sys
import time


def _env_report():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _peak_rss_mb():
    # VmHWM is the high-water mark of this process image alone; ru_maxrss also
    # counts the parent's resident set, inherited through fork and exec
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    src, trace_path, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import tikhreg.cli
    setup_s = time.perf_counter() - start

    if trace_path == "--env":
        print(json.dumps(_env_report()))
        return 0
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py SRC_DIR TRACE_FILE -- <tikhreg arguments>")
    argv = rest[1:]

    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = tikhreg.cli.main(argv)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.dump(trace_path)
    sys.stdout.flush()
    print(json.dumps({
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
