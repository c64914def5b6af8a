"""One textforge pass in a fresh interpreter, started by run.py.

    python3 child.py SRC JOB RESULT

Imports `textforge.cli` from the SRC tree, notes the time (the end of set-up),
then calls `textforge.cli.main` once per argument list in the JOB file and
writes the timings, exit codes and peak memory to RESULT as JSON. With
`"trace": true` in the job, the layer wrappers of tracer.py are installed
for the calls, removed afterwards, and the recorded spans are written too.
"""
import sys
import time


def main() -> int:
    src, job_path, result_path = sys.argv[1:4]
    sys.path.insert(0, src)
    import textforge.cli

    ready = time.monotonic()

    import json
    import resource

    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    entry = textforge.cli.main
    codes = []
    start = time.perf_counter()
    for argv in job["calls"]:
        try:
            codes.append(entry(argv))
        except Exception as exc:  # a traceback is a failed operation
            codes.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    result = {"ready": ready, "wall": wall, "codes": codes}
    if tracer is not None:
        result["wrappers_left"] = tracer.remove()
        result.update(tracer.export())
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
