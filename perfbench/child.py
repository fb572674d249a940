"""One qident CLI invocation in a fresh interpreter, measured from inside.

    python3 perfbench/child.py SRC MODE [CLI ARGUMENT ...]

SRC is the directory holding the ``qident`` package.  MODE is ``setup``
(import the CLI and stop), ``plain`` (run ``qident.cli.main`` on the
arguments) or ``traced`` (the same, with spans around qident's public
calls).  The child prints one JSON object on stdout: the monotonic time at
which ``qident.cli`` was ready, and for a run the CLI's exit code, its
captured stdout, any traceback, the seconds ``main`` took and the peak
resident set size.  Nothing but ``sys`` and ``time`` is imported before
qident, so the ready time measures the CLI's own start-up.
"""

import sys
import time


def main() -> None:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    from qident import cli
    ready = time.monotonic()

    import contextlib
    import io
    import json
    import resource
    import traceback

    out = {"ready": ready}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            import spans
            tracer = spans.install()
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        verify_s = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(code=code, error=error, verify_s=verify_s, rss_mb=rss_mb,
                   stdout=stdout.getvalue())
        if tracer is not None:
            out["layers"] = tracer.summary(verify_s)
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()
