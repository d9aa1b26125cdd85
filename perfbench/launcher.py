"""Traced stand-in for `python -m gfusion.cli`.

Times `import gfusion.cli`, installs the span recorder, calls
`gfusion.cli.main(argv)` and writes the spans to $PERFBENCH_SPANS at exit.
The report bytes are those of the plain command: the recorder only wraps
functions and prints nothing.
"""

import os
import sys
import time

import tracer


def main():
    rec = tracer.Recorder()
    start = time.perf_counter()
    import gfusion.cli

    rec.add_span("cli.import", start, time.perf_counter())
    tracer.install(rec)
    code = 1
    try:
        code = gfusion.cli.main(sys.argv[1:])
    finally:
        rec.enabled = False
        rec.write(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
