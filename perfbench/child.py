"""One benchmarked CLI command, run in its own interpreter.

    python child.py STAMP_FILE SRC_DIR TRACE_FILE|- CLI_ARGS...

Does what ``python -m twolevel.cli CLI_ARGS...`` does, and writes the
``time.monotonic()`` at which ``twolevel.cli`` finished importing to
STAMP_FILE, so the parent can time set-up from spawn.  CLOCK_MONOTONIC is
system-wide on Linux, so both processes read the same clock.  Exits 70 if
``twolevel`` was not imported from SRC_DIR.  With a TRACE_FILE, it installs
the tracer (exit 71 if a name to wrap is missing) and writes the spans there
when the command ends.
"""
import sys
import time


def main() -> int:
    stamp_file, src_dir, trace_file, *argv = sys.argv[1:]
    import twolevel.cli
    imported = time.monotonic()
    with open(stamp_file, "w") as fh:
        fh.write(repr(imported))
    if not twolevel.cli.__file__.startswith(src_dir):
        print(f"twolevel imported from {twolevel.cli.__file__}, not {src_dir}", file=sys.stderr)
        return 70
    if trace_file == "-":
        return twolevel.cli.main(argv)

    from tracer import MissingName, Tracer
    tracer = Tracer()
    try:
        tracer.install()
    except MissingName as exc:
        print(f"trace: cannot wrap {exc}", file=sys.stderr)
        return 71
    try:
        return tracer.run(twolevel.cli.main, argv)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
