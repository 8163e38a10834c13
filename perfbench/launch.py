"""Run one plantkb command with the span recorder installed.

    python3 perfbench/launch.py SPANS.json <plantkb arguments>

The wrappers go in before ``plantkb.cli.main`` runs, in this process, and the
spans are written to SPANS.json when the command returns, including a
``serve`` stopped by SIGINT.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    import plantkb.cli

    try:
        return plantkb.cli.main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
