"""Traced stand-in for ``python -m normex``, used by the cli_cold traced run.

    python bench/cli_child.py SUMMARY.json check all --input doc.json ...

Imports normex (from PYTHONPATH), binds the span wrappers, runs the same
``normex.cli.run_command`` that ``python -m normex`` runs, writes the span
summary to SUMMARY.json and exits with the command's exit code.  The report
on stdout is unchanged, so it is held to the same byte-identity check as the
untraced runs.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import normex.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        code = tracer.span("op", normex.cli.run_command, (argv,))
    finally:
        spans.restore(patches)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
