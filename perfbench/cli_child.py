"""Run the tribound CLI once under the layer wrappers; write its spans as JSON.

Usage: python perfbench/cli_child.py SPANS_PATH CLI_ARGS...

Behaves like `python -m tribound.cli CLI_ARGS...` (same stdout, stderr and
exit code) and records a cli.main span around main().  LinAlgWarnings are
counted on their way to stderr, never filtered.
"""

import json
import sys
import warnings
from pathlib import Path

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import tribound.cli
    from scipy.linalg import LinAlgWarning

    rec = spans.Recorder()
    rec.op = 0
    rec.install()
    linalg_warnings = 0
    show = warnings.showwarning

    def counting_show(message, category, *args, **kwargs):
        nonlocal linalg_warnings
        if issubclass(category, LinAlgWarning):
            linalg_warnings += 1
        show(message, category, *args, **kwargs)

    warnings.showwarning = counting_show
    try:
        return rec.span("cli.main", tribound.cli.main, argv)
    finally:
        rec.uninstall()
        warnings.showwarning = show
        out.write_text(json.dumps({"spans": rec.spans, "linalg_warnings": linalg_warnings}))


if __name__ == "__main__":
    sys.exit(main())
