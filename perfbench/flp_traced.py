"""Run one ``flp`` command with the library's layers traced.

    python3 perfbench/flp_traced.py OUT.json <flp arguments...>

flp's output and exit code are unchanged.  The tracer's additive counters
and the number of numpy RuntimeWarnings are written to OUT.json.
"""

import json
import sys
import warnings

import filippov.cli

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = filippov.cli.main(argv)
    tracer.uninstall()
    warned = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"raw": tracer.raw(), "runtime_warnings": warned}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
