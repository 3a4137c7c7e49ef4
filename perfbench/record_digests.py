"""Record stdout digests of the `catalog` workload's fixed commands.

    python3 perfbench/record_digests.py

Writes digests.json next to this file. The recorded file is the reference
the benchmark checks against, so rerun this only when a change is meant to
alter CLI output; the digests in the repository were recorded at the
commit that added the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    run.import_program()
    import gen
    import work

    digests = {}
    for op in gen.fixed_commands():
        _, code, out, _, exc = work.run_cli(op["argv"], op["stdin"])
        if exc is not None or code != op["expect"]:
            print(f"mvq {work.command_key(op['argv'])}: exit {code} ({exc!r}), "
                  f"expected {op['expect']}", file=sys.stderr)
            return 1
        digests[work.command_key(op["argv"])] = hashlib.sha256(out.encode()).hexdigest()
    work.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {work.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
