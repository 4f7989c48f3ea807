"""Helper of run.py that starts the timed CLI steps, one per request.

    python3 perfbench/launch.py   (reads JSON requests on stdin)

Each request line names the step's arguments and files and whether it
runs beside the reference loop; the reply line is its ChildResult. The
helper holds nothing but the reference loop's table, so the peak RSS a
step inherits from the process that starts it stays below any step's own.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import proc


def main() -> int:
    reference = proc.Reference()
    for line in sys.stdin:
        request = json.loads(line)
        files = {k: Path(request[k]) if request[k] else None for k in ("stdin", "stdout", "stderr")}
        result = proc.run(request["args"], Path(request["cwd"]), **files,
                          reference=reference if request["beside_reference"] else None)
        print(json.dumps(asdict(result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
