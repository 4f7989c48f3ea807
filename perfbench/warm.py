"""Fill the HTTP response cache of the fullname-eval workload.

    python3 perfbench/warm.py WORKDIR

The program's own HttpAdapter does the fetching, so the cache files get
whatever names and layout the code under test gives them. Its session is
a fake that answers each request from WORKDIR/responses.json, so nothing
goes over the network. Exits non-zero if any answer is lost on the way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from namegender.inferrers import HttpAdapter, parse_adapter_config


class FakeResponse:
    status_code = 200

    def __init__(self, text: str) -> None:
        self.text = text


class FakeSession:
    """Answers GET ...?name=NAME with the generator's genderize-style JSON."""

    def __init__(self, responses: dict[str, dict]) -> None:
        self.responses = responses

    def get(self, url: str, timeout: float | None = None) -> FakeResponse:
        name = parse_qs(urlsplit(url).query)["name"][0]
        return FakeResponse(json.dumps(self.responses[name]))


def main(root: Path) -> int:
    responses = json.loads((root / "responses.json").read_text(encoding="utf-8"))
    names = json.loads((root / "warm_names.json").read_text(encoding="utf-8"))
    adapter = HttpAdapter(parse_adapter_config(root / "svc.conf"), session=FakeSession(responses))
    predictions = adapter.infer_batch(names)
    lost = [n for n, p in zip(names, predictions) if p.label.value != (responses[n]["gender"] or "unknown")]
    if lost:
        print(f"warm.py: {len(lost)} of {len(names)} answers lost, e.g. {lost[0]!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
