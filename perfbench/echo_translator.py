"""Deterministic translator speaking noisekit's subprocess client protocol.

Reads one JSON request per line, ``{"id", "task", "src", "tgt", "text"}``,
sleeps ``LATENCY_MS``, and answers ``{"id", "text"}`` on one line, in order.

* ``translate`` reverses the word order, so translating to the pivot and
  back returns the input text unchanged;
* ``paraphrase`` returns the text unchanged.

The sleep stands in for a neural model's per-request latency, so a run of
``reduce --client`` mostly waits on the protocol, one request at a time.

    python3 perfbench/echo_translator.py
"""

from __future__ import annotations

import json
import sys
import time

LATENCY_MS = 2.0


def answer(task: str, text: str) -> str:
    if task == "translate":
        return " ".join(reversed(text.split(" ")))
    if task == "paraphrase":
        return text
    raise ValueError(f"unsupported task {task!r}")


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        time.sleep(LATENCY_MS / 1000.0)
        reply = {"id": request["id"], "text": answer(request["task"], request["text"])}
        sys.stdout.write(json.dumps(reply, ensure_ascii=False) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
