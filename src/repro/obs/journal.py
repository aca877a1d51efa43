"""Append-only JSONL journals that survive a crash mid-append.

The run ledger's ``index.jsonl``, the job service's ``jobs.jsonl`` and a
sweep checkpoint's ``cells.jsonl`` all keep one JSON object per line.
:func:`append_record` writes one line and fsyncs it, so a record is on
disk once the call returns.  A process killed mid-append leaves a torn
last line; :func:`read_records` skips any line that is not a JSON object,
and the next append starts on a fresh line, so a torn line never costs
more than its own record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator


def append_record(path: str | Path, record: dict) -> None:
    """Durably append ``record`` as one line of ``path``."""
    line = json.dumps(record, sort_keys=True).encode() + b"\n"
    with open(path, "a+b") as fh:
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line  # end the torn line a crash left behind
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def read_records(path: str | Path) -> Iterator[dict]:
    """The JSON objects of ``path`` in order; torn or blank lines skipped."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record
