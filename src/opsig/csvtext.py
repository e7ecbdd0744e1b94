"""CSV text for every table and row opsig writes."""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import Iterable


def csv_text(rows: Iterable[Iterable[object]]) -> str:
    """``rows`` as CSV, each line ending in ``"\\n"``.

    Fields holding ``,``, ``"``, ``"\\r"`` or ``"\\n"`` are quoted
    (``QUOTE_MINIMAL``); every other field is written as it is. The writer is
    given ``"\\r\\n"`` as its terminator because it quotes exactly the fields
    that hold a character of the terminator, and each line's ``"\\r\\n"`` is
    then replaced by ``"\\n"``.
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append),
                        quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)
