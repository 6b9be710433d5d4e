"""The JSONL sink for observability samples and other records.

One JSON object per line — for the sampler, the fleet exporter and the
serve ``--obs`` tap, each one ``repro.api/v1`` record dict, read back
line by line with :func:`~repro.api.schema.parse_record`.  The writer
is callable so it can be handed directly to
:class:`~repro.obs.sampler.TimeSeriesSampler` as its sink.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Union

__all__ = ["JsonlWriter"]


class JsonlWriter:
    """Append-only JSON-lines writer.

    Accepts either a path (opened and owned) or an open text stream
    (borrowed; :meth:`close` leaves it open).  Usable as a context
    manager and as a callable sink.
    """

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.records_written = 0

    def write(self, obj: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":"), sort_keys=True))
        self._fh.write("\n")
        self.records_written += 1

    __call__ = write

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
