"""File writes that replace their target in one step.

``_write_atomic`` is private so that a traced run attributes the write to
the function that encodes the file (``write_ppm``, ``save_checkpoint``, ...).
"""

from __future__ import annotations

import os
from pathlib import Path


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it
    over ``path``: readers see the old file or the new one, never a partial
    write. If anything raises, the temporary file is removed and ``path``
    is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
