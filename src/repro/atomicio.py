"""Atomic file replacement shared by the on-disk caches.

Readers of the lint result cache and the scenario result store must never
see a half-written file, so each write goes to a temp file in the target's
directory and is moved into place with ``os.replace``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write(path: Path, data: Union[str, bytes], prefix: str = "") -> None:
    """Write ``data`` to ``path`` atomically (text as UTF-8).

    The temp file (``<prefix>*.tmp`` next to ``path``) is unlinked when the
    write or the replace raises, so a failed write leaves nothing behind;
    the exception propagates.
    """
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=prefix, suffix=".tmp")
    try:
        if isinstance(data, str):
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
        else:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
