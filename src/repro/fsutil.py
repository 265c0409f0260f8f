"""Crash-consistent file output: the flush/fence discipline, dogfooded.

The paper's whole point is that a write is not durable until it is
flushed and fenced; the Linux-kernel PM-issues study (arXiv:2307.04095)
found most real-world persistence failures are exactly this kind of
operational omission.  This module applies the same discipline to our
own outputs: every file the pipeline writes whole — fixed modules,
trace logs, batch reports, metrics — goes through
:func:`atomic_write_text`, so a crash at any instant leaves either the
old file or the new file, never a torn hybrid.

The recipe is the classic one:

1. write the new content to a temp file *in the destination directory*
   (same filesystem, so the final rename is atomic),
2. ``flush`` + ``os.fsync`` the temp file (the "flush"),
3. ``os.replace`` it over the destination (the atomic pointer switch),
4. ``fsync`` the directory so the rename itself is durable (the
   "fence").
"""

from __future__ import annotations

import os
import tempfile


def fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory (persists renames within it).

    Some platforms/filesystems refuse to open or fsync directories;
    that only weakens durability of the rename, never atomicity.
    """
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Durably replace ``path`` with ``text``; never leaves a torn file.

    A crash before the ``os.replace`` leaves the old file untouched (a
    stray ``.tmp`` may remain); a crash after it leaves the complete new
    file.  There is no instant at which a reader can observe a partial
    write under ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
    except OSError as exc:  # name the file asked for, not the random temp
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise
    fsync_dir(directory)
