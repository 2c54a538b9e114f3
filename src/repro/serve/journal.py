"""The service's pending-run journal: one small file per owed run.

A run accepted by ``POST /runs`` is owed until it reaches a terminal
status.  Each owed run is one JSON file,
``<artifacts>/service/pending/<run_id>.json``, so every journal
transition touches only its own file:

* :meth:`PendingRunJournal.add` writes the entry to a temp file in the
  directory and renames it onto its own, new name — a reader sees the
  whole entry or none of it, and no rename ever lands on an existing
  file (on ext4, a rename over an existing file forces a data flush);
* :meth:`PendingRunJournal.remove` unlinks the entry;
* :meth:`PendingRunJournal.entries` reads the readable entries back in
  submission order (the run id's counter).

No write is fsynced: the journal survives a killed process, which is
the crash contract the service documents, not power loss.

A ``pending_runs.json`` left by an older version (one file holding the
whole list) is turned into entry files once, by
:meth:`PendingRunJournal.migrate_legacy`, and then deleted.  This module
is the only one that knows either layout; ``repro fsck`` checks the
files through :meth:`PendingRunJournal.read` and
:meth:`PendingRunJournal.read_legacy`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

__all__ = ["PendingRunJournal"]

#: The single-file journal of older versions, under ``service/``.
LEGACY_NAME = "pending_runs.json"

#: What a run id must look like to name an entry file.
_RUN_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _counter(path: Path) -> tuple[int, str]:
    """Sort key of an entry file: its run id's counter, then its name."""
    try:
        return int(path.stem.rsplit("-", 1)[-1]), path.name
    except ValueError:
        return -1, path.name


class PendingRunJournal:
    """The owed runs of one service, under ``<artifacts>/service/``."""

    def __init__(self, artifacts_dir: str | Path) -> None:
        service_dir = Path(artifacts_dir) / "service"
        self.directory = service_dir / "pending"
        self.legacy_path = service_dir / LEGACY_NAME

    def add(self, entry: dict) -> None:
        """Record one owed run (``entry["run_id"]`` names its file)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(temp_name, self._path(entry["run_id"]))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def remove(self, run_id: str) -> None:
        """Drop a run that reached its terminal status."""
        try:
            os.unlink(self._path(run_id))
        except FileNotFoundError:
            pass

    def paths(self) -> list[Path]:
        """Every entry file, in submission order."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"), key=_counter)

    def temp_paths(self) -> list[Path]:
        """Temp files an interrupted :meth:`add` left behind."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.tmp"))

    @staticmethod
    def read(path: Path) -> dict:
        """One entry; :class:`ValueError` (or :class:`OSError`) if it is
        unreadable, lacks a string ``run_id`` or ``class_name``, or is
        filed under another run's name."""
        entry = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        for name in ("run_id", "class_name"):
            if not isinstance(entry.get(name), str):
                raise ValueError(f"entry has no string {name!r}")
        run_id = entry["run_id"]
        if not _RUN_ID.match(run_id) or f"{run_id}.json" != path.name:
            raise ValueError(f"entry of run {run_id!r} is misnamed")
        return entry

    def entries(self) -> list[dict]:
        """The readable entries, in submission order.

        An unreadable entry (disk fault, manual edit) loses only its own
        run; ``repro fsck --repair`` quarantines it.
        """
        entries = []
        for path in self.paths():
            try:
                entries.append(self.read(path))
            except (OSError, ValueError):
                continue
        return entries

    def read_legacy(self) -> list:
        """The run list of an older version's ``pending_runs.json``;
        :class:`ValueError` (or :class:`OSError`) if it does not parse."""
        document = json.loads(self.legacy_path.read_text(encoding="utf-8"))
        runs = document.get("runs") if isinstance(document, dict) else None
        if not isinstance(runs, list):
            raise ValueError("journal 'runs' is not a list")
        return runs

    def migrate_legacy(self) -> int:
        """Turn an older version's ``pending_runs.json`` into entry files.

        Returns how many entries it moved.  An unreadable legacy file is
        left in place for ``repro fsck`` to report and quarantine.  The
        file is deleted only after every entry is written, so a crash in
        between repeats the migration on the next start.
        """
        if not self.legacy_path.exists():
            return 0
        try:
            runs = self.read_legacy()
        except (OSError, ValueError):
            return 0
        moved = 0
        for entry in runs:
            run_id = entry.get("run_id") if isinstance(entry, dict) else None
            if isinstance(run_id, str) and _RUN_ID.match(run_id):
                self.add(entry)
                moved += 1
        os.unlink(self.legacy_path)
        return moved

    def _path(self, run_id: str) -> Path:
        if not _RUN_ID.match(run_id):
            raise ValueError(f"not a run id: {run_id!r}")
        return self.directory / f"{run_id}.json"
