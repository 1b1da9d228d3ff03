"""repro.durable: the crash-durability contract of the shared write path.

``atomic_write`` must make the *rename* durable, not only the bytes: the
parent directory is fsynced after ``os.replace``, or a power loss can
roll the directory entry back to the old file (or to nothing).  The
first ``append_line`` to a new log likewise fsyncs the directory that
now holds it.  Concurrent writers of one path use unique temp files, so
they can never tear one another's record.  (``file_lock`` is covered by
the two-process append test in ``test_cluster.py``.)
"""

import os
import stat
import sys
import threading

import pytest

from repro import durable
from repro.durable import append_line, atomic_write, seal_record, unseal_record


@pytest.fixture
def disk_log(monkeypatch):
    """Record every fsync (file or directory, by inode) and rename."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
        events.append(("fsync", kind, info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("replace", os.path.basename(dst)))

    monkeypatch.setattr(durable.os, "fsync", fsync)
    monkeypatch.setattr(durable.os, "replace", replace)
    return events


def test_atomic_write_fsyncs_the_directory_after_the_rename(tmp_path,
                                                            disk_log):
    path = str(tmp_path / "lease.json")
    atomic_write(path, "one\n")
    dir_inode = os.stat(str(tmp_path)).st_ino
    file_inode = os.stat(path).st_ino
    assert disk_log == [("fsync", "file", file_inode),
                        ("replace", "lease.json"),
                        ("fsync", "dir", dir_inode)]
    with open(path) as handle:
        assert handle.read() == "one\n"


def test_first_append_fsyncs_the_directory_later_ones_do_not(tmp_path,
                                                            disk_log):
    path = str(tmp_path / "journal.jsonl")
    append_line(path, "first")
    dir_inode = os.stat(str(tmp_path)).st_ino
    file_inode = os.stat(path).st_ino
    assert disk_log == [("fsync", "file", file_inode),
                        ("fsync", "dir", dir_inode)]
    del disk_log[:]
    append_line(path, "second")
    assert disk_log == [("fsync", "file", file_inode)]
    with open(path) as handle:
        assert handle.read() == "first\nsecond\n"


def test_durable_files_get_the_mode_a_plain_open_gives(tmp_path):
    """Both writers honour the umask, so an atomic rewrite of a log
    keeps the mode its first append gave it."""
    previous = os.umask(0o022)
    try:
        fresh = str(tmp_path / "plan.json")
        atomic_write(fresh, "plan\n")
        log = str(tmp_path / "campaign.jsonl")
        append_line(log, "record")
        appended = stat.S_IMODE(os.stat(log).st_mode)
        atomic_write(log, "record\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o644
    assert appended == 0o644
    assert stat.S_IMODE(os.stat(log).st_mode) == 0o644


def test_failed_atomic_write_leaves_target_and_no_temp_file(tmp_path,
                                                            monkeypatch):
    path = str(tmp_path / "x.json")
    atomic_write(path, "old")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(durable.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, "new")
    assert os.listdir(str(tmp_path)) == ["x.json"]
    with open(path) as handle:
        assert handle.read() == "old"


def test_concurrent_atomic_writes_leave_one_intact_record(tmp_path):
    """Two writers racing on one path: every round ends with exactly one
    of the two records, whole, and no temp file left behind."""
    path = str(tmp_path / "checkpoint.ckpt")
    records = [seal_record({"writer": name, "pad": name * 200_000})
               for name in ("a", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            barrier = threading.Barrier(2)
            errors = []

            def write(text):
                try:
                    barrier.wait(timeout=10)
                    atomic_write(path, text + "\n")
                except Exception as exc:       # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(text,))
                       for text in records]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert errors == []
            assert os.listdir(str(tmp_path)) == ["checkpoint.ckpt"]
            with open(path, "rb") as handle:
                winner = unseal_record(handle.read())
            assert winner["pad"] == winner["writer"] * 200_000
    finally:
        sys.setswitchinterval(interval)
