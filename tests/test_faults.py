"""Fault injection: every OS call a run makes fails in turn, one per run.

As in SQLite's I/O error tests (https://www.sqlite.org/testing.html), the
N-th call fails for N = 1, 2, ... until a run makes fewer than N calls. The
calls are the `os` and `os.path` functions that the package's modules call,
found in their source, and the open, write and close of the temp file a
write goes through. Each fails with an `OSError` or a `KeyboardInterrupt`,
and no run may leave a descriptor open (counted where the system lists
them).
"""
import ast
import errno
import gc
import importlib
import os
import re

import pytest

import textforge
from textforge import rewriter
from textforge.cli import main

PACKAGE = os.path.dirname(textforge.__file__)
MODULES = [importlib.import_module(f"textforge.{name[:-3]}")
           for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")]
# The modules whose `os` the faults are injected through.
USERS = [module for module in MODULES if getattr(module, "os", None) is os]
# Path arithmetic makes no system call, so no OS error can come from it.
PURE = {"os.path.basename", "os.path.dirname", "os.path.join",
        "os.path.samestat"}


def _os_calls() -> set[str]:
    """"os.NAME" and "os.path.NAME" for each such function a module calls."""
    found = set()
    for module in MODULES:
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and ast.unparse(node.func.value) in ("os", "os.path")):
                found.add(ast.unparse(node.func))
    return found


CALLS = _os_calls() - PURE

ERRORS = {
    "EIO": lambda: OSError(errno.EIO, os.strerror(errno.EIO)),
    "ENOSPC": lambda: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    "EACCES": lambda: OSError(errno.EACCES, os.strerror(errno.EACCES)),
    "KeyboardInterrupt": KeyboardInterrupt,
}

# Two files that change, one already up to date, a conf and a glob().
SOURCES = {
    "starfish.conf": b"$who = 'conf';\n",
    "a.txt": b"<? read_starfish_conf(); echo $who; !>\n"
             b"<? echo join(' ', glob('*.txt')); !>\n",
    "b.txt": b"<? echo 'b'; !>\n",
    "c.txt": b"<? echo 'c'; !>#+\nc#-\n\n",
    "out.txt": b"stale\n",
}
RUNS = {
    "update": ["a.txt", "b.txt", "c.txt"],
    "replace": ["-replace", "-o=out.txt", "a.txt"],
}


class _Namespace:
    """`real`'s attributes, with `wrapped` in place of some of them."""

    def __init__(self, real, **wrapped):
        self.__dict__.update(wrapped)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class _Faults:
    """Counts the calls it wraps, and makes the `fail_at`-th raise."""

    def __init__(self, fail_at: int, error):
        self.calls, self.fail_at, self.error = 0, fail_at, error
        self.failed = None  # the name of the call made to fail

    def tick(self, name: str):
        self.calls += 1
        if self.calls == self.fail_at:
            self.failed = name
            raise self.error()

    def wrap(self, real, name: str):
        def call(*args, **kwargs):
            self.tick(name)
            return real(*args, **kwargs)
        return call

    def open(self, *args, **kwargs):
        """`open` as the write calls it, for its temp file."""
        self.tick("the temp file's open")
        return _TempFile(open(*args, **kwargs), self)


class _TempFile:
    """The temp file, whose write, and whose close, where buffered bytes
    reach the disk, are calls that can fail."""

    def __init__(self, fh, faults: _Faults):
        self.fh, self.faults = fh, faults

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            self.faults.tick("the temp file's close")
        finally:
            self.fh.close()

    def write(self, data):
        self.faults.tick("the temp file's write")
        return self.fh.write(data)


def _inject(monkeypatch, fail_at: int, error) -> _Faults:
    faults = _Faults(fail_at, error)
    wrapped = {"os": {}, "os.path": {}}
    for call in CALLS:
        owner, _, name = call.rpartition(".")
        real = getattr(os.path if owner == "os.path" else os, name)
        wrapped[owner][name] = faults.wrap(real, call)
    proxy = _Namespace(os, path=_Namespace(os.path, **wrapped["os.path"]),
                       **wrapped["os"])
    for module in USERS:
        monkeypatch.setattr(module, "os", proxy)
    monkeypatch.setattr(rewriter, "open", faults.open, raising=False)
    return faults


def _open_fds() -> int | None:
    """How many descriptors the process has open, or None where no directory
    lists them."""
    for listing in ("/proc/self/fd", "/dev/fd"):
        if os.path.isdir(listing):
            return len(os.listdir(listing))
    return None


def _tree(root) -> None:
    root.mkdir()
    for name, data in SOURCES.items():
        (root / name).write_bytes(data)


def _read(root) -> dict[str, bytes]:
    return {name: (root / name).read_bytes() for name in os.listdir(root)}


def test_the_source_scan_finds_the_calls_a_run_makes():
    assert {"os.open", "os.fstat", "os.replace", "os.stat",
            "os.listdir", "os.path.abspath", "os.path.isfile"} <= CALLS
    assert USERS


@pytest.mark.parametrize("error", ERRORS)
@pytest.mark.parametrize("run", RUNS)
def test_a_failed_os_call_leaves_old_or_new_bytes(tmp_path, monkeypatch,
                                                  capsys, run, error):
    argv = RUNS[run]
    _tree(tmp_path / "clean")
    monkeypatch.chdir(tmp_path / "clean")
    assert main(argv) == 0
    new = _read(tmp_path / "clean")
    assert new["a.txt" if run == "update" else "out.txt"] != SOURCES["a.txt"]
    assert new["c.txt"] == SOURCES["c.txt"]
    fail_at, failed = 0, set()
    while True:
        fail_at += 1
        root = tmp_path / str(fail_at)
        _tree(root)
        monkeypatch.chdir(root)
        fds = _open_fds()
        faults = _inject(monkeypatch, fail_at, ERRORS[error])
        try:
            status = main(argv)
        except KeyboardInterrupt:
            status = None
        err = capsys.readouterr().err
        monkeypatch.undo()
        failed.add(faults.failed)
        assert _open_fds() == fds, f"{faults.failed} leaves a descriptor open"
        got = _read(root)
        if faults.calls < fail_at:  # every call has failed once
            assert (status, err, got) == (0, "", new)
            break
        assert gc.isenabled()
        assert set(got) == set(SOURCES), "a temp file is left"
        assert all(got[name] in (SOURCES[name], new[name]) for name in got)
        if error == "KeyboardInterrupt":
            assert (status, err) == (None, "")
            continue
        if status == 0:  # a FILE that cannot be stat'ed is still attempted
            assert (err, got) == ("", new)
            continue
        assert status == 1
        assert re.fullmatch(r"[a-z]\.txt:\d+:\d+: .*\n", err), err
        # The run goes on to the other files.
        assert sum(got[name] != new[name] for name in got) <= 1
    assert fail_at > 20
    assert {"the temp file's open", "the temp file's write",
            "the temp file's close"} <= failed
