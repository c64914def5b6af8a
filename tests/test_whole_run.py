"""The whole-run contract, held by a property through `cli.main` over drawn
trees of files: conf chains (some broken), documents of every style (CRLF,
bytes that are not UTF-8, a snippet error, one whose message holds a line
break, a runaway loop), a symlink, a hard-linked file, a FIFO and a
directory given as FILE, and a second name for a document: a symlink to it
from another directory."""
import contextlib
import io
import os
import re
import shutil
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from test_rewriter import _documents
from textforge import scriptlet
from textforge.cli import main
from textforge.core import EngineError
from textforge.rewriter import process_file
from textforge.styles import detect_style

_DIRS = ("", "a", "a/b", "c")
_CONFS = st.sampled_from([
    None, None,
    "$who = 'conf';\n",
    "$who = 'deep'; echo 'dropped';\n",
    "$who = join(',', glob('*.conf'));\n",
    "$who = ;\n",          # a parse error
    "echo $nowhere;\n",    # an eval error
])
# Eight nested loops run away under the lowered loop budget.
_RUNAWAY = ("<? " + "".join(f"for $v{i} in glob('*') {{ " for i in range(8))
            + "echo 'x'; " + "} " * 8 + "!>\n")


@st.composite
def _document_bytes(draw):
    """A file name extension and the bytes of a document in that style."""
    style, text = draw(_documents())
    kind = draw(st.sampled_from(
        ["plain", "plain", "conf", "latin1", "error", "newline", "runaway"]))
    if kind == "conf":
        text = "<? read_starfish_conf(); echo $who; !>\n" + text
    data = text.encode()
    if kind == "latin1":
        data = b"\xff\xfe" + data + b"\n<? echo 'caf\xe9'; !>\n"
    elif kind == "error":
        data += b"\n<? echo $nope; !>\n"
    elif kind == "newline":
        data += b'\n<? set_style("a\\nb"); !>\n'
    elif kind == "runaway":
        data += _RUNAWAY.encode()
    return (style.extensions or (".txt",))[-1], data  # detected as `style`


@st.composite
def _trees(draw):
    """(confs, docs, extras, aliases, order): a conf source or None per
    directory; (directory, document) per document given as FILE; (kind,
    directory, document) per odd file, where only a link uses the document,
    as its target's; (document index, directory) per symlink to a document
    given as FILE too; and a permutation of all FILE arguments."""
    confs = [draw(_CONFS) for _ in _DIRS]
    docs = draw(st.lists(st.tuples(st.sampled_from(_DIRS), _document_bytes()),
                         min_size=1, max_size=4))
    extras = []
    for kind in ("symlink", "hardlink", "fifo", "dir"):
        if draw(st.booleans()):
            extras.append((kind, draw(st.sampled_from(_DIRS)),
                           draw(_document_bytes())))
    aliases = draw(st.lists(st.tuples(st.integers(0, len(docs) - 1),
                                      st.sampled_from(_DIRS)), max_size=2))
    order = draw(st.permutations(range(len(docs) + len(extras)
                                       + len(aliases))))
    return confs, docs, extras, aliases, order


def _build(root, tree):
    """Write `tree` under `root`; returns the FILE arguments, in order."""
    confs, docs, extras, aliases, order = tree
    for d, conf in zip(_DIRS, confs):
        os.makedirs(os.path.join(root, d), exist_ok=True)
        if conf is not None:
            with open(os.path.join(root, d, "starfish.conf"), "w") as fh:
                fh.write(conf)
    files = []
    for i, (d, (ext, data)) in enumerate(docs):
        files.append(os.path.join(root, d, f"doc{i}{ext}"))
        with open(files[-1], "wb") as fh:
            fh.write(data)
    for kind, d, (ext, data) in extras:
        # A symlink or hard link's target is no FILE argument itself; only
        # an alias below names a file that another FILE names.
        path = os.path.join(root, d, f"{kind}{ext}")
        if kind in ("symlink", "hardlink"):
            target = os.path.join(root, f"{kind}-target{ext}")
            with open(target, "wb") as fh:
                fh.write(data)
            if kind == "symlink":
                os.symlink(os.path.relpath(target, os.path.dirname(path)), path)
            else:
                os.link(target, path)
        elif kind == "fifo":
            os.mkfifo(path)
        else:
            os.mkdir(path)
        files.append(path)
    for j, (i, d) in enumerate(aliases):
        path = os.path.join(root, d, f"alias{j}{docs[i][1][0]}")
        os.symlink(os.path.relpath(files[i], os.path.dirname(path)), path)
        files.append(path)
    return [files[i] for i in order]


def _snapshot(root):
    """Relative path -> (inode, mtime_ns, bytes) of every regular file."""
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            if os.path.isfile(path) and not os.path.islink(path):
                info = os.stat(path)
                found[os.path.relpath(path, root)] = (
                    info.st_ino, info.st_mtime_ns, _bytes(path))
    return found


def _bytes(path):
    """The bytes of a regular file, or None for anything else."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _main(files):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(files)
    return status, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_a_run_fails_cleanly_and_agrees_with_one_file_at_a_time(tree):
    tmp = tempfile.mkdtemp(prefix="textforge-run-")
    try:
        with mock.patch.object(scriptlet, "MAX_LOOP_ITERATIONS", 5):
            cli_root, one_root = (os.path.join(tmp, side)
                                  for side in ("cli", "one"))
            files = _build(cli_root, tree)
            one_files = _build(one_root, tree)
            # A file named twice runs once, under the name given first.
            failed, done = set(), set()
            for i, path in enumerate(one_files):
                if os.path.realpath(path) in done:
                    continue
                done.add(os.path.realpath(path))
                try:
                    process_file(path, detect_style(path))
                except EngineError:
                    failed.add(i)
            before = {path: os.stat(path) for path in files}
            before_bytes = {path: _bytes(path) for path in files}

            status, err = _main(files)

            assert status == (1 if failed else 0)
            lines = err.splitlines()
            assert len(lines) == len(failed)
            for line in lines:
                assert re.match(r"^.+:\d+:\d+: ", line), line
                assert "Traceback" not in line
            for i in failed:
                path, was = files[i], before[files[i]]
                now = os.stat(path)
                assert (now.st_ino, now.st_mode) == (was.st_ino, was.st_mode)
                if before_bytes[path] is not None:
                    assert now.st_mtime_ns == was.st_mtime_ns
                    assert _bytes(path) == before_bytes[path]
            after = _snapshot(cli_root)
            assert not [p for p in after if ".textforge-" in p]
            assert {p: v[2] for p, v in after.items()} == \
                {p: v[2] for p, v in _snapshot(one_root).items()}

            assert _main(files) == (status, err)
            assert _snapshot(cli_root) == after
    finally:
        shutil.rmtree(tmp)
