"""Hierarchical configuration via `starfish.conf` files.

When a snippet calls `read_starfish_conf()`, the engine walks upward from the
processed file's directory collecting `starfish.conf` from each consecutive
ancestor; the first directory without one ends the walk. The collected files
run top-down as scriptlet programs against the file's scope, so deeper confs
see (and may override) what their ancestors defined. A conf is read as FILE
is, by `core.read_text`: regular files only, UTF-8 with undecodable bytes
passed through, an all-CRLF conf run with LF and any other byte for byte.
One leading byte-order mark is dropped from a conf before it runs.
"""
from __future__ import annotations

import os

from .core import EngineError, EngineState, read_text
from .scriptlet import eval_program, parse_scriptlet

CONF_NAME = "starfish.conf"


def find_conf_chain(start_dir: str) -> tuple[str, ...]:
    """Collect starfish.conf from `start_dir` upward; a gap stops the walk.
    The paths come top-down (shallowest ancestor first)."""
    found: list[str] = []
    d = os.path.abspath(start_dir)
    while True:
        conf = os.path.join(d, CONF_NAME)
        if not os.path.isfile(conf):
            break
        found.append(conf)
        parent = os.path.dirname(d)
        if parent == d:
            break
        d = parent
    return tuple(reversed(found))


def exec_conf_chain(chain: tuple[str, ...], state: EngineState) -> None:
    """Run each conf as a scriptlet program against `state.scope`.

    Conf output ($O) is discarded and relative paths in builtins resolve
    against the conf file's own directory while it runs. Parse and runtime
    errors name the conf file. The state is marked before the first conf
    runs, so any read_starfish_conf() after this call, or inside a conf,
    is a no-op.
    """
    state.conf_loaded = True
    saved_base = state.base_dir
    try:
        for path in chain:
            # An editor's UTF-8 byte-order mark is not scriptlet text.
            source = read_text(path)[0].removeprefix("\ufeff")
            state.base_dir = os.path.dirname(path)
            try:
                eval_program(parse_scriptlet(source), state)
            except EngineError as exc:
                exc.locate(path, source)
                raise
    finally:
        state.base_dir = saved_base

