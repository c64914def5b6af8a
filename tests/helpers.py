"""Tiny shared helpers for the test modules."""
from textforge.core import EngineState
from textforge.scanner import Snippet
from textforge.styles import STYLES


def make_state(path="doc.txt", style="default"):
    return EngineState(path, STYLES[style])


def concat_segments(segments):
    """Reassemble the raw bytes covered by an update-mode scan (losslessness
    check)."""
    parts = []
    for seg in segments:
        if isinstance(seg, Snippet):
            parts.append(seg.raw)
            if seg.existing_output is not None:
                parts.append(seg.existing_output)
        else:
            parts.append(seg)
    return "".join(parts)
