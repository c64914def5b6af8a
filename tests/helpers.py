"""Tiny shared helpers for the test modules."""
from textforge.core import EngineState
from textforge.styles import STYLES


def make_state(path="doc.txt", style="default"):
    return EngineState(path, STYLES[style])


def concat_segments(segments):
    """Reassemble the raw bytes covered by an update-mode scan (losslessness
    check)."""
    return "".join(seg if type(seg) is str else seg.existing_output or ""
                   for seg in segments)
