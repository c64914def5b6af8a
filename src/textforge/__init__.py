"""textforge: a text preprocessor with embedded scriptlets.

Files carry small programs between style-specific delimiters; the engine
either appends each program's output in place between output markers
(update mode, idempotent) or swaps the markup for the bare output
(replace mode, written elsewhere).
"""

__version__ = "0.1.0"
