"""Reversible pi-calculus engine with pluggable extrusion memories.

The engine runs a forward and backward labelled transition system over
history-carrying process terms.  The memory attached to restrictions is
a plug-in point: a bare key set, a first-extruder-indexed set, or a
cause-set-indexed set, each yielding a different treatment of parallel
extrusions and hence a different causal semantics.  The metatheory ships
as runnable checkers: do/undo bijection, commuting squares, causal
consistency, structural/causal correspondence with a cause-annotated
reference semantics, reading a step's structural causes off the history
table causality keeps on each state, and erasure bisimulation against
that reference semantics with its causes erased.
"""

from .memory import (
    DuplicateKeyError, Memory, MemoryKind, instantiation_related, strip_key,
)
from .semantics import (
    NoSuchTransitionError, Transition, backward_transitions, cause_update,
    forward_transitions, step,
)
from .syntax import (
    STAR, STAR_SET, AnnotatedName, BoundOut, Direction, FreeOut, InAct,
    Input, Label, Nil, Output, Par, ParseError, PastInput, PastOutput,
    Process, RProcess, RRes, Res, Tau, erase, erase_label, format,
    initial, keys, parse_process, substitute,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
