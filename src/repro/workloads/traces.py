"""Record/replay of abstract-domain operation traces.

A *trace* is the exact sequence of domain operations an analysis
performed, in SSA form: every abstract state has an integer id, and
each :class:`TraceOp` names the method, the ids it consumed and the id
it produced.  Traces serve three purposes:

* **benchmarking** -- replaying one identical operation sequence
  through different octagon implementations isolates domain time from
  analyzer overhead (the methodology behind Fig. 8);
* **debugging/minimisation** -- a diverging analysis can be captured
  once and replayed deterministically;
* **testing** -- a differential oracle: replaying any recorded trace
  through ``Octagon`` and ``ApronOctagon`` must produce semantically
  equal final states.

Traces are JSON-serialisable (:meth:`OpTrace.to_json`).

Record with :func:`tracing_factory`, which wraps a domain factory so
that every state the analyzer touches is a :class:`TracingState` proxy;
replay with :func:`replay`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.constraints import LinExpr, OctConstraint

#: Domain methods that produce a new abstract state.
STATE_METHODS = frozenset({
    "join", "meet", "widening", "narrowing", "forget", "assign_const",
    "assign_interval", "assign_var", "assign_linexpr", "assume_linear",
    "meet_constraint", "meet_constraints", "copy", "widening_thresholds",
})

#: Domain methods that only query a state.
QUERY_METHODS = frozenset({
    "is_bottom", "is_top", "is_leq", "is_eq", "bounds", "bound_linexpr",
    "to_box", "close", "closure",
})


@dataclass(frozen=True)
class TraceOp:
    """One recorded operation: ``result = method(state, *args)``."""

    result: Optional[int]  # state id produced, None for queries
    method: str
    target: int  # state id the method was invoked on
    args: Tuple[Any, ...] = ()


@dataclass
class OpTrace:
    """A full recorded run: initial constructors plus operations."""

    n: int
    ops: List[TraceOp] = field(default_factory=list)
    n_states: int = 0

    def fresh_id(self) -> int:
        sid = self.n_states
        self.n_states += 1
        return sid

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "n_states": self.n_states,
            "ops": [[op.result, op.method, op.target, _encode_args(op.args)]
                    for op in self.ops],
        })

    @classmethod
    def from_json(cls, text: str) -> "OpTrace":
        raw = json.loads(text)
        trace = cls(n=raw["n"], n_states=raw["n_states"])
        for result, method, target, args in raw["ops"]:
            trace.ops.append(TraceOp(result, method, target,
                                     _decode_args(args)))
        return trace

    def __len__(self) -> int:
        return len(self.ops)


# ----------------------------------------------------------------------
# argument encoding (JSON-able, round-trips domain value types)
# ----------------------------------------------------------------------
def _encode_arg(arg: Any):
    if isinstance(arg, OctConstraint):
        return {"__cons__": [arg.i, arg.coeff_i, arg.j, arg.coeff_j, arg.bound]}
    if isinstance(arg, LinExpr):
        return {"__lin__": [sorted(arg.coeffs.items()), arg.const]}
    if isinstance(arg, StateRef):
        return {"__state__": arg.sid}
    if isinstance(arg, (list, tuple)):
        return {"__seq__": [_encode_arg(x) for x in arg]}
    if isinstance(arg, (int, float, str, bool)) or arg is None:
        return arg
    raise TypeError(f"cannot encode trace argument {arg!r}")


def _encode_args(args: Sequence[Any]):
    return [_encode_arg(a) for a in args]


def _decode_arg(raw):
    if isinstance(raw, dict):
        if "__cons__" in raw:
            i, ci, j, cj, bound = raw["__cons__"]
            return OctConstraint(i, ci, j, cj, bound)
        if "__lin__" in raw:
            items, const = raw["__lin__"]
            return LinExpr({int(v): float(c) for v, c in items}, const)
        if "__state__" in raw:
            return StateRef(raw["__state__"])
        if "__seq__" in raw:
            return tuple(_decode_arg(x) for x in raw["__seq__"])
        raise TypeError(f"cannot decode {raw!r}")
    return raw


def _decode_args(raw) -> Tuple[Any, ...]:
    return tuple(_decode_arg(a) for a in raw)


@dataclass(frozen=True)
class StateRef:
    """A reference to another recorded state inside an argument list."""

    sid: int


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TracingState:
    """Proxy around an abstract state that records every operation."""

    __slots__ = ("inner", "sid", "trace")

    def __init__(self, inner, sid: int, trace: OpTrace):
        self.inner = inner
        self.sid = sid
        self.trace = trace

    @property
    def n(self) -> int:
        return self.inner.n

    def __getattr__(self, name: str):
        attr = getattr(self.inner, name)
        if name in STATE_METHODS:
            def call(*args, **kwargs):
                enc, dec = _split_args(args)
                result = attr(*dec, **kwargs)
                sid = self.trace.fresh_id()
                self.trace.ops.append(TraceOp(sid, name, self.sid, enc))
                return TracingState(result, sid, self.trace)
            return call
        if name in QUERY_METHODS:
            def call(*args, **kwargs):
                enc, dec = _split_args(args)
                self.trace.ops.append(TraceOp(None, name, self.sid, enc))
                result = attr(*dec, **kwargs)
                if result is self.inner:  # close()/closure() return self
                    return self
                return result
            return call
        return attr

    def __repr__(self) -> str:
        return f"TracingState(sid={self.sid}, inner={self.inner!r})"


def _split_args(args):
    """Unwrap TracingState arguments; produce the encoded twin list."""
    encoded = []
    decoded = []
    for arg in args:
        if isinstance(arg, TracingState):
            encoded.append(StateRef(arg.sid))
            decoded.append(arg.inner)
        elif isinstance(arg, (list, tuple)):
            enc_inner, dec_inner = _split_args(arg)
            encoded.append(tuple(enc_inner))
            decoded.append(type(arg)(dec_inner) if isinstance(arg, list)
                           else tuple(dec_inner))
        else:
            encoded.append(arg)
            decoded.append(arg)
    return tuple(encoded), tuple(decoded)


class TracingFactory:
    """A DomainFactory wrapper whose states record into one OpTrace."""

    def __init__(self, factory, trace: Optional[OpTrace] = None, n: int = 0):
        self.factory = factory
        self.trace = trace if trace is not None else OpTrace(n=n)
        self.name = f"traced-{getattr(factory, 'name', 'domain')}"

    def _fresh(self, method: str, inner, args=()):
        sid = self.trace.fresh_id()
        self.trace.ops.append(TraceOp(sid, method, -1, args))
        return TracingState(inner, sid, self.trace)

    def top(self, n: int):
        self.trace.n = max(self.trace.n, n)
        return self._fresh("top", self.factory.top(n), (n,))

    def bottom(self, n: int):
        self.trace.n = max(self.trace.n, n)
        return self._fresh("bottom", self.factory.bottom(n), (n,))

    def from_box(self, bounds):
        self.trace.n = max(self.trace.n, len(bounds))
        enc = tuple((float(lo), float(hi)) for lo, hi in bounds)
        return self._fresh("from_box", self.factory.from_box(bounds), (enc,))


def tracing_factory(factory) -> TracingFactory:
    """Wrap a domain factory so analyses record an operation trace."""
    return TracingFactory(factory)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay(trace: OpTrace, factory) -> Dict[int, object]:
    """Re-execute a trace against a domain factory.

    Returns the mapping from state id to the final abstract states (so
    differential tests can compare any intermediate result).
    """
    states: Dict[int, object] = {}

    def resolve(arg):
        if isinstance(arg, StateRef):
            return states[arg.sid]
        if isinstance(arg, tuple):
            return tuple(resolve(x) for x in arg)
        return arg

    for op in trace.ops:
        args = tuple(resolve(a) for a in op.args)
        if op.target == -1:  # constructor
            if op.method == "top":
                states[op.result] = factory.top(*args)
            elif op.method == "bottom":
                states[op.result] = factory.bottom(*args)
            elif op.method == "from_box":
                states[op.result] = factory.from_box(list(args[0]))
            else:
                raise ValueError(f"unknown constructor {op.method}")
            continue
        target = states[op.target]
        method = getattr(target, op.method)
        result = method(*args)
        if op.result is not None:
            states[op.result] = result
    return states
