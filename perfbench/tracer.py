"""Span recorder that wraps the layers' public functions at their module attributes.

``cli`` and the library modules call each other through module attributes
(``_entropy.cost_tensor``, ``_optimize.solve_marginal_lp``, ...), and
functions inside one module look each other up in the module's globals, so
replacing the attribute intercepts every call while the traced run makes
exactly the same calls as the untraced one. Nothing is patched while no
tracer is installed. Spans stay in memory until ``to_json``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from causalprecode import assign, cli, entropy, optimize, sim
from causalprecode.model import SUPPORT_THRESHOLD

# (module, attribute): the layer boundaries that get a span.
LAYERS = (
    (cli, "run"),
    (entropy, "quadrature_grid"),
    (entropy, "cost_tensor"),
    (entropy, "mutual_information"),
    (optimize, "solve_uniform_lp"),
    (optimize, "solve_marginal_lp"),
    (optimize, "support_reduce"),
    (optimize, "blahut_arimoto"),
    (assign, "hungarian"),
    (assign, "multidim_assignment"),
    (assign, "assignment_rate"),
    (sim, "simulate"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    counters: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _counters(name: str, args, kwargs, result) -> dict:
    """Work counts read off a layer call's arguments and result."""
    if name == "entropy.quadrature_grid":
        return {"nodes": result.panels * result.nodes_per_panel}
    if name == "entropy.cost_tensor":
        spec = args[0]
        grid = args[1] if len(args) > 1 else kwargs.get("grid")
        if grid is None:
            grid = _ORIGINALS[(entropy, "quadrature_grid")](spec)
        nodes = grid.panels * grid.nodes_per_panel
        return {"nodes": nodes, "node_symbols": nodes * spec.num_symbols}
    if name == "optimize.solve_marginal_lp":
        support = int(np.count_nonzero(result.pmf.probs > SUPPORT_THRESHOLD))
        return {"pivots": getattr(result, "iterations", 0), "support": support}
    if name == "optimize.blahut_arimoto":
        return {"iterations": getattr(result, "iterations", 0),
                "converged": int(result.converged)}
    if name == "sim.simulate":
        return {"trials": kwargs.get("trials", args[2] if len(args) > 2 else None),
                "workers": kwargs.get("workers", args[4] if len(args) > 4 else 1)}
    return {}


# A layer a later version of the package drops is simply not traced.
_ORIGINALS = {(mod, attr): getattr(mod, attr) for mod, attr in LAYERS if hasattr(mod, attr)}


class Tracer:
    """Records one span per wrapped call; optionally keeps cost tensors for checks."""

    def __init__(self, capture_costs: bool = False) -> None:
        self.spans: list[Span] = []
        self.costs: dict[int, list[np.ndarray]] = {}
        self._capture_costs = capture_costs
        self._stack: list[int] = []
        self._job: int | None = None

    def _wrap(self, mod, attr):
        fn = _ORIGINALS[(mod, attr)]
        name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent=parent, job=self._job)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            try:
                span.counters = _counters(name, args, kwargs, result)
            except (AttributeError, KeyError, TypeError):
                pass  # a later version of the layer may not expose this count
            if self._capture_costs and name == "entropy.cost_tensor":
                self.costs.setdefault(self._job, []).append(result.values)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod, attr in _ORIGINALS:
            setattr(mod, attr, self._wrap(mod, attr))
        return self

    def __exit__(self, *exc) -> None:
        for (mod, attr), fn in _ORIGINALS.items():
            setattr(mod, attr, fn)

    @contextlib.contextmanager
    def job(self, job_id: int, label: str):
        """A top-level span around one job; layer spans inside carry its id."""
        span = Span("job", time.perf_counter(), job=job_id, counters={"label": label})
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._job = job_id
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._job = None

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "self_s": s.self_s, **s.counters}
            for s in self.spans
        ]
