"""In-memory spans around the public calls of each layer.

:class:`Tracer` wraps public methods and functions of the program from
the outside: each call records one span ``[name, start, end, parent]``
in a list, with the innermost open span as its parent. Nothing is
written until the benchmark ends. Wrappers only record in the process
that installed them; forked pool workers call straight through.

The wrapped calls, one span name each:

========================  ==============================================
span                      public call
========================  ==============================================
``spec.expand``           ``CampaignSpec.expand``
``runner.thermal_indices`` ``ExperimentRunner.thermal_indices``
``runner.build_engine``   ``ExperimentRunner.build_engine``
``runner.run``            ``ExperimentRunner.run``
``executor.run_campaign`` ``CampaignExecutor.run_campaign``
``store.open``            ``ResultStore.__init__``
``store.has``             ``ResultStore.has``
``store.save``            ``ResultStore.save``
``store.load``            ``ResultStore.load``
``result_io.save_result`` ``analysis.result_io.save_result`` (as the store calls it)
``result_io.load_result`` ``analysis.result_io.load_result`` (as the store calls it)
========================  ==============================================
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent]
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # recording

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def _wrap(self, fn: Any, name: str) -> Any:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self) -> None:
        """Wrap every layer boundary listed in the module docstring."""
        import repro.campaign.store as store_module
        from repro.analysis.runner import ExperimentRunner
        from repro.campaign import CampaignExecutor, CampaignSpec, ResultStore

        self.patch(CampaignSpec, "expand", "spec.expand")
        self.patch(ExperimentRunner, "thermal_indices", "runner.thermal_indices")
        self.patch(ExperimentRunner, "build_engine", "runner.build_engine")
        self.patch(ExperimentRunner, "run", "runner.run")
        self.patch(CampaignExecutor, "run_campaign", "executor.run_campaign")
        self.patch(ResultStore, "__init__", "store.open")
        self.patch(ResultStore, "has", "store.has")
        self.patch(ResultStore, "save", "store.save")
        self.patch(ResultStore, "load", "store.load")
        self.patch(store_module, "save_result", "result_io.save_result")
        self.patch(store_module, "load_result", "result_io.load_result")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # queries

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def children(self, index: int) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == index]

    def self_time(self, index: int) -> float:
        """Duration minus the part its child spans cover."""
        return self.duration(index) - sum(
            self.duration(i) for i in self.children(index)
        )

    def under(self, root: int, name: Optional[str] = None) -> List[int]:
        """Indices of spans nested anywhere below ``root`` (in order)."""
        inside = {root}
        found = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                if name is None or self.spans[i][0] == name:
                    found.append(i)
        return found

    def write(self, path: Path) -> None:
        """Write every span once, as Chrome trace-event JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events: List[Dict[str, Any]] = [
            {"name": name, "ph": "X", "pid": self._pid, "tid": 0,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": i, "parent": parent}}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}) + "\n")
