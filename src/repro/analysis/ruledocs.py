"""Rule documentation table: one source of truth for ``repro lint
--explain CODE`` and the rule tables in ``docs/static_analysis.md``.

Every entry carries the rationale and a minimal bad/good pair.  The
concurrency (R6xx) and suppression-hygiene (W0xx) families get full
entries here; the other families keep their one-line description from
:data:`repro.analysis.findings.RULES` and point at the docs section
that discusses them in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.findings import RULES


@dataclass(frozen=True)
class RuleDoc:
    """Documentation for one rule code."""

    code: str
    summary: str
    rationale: str
    bad: str
    good: str

    def render(self) -> str:
        lines = [
            f"{self.code}: {self.summary}",
            "",
            self.rationale,
            "",
            "Bad:",
            *(f"    {line}" for line in self.bad.splitlines()),
            "",
            "Good:",
            *(f"    {line}" for line in self.good.splitlines()),
        ]
        return "\n".join(lines)


RULE_DOCS: Dict[str, RuleDoc] = {
    doc.code: doc
    for doc in [
        RuleDoc(
            code="R601",
            summary=RULES["R601"],
            rationale=(
                "Between a read of shared state and the write that "
                "depends on it, every await/yield/executor hand-off is "
                "a point where another coroutine may run and update the "
                "same attribute; the later write then clobbers that "
                "update. The attributes that count as shared are "
                "registered in signatures.SHARED_STATE_ATTRS. Hold an "
                "asyncio.Lock across the read-modify-write, or swap the "
                "value into a local before suspending."
            ),
            bad=(
                "task = self._tick_task      # read\n"
                "await task                  # interleaving point\n"
                "self._tick_task = None      # write clobbers a restart"
            ),
            good=(
                "task, self._tick_task = self._tick_task, None\n"
                "await task                  # state settled pre-await"
            ),
        ),
        RuleDoc(
            code="R602",
            summary=RULES["R602"],
            rationale=(
                "A function is async-colored if it is an async def or "
                "is transitively called by one within the module; it "
                "may run on the event loop, where a blocking call "
                "(time.sleep, sync subprocess/socket I/O, open, "
                "Future.result()) stalls every session the loop "
                "serves. The engine's worker modules define no "
                "coroutines, so their deliberate blocking calls are "
                "out of scope by construction."
            ),
            bad=(
                "async def tick(self):\n"
                "    time.sleep(0.1)   # freezes every session"
            ),
            good=(
                "async def tick(self):\n"
                "    await asyncio.sleep(0.1)"
            ),
        ),
        RuleDoc(
            code="R603",
            summary=RULES["R603"],
            rationale=(
                "Calling an async def returns a coroutine object; "
                "nothing runs until it is awaited, gathered, or wrapped "
                "in a task. A discarded coroutine is dead code that "
                "looks alive — the call site reads as if the work "
                "happened."
            ),
            bad=(
                "self._poll_registry()        # returns a coroutine,\n"
                "                             # never runs"
            ),
            good=(
                "await self._poll_registry()\n"
                "# or: asyncio.create_task(self._poll_registry())"
            ),
        ),
        RuleDoc(
            code="R604",
            summary=RULES["R604"],
            rationale=(
                "asyncio primitives (Lock, Event, Queue, ...) bind to "
                "an event loop. Created at module scope — or in a sync "
                "function before asyncio.run() starts the loop — they "
                "bind to no loop or the wrong one, and modern Python "
                "raises once they are shared across loops. Create them "
                "inside the coroutine or server object that owns them."
            ),
            bad=(
                "STOP = asyncio.Event()       # module scope, no loop\n"
                "def main():\n"
                "    asyncio.run(serve(STOP))"
            ),
            good=(
                "async def serve():\n"
                "    stop = asyncio.Event()   # bound to running loop"
            ),
        ),
        RuleDoc(
            code="R605",
            summary=RULES["R605"],
            rationale=(
                "Engine TaskSpec payloads and executor submissions "
                "cross a process boundary by pickling (or fork). "
                "Locks, sockets, stream reader/writer halves, open "
                "handles, and event loops do not survive that "
                "boundary — they fail to pickle or arrive broken. "
                "Pass plain data and re-open resources in the worker."
            ),
            bad=(
                "lock = threading.Lock()\n"
                "pool.submit(work, lock)      # unpicklable capture"
            ),
            good=(
                "pool.submit(work, key)       # plain data; the worker\n"
                "                             # makes its own lock"
            ),
        ),
        RuleDoc(
            code="W001",
            summary=RULES["W001"],
            rationale=(
                "An inline '# chaos: ignore[CODE]' that no longer "
                "matches any finding on its line is stale: either the "
                "defect was fixed (delete the comment) or the code "
                "moved (the suppression now hides nothing and will "
                "silently swallow a future finding)."
            ),
            bad="x = f()  # chaos: ignore[R601]  (line no longer races)",
            good="x = f()",
        ),
        RuleDoc(
            code="W002",
            summary=RULES["W002"],
            rationale=(
                "Suppressions are audit records. One without a '-- "
                "reason' tail tells the next reader nothing about why "
                "the finding is acceptable, so it cannot be reviewed "
                "or retired."
            ),
            bad="await q.put(x)  # chaos: ignore[R601]",
            good=(
                "await q.put(x)  # chaos: ignore[R601] -- single "
                "producer, no concurrent writer"
            ),
        ),
    ]
}


def explain(code: str) -> Optional[str]:
    """Render the documentation for ``code``; ``None`` if unknown.

    Codes without a full :class:`RuleDoc` entry fall back to their
    one-line description plus a docs pointer.
    """
    normalized = code.strip().upper()
    doc = RULE_DOCS.get(normalized)
    if doc is not None:
        return doc.render()
    if normalized in RULES:
        return (
            f"{normalized}: {RULES[normalized]}\n\n"
            "See docs/static_analysis.md for the full discussion of "
            "this rule family."
        )
    return None
