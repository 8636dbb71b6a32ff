"""chaos-race R6xx rules: one seeded-bug fixture plus its corrected
silent twin per rule, mirroring the real defects the pass exists to
catch in the serving/engine stacks."""

import textwrap

from repro.analysis.races import check_races_source


def _codes(source):
    findings = check_races_source(textwrap.dedent(source), "fixture.py")
    return [finding.code for finding in findings]


class TestR601SharedStateRmw:
    BAD = """
    class Server:
        async def stop(self):
            if self._tick_task is not None:
                await self._tick_task
                self._tick_task = None
    """

    GOOD_SWAP = """
    class Server:
        async def stop(self):
            task, self._tick_task = self._tick_task, None
            if task is not None:
                await task
    """

    GOOD_LOCKED = """
    class Server:
        async def bump(self):
            async with self._lock:
                n = self._n_dispatched
                await self.flush(n)
                self._n_dispatched = n + 1

        async def flush(self, n):
            pass
    """

    def test_read_await_write_is_flagged(self):
        assert "R601" in _codes(self.BAD)

    def test_swap_to_local_twin_is_silent(self):
        assert _codes(self.GOOD_SWAP) == []

    def test_lock_protected_twin_is_silent(self):
        assert _codes(self.GOOD_LOCKED) == []

    def test_mutator_method_counts_as_write(self):
        bad = """
        class Server:
            async def admit(self, mid, client):
                if mid in self._clients:
                    await self.reject(mid)
                self._clients.pop(mid, None)

            async def reject(self, mid):
                pass
        """
        assert "R601" in _codes(bad)

    def test_write_before_the_await_is_silent(self):
        good = """
        class Server:
            async def admit(self, mid, client):
                self._clients[mid] = client
                await self.greet(client)

            async def greet(self, client):
                pass
        """
        assert _codes(good) == []


class TestR602BlockingCalls:
    BAD = """
    import time

    async def tick():
        time.sleep(1.0)
    """

    GOOD = """
    import asyncio

    async def tick():
        await asyncio.sleep(1.0)
    """

    def test_blocking_sleep_in_coroutine_is_flagged(self):
        assert "R602" in _codes(self.BAD)

    def test_async_sleep_twin_is_silent(self):
        assert _codes(self.GOOD) == []

    def test_blocking_call_in_colored_helper_is_flagged(self):
        bad = """
        import time

        def helper():
            time.sleep(1.0)

        async def main():
            helper()
        """
        codes = _codes(bad)
        assert "R602" in codes

    def test_sync_module_twin_is_silent(self):
        # The engine's worker modules block deliberately; with no
        # coroutine in the module, nothing is async-colored.
        good = """
        import time

        def worker():
            time.sleep(1.0)
        """
        assert _codes(good) == []

    def test_future_result_in_coroutine_is_flagged(self):
        bad = """
        async def gather(pool, spec):
            return pool.submit(spec).result()
        """
        assert "R602" in _codes(bad)

    def test_bare_imported_sleep_is_flagged(self):
        bad = """
        from time import sleep

        async def tick():
            sleep(1.0)
        """
        assert "R602" in _codes(bad)


class TestR603UnawaitedCoroutines:
    BAD_DISCARDED = """
    async def work():
        pass

    async def main():
        work()
    """

    BAD_BOUND = """
    async def work():
        pass

    async def main():
        pending = work()
        return 1
    """

    GOOD_AWAITED = """
    async def work():
        pass

    async def main():
        await work()
    """

    GOOD_GATHERED = """
    import asyncio

    async def work():
        pass

    async def main():
        await asyncio.gather(work(), work())
    """

    def test_discarded_coroutine_is_flagged(self):
        assert "R603" in _codes(self.BAD_DISCARDED)

    def test_bound_but_never_used_coroutine_is_flagged(self):
        assert "R603" in _codes(self.BAD_BOUND)

    def test_awaited_twin_is_silent(self):
        assert _codes(self.GOOD_AWAITED) == []

    def test_gathered_twin_is_silent(self):
        assert _codes(self.GOOD_GATHERED) == []

    def test_bound_then_awaited_is_silent(self):
        good = """
        async def work():
            pass

        async def main():
            pending = work()
            await pending
        """
        assert _codes(good) == []


class TestR604PrimitiveOutsideLoop:
    BAD_MODULE = """
    import asyncio

    STOP = asyncio.Event()
    """

    BAD_SYNC_MAIN = """
    import asyncio

    async def serve(stop):
        await stop.wait()

    def main():
        stop = asyncio.Event()
        asyncio.run(serve(stop))
    """

    GOOD = """
    import asyncio

    async def serve():
        stop = asyncio.Event()
        await stop.wait()

    def main():
        asyncio.run(serve())
    """

    def test_module_scope_primitive_is_flagged(self):
        assert "R604" in _codes(self.BAD_MODULE)

    def test_primitive_before_asyncio_run_is_flagged(self):
        assert "R604" in _codes(self.BAD_SYNC_MAIN)

    def test_primitive_inside_coroutine_is_silent(self):
        assert _codes(self.GOOD) == []

    def test_bare_imported_lock_at_module_scope_is_flagged(self):
        bad = """
        from asyncio import Lock

        GUARD = Lock()
        """
        assert "R604" in _codes(bad)


class TestR605ForkPickleHazards:
    BAD_SUBMIT = """
    def dispatch(pool, lock):
        pool.submit(work, lock)
    """

    BAD_TASKSPEC = """
    import socket

    def build(key):
        sock = socket.create_connection(("host", 1))
        return TaskSpec(key=key, fn="m:f", payload={"sock": sock})
    """

    GOOD = """
    def dispatch(pool, key):
        pool.submit(work, key)
    """

    def test_lock_param_captured_by_submit_is_flagged(self):
        assert "R605" in _codes(self.BAD_SUBMIT)

    def test_socket_captured_by_taskspec_is_flagged(self):
        assert "R605" in _codes(self.BAD_TASKSPEC)

    def test_plain_data_twin_is_silent(self):
        assert _codes(self.GOOD) == []

    def test_hazard_inside_lambda_payload_is_flagged(self):
        bad = """
        def dispatch(pool, loop):
            pool.submit(lambda: loop.stop())
        """
        assert "R605" in _codes(bad)


class TestTreeIsRaceClean:
    def test_shipped_tree_has_no_r6xx_findings(self, tree_lint_report):
        from repro.analysis.findings import filter_findings

        findings = filter_findings(tree_lint_report.findings, select="R")
        assert findings == [], [finding.render() for finding in findings]
        assert tree_lint_report.n_files_race_analyzed > 100
