import threading

import pytest

from avfusion import autodiff as ad


@pytest.fixture
def worker_helps(monkeypatch):
    """start() patches ad._share so that, off the worker, its calling thread
    waits (up to 10 s) in its items for the worker to take one: the second
    item of a fork_join, and the branch of a backward, then run on the worker.
    start() returns the thread of each item run, appended as it runs."""
    def start():
        real, ran = ad._share, []

        def share(n, work):
            me, helped = threading.get_ident(), threading.Event()
            wait = n > 1 and not threading.current_thread().name.startswith("avfusion-worker")

            def traced(i):
                ran.append(threading.get_ident())
                if threading.get_ident() != me:
                    helped.set()
                elif wait:
                    helped.wait(timeout=10)
                work(i)

            real(n, traced)

        monkeypatch.setattr(ad, "_share", share)
        return ran

    return start
