"""The sampling profiler: folding, merging, the sampler thread, and
pool threads joining the current job's profiler."""

from __future__ import annotations

import contextvars
import threading
import time

from repro.obs import profiler
from repro.obs.profiler import SamplingProfiler


class TestFolding:
    def test_render_folded_heaviest_first(self):
        text = profiler.render_folded({"a;b": 1, "c": 9, "a;a": 1})
        assert text.splitlines() == ["c 9", "a;a 1", "a;b 1"]

    def test_render_folded_empty(self):
        assert profiler.render_folded({}) == ""


class TestSampler:
    def test_start_stop_collects_this_function(self):
        prof = SamplingProfiler(interval=0.001).start()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
        prof.stop()
        counts = prof.counts()
        assert counts
        # the sample-on-start guarantee means this very function is a
        # leaf frame of at least one folded stack
        assert any("test_start_stop_collects_this_function" in stack
                   for stack in counts)
        assert not prof.running

    def test_sample_once_without_thread(self):
        prof = SamplingProfiler()
        prof.sample_once()
        (stack,) = prof.counts()
        # sampling our own thread: the sampler's frame is the leaf,
        # this test the frame right above it
        frames = stack.split(";")
        assert frames[-1] == "profiler:sample_once"
        assert frames[-2] == (
            "test_sampling_profiler:test_sample_once_without_thread")

    def test_short_run_still_non_empty(self):
        # shorter than one tick: the synchronous start/stop samples
        # carry the profile
        prof = SamplingProfiler(interval=60.0).start()
        prof.stop()
        assert prof.counts()

    def test_stack_is_root_first(self):
        prof = SamplingProfiler()
        prof.sample_once()
        (stack,) = prof.counts()
        frames = stack.split(";")
        assert frames[-2].endswith("test_stack_is_root_first")
        assert len(frames) > 2          # callers fold in above it

    def test_added_thread_samples_under_prefix(self):
        ready = threading.Event()
        done = threading.Event()
        idents = {}

        def parked():
            idents["id"] = threading.get_ident()
            ready.set()
            done.wait(timeout=5.0)

        thread = threading.Thread(target=parked, daemon=True)
        thread.start()
        assert ready.wait(timeout=5.0)
        prof = SamplingProfiler()
        prof.add_thread(idents["id"], "worker")
        prof.sample_once()
        prof.remove_thread(idents["id"])
        prof.sample_once()
        done.set()
        thread.join(timeout=5.0)
        joined = [stack for stack in prof.counts()
                  if stack.startswith("worker;")]
        # the sample on joining plus one periodic sample, none after
        # the thread left
        assert sum(prof.counts()[stack] for stack in joined) == 2
        assert all("parked" in stack for stack in joined)

    def test_clear_and_render(self):
        prof = SamplingProfiler()
        prof.sample_once()
        assert prof.render()
        prof.clear()
        assert prof.render() == ""

    def test_dead_target_samples_nothing(self):
        thread = threading.Thread(target=lambda: None)
        thread.start()
        thread.join()
        prof = SamplingProfiler(thread_id=thread.ident)
        prof.sample_once()
        assert prof.counts() == {}


class TestJobProfiler:
    def test_thread_sampled_joins_the_tracked_profiler(self):
        prof = SamplingProfiler(interval=60.0)
        seen = []

        def chunk():
            with profiler.thread_sampled():
                seen.append(threading.get_ident())

        with profiler.track(prof):
            context = contextvars.copy_context()
        thread = threading.Thread(target=context.run, args=(chunk,))
        thread.start()
        thread.join(timeout=5.0)
        assert seen
        stacks = list(prof.counts())
        assert stacks and all(stack.startswith("worker;")
                              for stack in stacks)
        assert any(":chunk;" in stack for stack in stacks)
        assert prof._extra == {}

    def test_thread_sampled_without_profiler_is_inert(self):
        with profiler.thread_sampled():
            pass
