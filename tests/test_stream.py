"""Streaming tier tests: event journal, SSE codec, live job streams.

Pins down the satellite guarantees: SSE event order matches the job
lifecycle (``queued`` → ``running`` → ``progress``\\* → one terminal
event), a disconnected client resumes from ``Last-Event-ID`` without
replaying — and never sees a duplicate terminal event — and the
non-streaming polling client is completely unaffected by streams
running next to it.
"""

import io
import threading

import pytest

from repro.service import (EventJournal, ServiceClient, TMAService,
                           parse_sse, serve_in_thread, sse_encode)
from repro.service.stream import (MAX_EVENTS_PER_JOB, TERMINAL_EVENTS,
                                  JobEvent, sse_keepalive)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("queue_capacity", 32)
    return TMAService(**kwargs)


# ----------------------------------------------------------------------
# EventJournal


def test_journal_seqs_are_per_job_and_monotonic_from_one():
    journal = EventJournal()
    assert journal.append("a", "queued").seq == 1
    assert journal.append("a", "running").seq == 2
    assert journal.append("b", "queued").seq == 1
    assert [e.seq for e in journal.events("a")] == [1, 2]
    assert journal.events("a", after=1)[0].event == "running"
    assert journal.known("a") and not journal.known("zz")


def test_journal_wait_blocks_until_append():
    journal = EventJournal()
    journal.append("a", "queued")
    got = []

    def subscriber():
        got.extend(journal.wait("a", after=1, timeout=10.0))

    thread = threading.Thread(target=subscriber)
    thread.start()
    journal.append("a", "done", {"state": "done"})
    thread.join(timeout=10.0)
    assert [e.event for e in got] == ["done"]
    assert journal.finished("a")
    # A finished stream never blocks, even with nothing new to return.
    assert journal.wait("a", after=2, timeout=60.0) == []


def test_journal_cap_sheds_progress_but_never_terminal():
    journal = EventJournal(max_events_per_job=4)
    journal.append("a", "queued")
    journal.append("a", "running")
    assert journal.append("a", "progress", {"message": "w1"}) is not None
    assert journal.append("a", "progress", {"message": "w2"}) is not None
    # Cap reached: further progress ticks are shed...
    assert journal.append("a", "progress", {"message": "w3"}) is None
    # ...but the terminal event always lands.
    assert journal.append("a", "done", {"state": "done"}) is not None
    assert journal.finished("a")
    assert MAX_EVENTS_PER_JOB >= 64  # default cap fits real lifecycles


def test_journal_discard_forgets_the_job():
    journal = EventJournal()
    journal.append("a", "queued")
    journal.discard("a")
    assert not journal.known("a")
    assert len(journal) == 0


# ----------------------------------------------------------------------
# SSE codec


def test_sse_round_trip_and_keepalive_skipping():
    frames = (sse_encode(JobEvent(seq=1, event="queued", data={"q": 1}))
              + sse_keepalive()
              + sse_encode(JobEvent(seq=2, event="done",
                                    data={"state": "done"})))
    events = list(parse_sse(io.BytesIO(frames)))
    assert [(e["id"], e["event"]) for e in events] == [(1, "queued"),
                                                       (2, "done")]
    assert events[1]["data"] == {"state": "done"}


def test_sse_parse_drops_trailing_half_frame():
    frames = (sse_encode(JobEvent(seq=1, event="queued"))
              + b"id: 2\nevent: done\n")  # no blank-line terminator
    events = list(parse_sse(io.BytesIO(frames)))
    assert [e["id"] for e in events] == [1]


# ----------------------------------------------------------------------
# Live streams over HTTP


def _start():
    service = make_service().start()
    server, _thread = serve_in_thread(service)
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    return service, server, client


def test_stream_order_matches_lifecycle_with_progress_ticks():
    service, server, client = _start()
    try:
        receipt = client.submit("vvadd", scale=0.2, config="rocket",
                                windows=3)
        events = list(client.stream(receipt["id"]))
        names = [e["event"] for e in events]
        # queued first, running before any progress, terminal last.
        assert names[0] == "queued"
        assert names[1] == "running"
        assert names[-1] == "done"
        ticks = [e for e in events if e["event"] == "progress"]
        assert ticks, "windowed job on a thread executor must tick"
        assert all(names.index("running") < names.index("progress")
                   for _ in ticks)
        # Sequence ids are strictly increasing with no gaps.
        assert [e["id"] for e in events] == list(
            range(1, len(events) + 1))
        # The terminal frame carries the whole result: no status poll
        # needed after a successful stream.
        final = events[-1]["data"]
        assert final["state"] == "done"
        assert len(final["result"]["windowed"]["spans"]) == 3
        assert final["result"]["sampled"] is False
        assert final["result"]["tma"]["dominant"]
        # Lifecycle frames are tagged with the canonical routing key
        # (progress ticks are raw window messages and carry none).
        assert all(e["data"].get("job_key") for e in events
                   if e["event"] != "progress")
    finally:
        server.shutdown()
        service.drain()


def test_stream_resume_never_duplicates_terminal():
    service, server, client = _start()
    try:
        receipt = client.submit("median", scale=0.2, config="rocket")
        record = client.wait(receipt["id"], timeout=60.0)
        assert record["state"] == "done"
        # First connection: take the stream up to (and including) seq 2,
        # then "disconnect".
        first = []
        for event in client.stream(receipt["id"]):
            first.append(event)
            if event["id"] == 2:
                break
        # Reconnect with the last seen id — standard SSE resume.
        second = list(client.stream(receipt["id"], last_event_id=2))
        assert [e["id"] for e in second] == list(
            range(3, 3 + len(second)))
        replayed = {e["id"] for e in first} & {e["id"] for e in second}
        assert not replayed
        terminals = [e for e in first + second
                     if e["event"] in TERMINAL_EVENTS]
        assert len(terminals) == 1
        assert terminals[0]["event"] == "done"
    finally:
        server.shutdown()
        service.drain()


def test_stream_of_finished_job_replays_history_and_ends():
    service, server, client = _start()
    try:
        receipt = client.submit("vvadd", scale=0.2, config="rocket")
        client.wait(receipt["id"], timeout=60.0)
        events = list(client.stream(receipt["id"]))
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "done"
    finally:
        server.shutdown()
        service.drain()


def test_stream_unknown_job_is_404():
    from repro.service import ServiceError

    service, server, client = _start()
    try:
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream("job-999999"))
        assert excinfo.value.status == 404
    finally:
        server.shutdown()
        service.drain()


def test_polling_client_unaffected_by_concurrent_stream():
    """A poller and a streamer watching the same job both finish clean."""
    service, server, client = _start()
    try:
        receipt = client.submit("spmv", scale=0.2, config="rocket",
                                windows=2)
        streamed = []
        streamer = threading.Thread(
            target=lambda: streamed.extend(client.stream(receipt["id"])))
        streamer.start()
        record = client.wait(receipt["id"], timeout=120.0)
        streamer.join(timeout=60.0)
        assert not streamer.is_alive()
        assert record["state"] == "done"
        assert record["result"]["windowed"]["windows"] == 2
        assert record["result"]["tma"]["dominant"]
        assert streamed[-1]["event"] == "done"
        # Poll and stream agree on the result document.
        assert streamed[-1]["data"]["result"] == record["result"]
    finally:
        server.shutdown()
        service.drain()
