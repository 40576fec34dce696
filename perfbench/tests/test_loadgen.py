"""The open-loop generator against stub servers: a stall must show in the
latency of every request that fell due during it, and refusals and
timeouts must be recorded as failures.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import socket
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import loadgen  # noqa: E402
import stats  # noqa: E402

ANSWER = (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
          b"Connection: close\r\n\r\nok\n")


class StubServer:
    """Answers one connection at a time, like `rcc serve --jobs 1`.
    The ``stall_at``-th request is held for ``stall_s`` before its
    answer; ``answer=False`` reads requests and never answers."""

    def __init__(self, stall_at=None, stall_s=0.0, answer=True):
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.answer = answer
        self.stall = None
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(64)
        self.port = self.sock.getsockname()[1]
        self.done = False
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        served = 0
        held = []
        while not self.done:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
            head, _, body = data.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            while len(body) < length:
                body += conn.recv(4096)
            if not self.answer:
                held.append(conn)
                continue
            if served == self.stall_at:
                start = time.monotonic()
                time.sleep(self.stall_s)
                self.stall = (start, time.monotonic())
            conn.sendall(ANSWER)
            conn.close()
            served += 1

    def close(self):
        self.done = True
        self.sock.close()


class OpenLoop(unittest.TestCase):
    def test_stall_shows_in_every_request_due_during_it(self):
        stall_s = 0.3
        stub = StubServer(stall_at=10, stall_s=stall_s)
        try:
            reqs = [("hot", "{}")] * 80
            recs = loadgen.open_loop(stub.port, reqs, rate=100.0, timeout=5.0)
        finally:
            stub.close()
        self.assertTrue(all(r.ok for r in recs))
        start, end = stub.stall
        during = [r for r in recs if start <= r.due < end - 0.01]
        self.assertGreaterEqual(len(during), 20)
        for r in during:
            # answered no earlier than the stall's end: the wait the
            # stall imposed is in the latency, measured from the due time
            self.assertGreaterEqual(r.latency_s, end - r.due - 0.002,
                                    "request %d" % r.index)
        # ... while timing from the send hides most of it
        self.assertLess(min(r.end - r.start for r in during[4:]), stall_s / 2)
        waits = [r.wait_s for r in during]
        self.assertGreater(max(waits), stall_s / 2)

    def test_refused_requests_fail_and_miss_the_limit(self):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        recs = loadgen.open_loop(port, [("hot", "{}")] * 12, rate=200.0,
                                 timeout=1.0)
        self.assertTrue(all(not r.ok and r.error for r in recs))
        self.assertEqual(stats.slo_share(recs, 10.0), 0.0)
        self.assertEqual(stats.tail(stats.latencies(recs)), float("inf"))

    def test_timeouts_fail(self):
        stub = StubServer(answer=False)
        try:
            recs = loadgen.open_loop(stub.port, [("submit", "{}")] * 2,
                                     rate=100.0, timeout=0.2)
        finally:
            stub.close()
        self.assertTrue(all(not r.ok for r in recs))
        self.assertTrue(all("timeout" in r.error.lower() for r in recs))


class ClosedLoop(unittest.TestCase):
    def test_every_request_answered(self):
        stub = StubServer()
        try:
            recs = loadgen.closed_loop(stub.port, [("hot", "{}")] * 20,
                                       timeout=5.0)
        finally:
            stub.close()
        self.assertTrue(all(r.ok and r.body == "ok\n" for r in recs))

    def test_server_cpu_charged_per_request(self):
        stub = StubServer()
        ticks = iter(range(100))
        try:
            recs = loadgen.closed_loop(stub.port, [("hot", "{}")] * 5,
                                       timeout=5.0, connections=1,
                                       cpu_clock=lambda: next(ticks) * 0.5)
        finally:
            stub.close()
        # one clock read before each request and one after its answer
        self.assertEqual([r.cpu_s for r in recs], [0.5] * 5)
        with self.assertRaises(ValueError):
            loadgen.closed_loop(stub.port, [], timeout=1.0, connections=2,
                                cpu_clock=lambda: 0.0)

    def test_process_cpu_clock_counts_a_child(self):
        p = subprocess.Popen([sys.executable, "-c",
                              "import time\nt = time.process_time()\n"
                              "while time.process_time() - t < 0.2: pass"])
        clock = loadgen.process_cpu_clock(p.pid)
        try:
            # wait for the exit without reaping, so the clock still reads
            os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
            self.assertGreaterEqual(clock(), 0.19)
        finally:
            p.wait()


if __name__ == "__main__":
    unittest.main()
