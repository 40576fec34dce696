"""Load generation for the serve-mixed workload.

One process, at most two client threads, one connection per thread at a
time (the server answers with ``Connection: close``).

* ``open_loop`` sends request k when it is due, at ``t0 + k / rate``,
  whatever happened to earlier requests.  Latency is timed from the
  due time, so a stall shows in every request that fell due while the
  server was stuck, not only in the one it was serving.  Each record
  also carries the client-side queue wait (send time minus due time)
  and, when a thread was idle and slept until the due time, how late
  it woke up (the generator's own lateness, a validity check).
* ``closed_loop`` keeps every thread busy: each sends its next request
  as soon as the previous one is answered.  On one connection it can
  also charge each request with the server's CPU time: the growth of
  the server's process CPU clock from the send to the last byte of the
  answer.  The server is idle between requests, so that is the work
  the request cost, whatever else the host was running meanwhile.

A request that is refused, times out or answers anything but 200 is
recorded with ``ok=False``; ``stats.latencies`` turns such a request's
latency into infinity, so it misses every latency limit.
"""

import socket
import threading
import time

CONNECTIONS = 2


class Record:
    __slots__ = ("index", "cls", "due", "start", "end", "connect_s",
                 "late_s", "status", "body", "error", "cpu_s")

    def __init__(self, index, cls, due):
        self.index = index
        self.cls = cls
        self.due = due
        self.start = None
        self.end = None
        self.connect_s = None
        self.late_s = None
        self.status = None
        self.body = None
        self.error = None
        self.cpu_s = None

    @property
    def ok(self):
        return self.error is None and self.status == 200

    @property
    def latency_s(self):
        return self.end - self.due

    @property
    def wait_s(self):
        return self.start - self.due


def post(port, path, body, timeout):
    """POST ``body`` to ``127.0.0.1:port`` and read the whole answer.

    Returns ``(status, response_body, connect_seconds)``; raises
    ``OSError`` (``socket.timeout`` included) on connection trouble.
    """
    data = body.encode() if isinstance(body, str) else body
    t = time.monotonic()
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        connect_s = time.monotonic() - t
        sock.sendall(b"POST %s HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: %d\r\n\r\n" % (path.encode(), len(data))
                     + data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    raw = b"".join(chunks)
    head, sep, payload = raw.partition(b"\r\n\r\n")
    if not sep:
        raise OSError("truncated HTTP response")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or not status_line[1].isdigit():
        raise OSError("malformed HTTP status line")
    return int(status_line[1]), payload.decode("utf-8", "replace"), connect_s


def _send(rec, port, body, timeout):
    rec.start = time.monotonic()
    try:
        rec.status, rec.body, rec.connect_s = post(port, "/run", body, timeout)
    except OSError as e:
        rec.error = "%s: %s" % (type(e).__name__, e)
    rec.end = time.monotonic()


def _run_threads(n, worker):
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(port, requests, rate, timeout, connections=CONNECTIONS):
    """Send ``requests`` (a list of ``(cls, body)``) open-loop at
    ``rate`` per second; returns one ``Record`` per request, in order."""
    t0 = time.monotonic() + 0.05
    records = [Record(k, cls, t0 + k / rate)
               for k, (cls, _) in enumerate(requests)]
    lock = threading.Lock()
    cursor = [0]

    def worker():
        while True:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            if k >= len(records):
                return
            rec = records[k]
            now = time.monotonic()
            if now < rec.due:
                time.sleep(rec.due - now)
                rec.late_s = time.monotonic() - rec.due
            _send(rec, port, requests[k][1], timeout)

    _run_threads(connections, worker)
    return records


def process_cpu_clock(pid):
    """A function returning the CPU seconds process ``pid`` has used so
    far, all its threads together, to the nanosecond.  Time the host
    gave to other tasks, or stole for other guests, is not in it."""
    clock_id = ((~pid) << 3) | 2        # CPUCLOCK_SCHED of the whole process
    return lambda: time.clock_gettime(clock_id)


def closed_loop(port, requests, timeout, connections=CONNECTIONS,
                cpu_clock=None):
    """Send ``requests`` closed-loop on ``connections`` threads; each
    record's due time is its send time.  With ``cpu_clock`` (see
    ``process_cpu_clock``; one connection only) each record's ``cpu_s``
    is the server CPU time its request took."""
    if cpu_clock is not None and connections != 1:
        raise ValueError("server CPU time per request needs one connection")
    records = [Record(k, cls, None) for k, (cls, _) in enumerate(requests)]
    lock = threading.Lock()
    cursor = [0]

    def worker():
        while True:
            with lock:
                k = cursor[0]
                cursor[0] += 1
            if k >= len(records):
                return
            rec = records[k]
            rec.due = time.monotonic()
            if cpu_clock is None:
                _send(rec, port, requests[k][1], timeout)
            else:
                before = cpu_clock()
                _send(rec, port, requests[k][1], timeout)
                rec.cpu_s = cpu_clock() - before

    _run_threads(connections, worker)
    return records
