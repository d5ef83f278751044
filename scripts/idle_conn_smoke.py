#!/usr/bin/env python3
"""Idle keep-alive fleet probe for the readiness-loop listener.

Opens N keep-alive connections (default 500) against a running
`busytime-cli listen` process, leaves them idle, then:

  1. confirms via `/healthz` that the listener really holds them all
     open (`open_connections`) on a handful of reactor threads
     (`io_threads`) — polling for up to 10 s, since the reactors
     register accepted sockets asynchronously,
  2. asserts the *process* thread count stays O(reactor threads), not
     O(connections), by reading `Threads:` from /proc/<pid>/status —
     the whole point of the event-driven front-end,
  3. sends one record on every 50th connection (10 of 500) and checks
     each answers in order with its own id while the rest stay idle,
  4. closes every connection cleanly so the caller's SIGINT drain sees
     an empty house, then samples the thread count every 10 ms for 1 s
     while the server ends those batches: a server that pays a thread per
     batch (or per closing connection) shows it here.

Usage: idle_conn_smoke.py HOST:PORT PID [CONNS] [THREAD_CAP]
"""
import json
import socket
import sys
import time


def healthz(host, port):
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n")
        raw = b""
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(4096)
            if not chunk:
                raise AssertionError("healthz closed before headers")
            raw += chunk
        head, body = raw.split(b"\r\n\r\n", 1)
        length = next(
            int(line.split(b":")[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        while len(body) < length:
            body += sock.recv(4096)
        return json.loads(body[:length])


def healthz_until_open(host, port, conns, timeout_s=10.0):
    """Polls /healthz until `open_connections` reaches `conns`.

    The client's connect() returns once the kernel has queued the socket,
    before a reactor has accepted and registered it, so the gauge can lag
    the fleet for a moment. Fails with the last snapshot at the deadline.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        snap = healthz(host, port)
        if snap["open_connections"] >= conns:
            return snap
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"open_connections stayed below {conns} for {timeout_s:.0f} s; "
                f"last /healthz: {snap}"
            )
        time.sleep(0.05)


def process_threads(pid):
    with open(f"/proc/{pid}/status") as fh:
        return int(next(l for l in fh if l.startswith("Threads:")).split()[1])


def main():
    addr, pid = sys.argv[1], int(sys.argv[2])
    conns = int(sys.argv[3]) if len(sys.argv) > 3 else 500
    thread_cap = int(sys.argv[4]) if len(sys.argv) > 4 else 20
    host, _, port = addr.rpartition(":")
    port = int(port)

    fleet = []
    for _ in range(conns):
        sock = socket.create_connection((host, port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fleet.append(sock)
    print(f"opened {len(fleet)} keep-alive connections")

    snap = healthz_until_open(host, port, conns)
    assert snap["io_threads"] >= 1, snap
    print(
        f"healthz: open_connections={snap['open_connections']} "
        f"io_threads={snap['io_threads']}"
    )

    threads = process_threads(pid)
    print(f"process threads with {conns} connections open: {threads}")
    assert threads < thread_cap, (
        f"{threads} OS threads for {conns} idle connections — the "
        f"front-end is paying per connection again (cap {thread_cap})"
    )

    # one record on every 50th connection; the other 490 stay silent
    active = list(range(0, conns, max(1, conns // 10)))[:10]
    for i in active:
        record = (
            f'{{"id": "live-{i}", "generator": {{"family": "uniform", '
            f'"n": 30, "g": 3, "seed": {i}}}, "solver": "first-fit"}}\n'
        )
        fleet[i].sendall(record.encode())
    for i in active:
        line = fleet[i].makefile("rb").readline()
        report = json.loads(line)
        assert report.get("id") == f"live-{i}", report
        assert report.get("ok") is True, report
    print(f"{len(active)} active connections answered in order; rest stayed idle")

    threads = process_threads(pid)
    assert threads < thread_cap, f"{threads} OS threads after serving (cap {thread_cap})"

    for sock in fleet:
        sock.close()
    print("fleet closed")

    peak = 0
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline:
        peak = max(peak, process_threads(pid))
        time.sleep(0.01)
    print(f"peak process threads while the fleet closed: {peak}")
    assert peak < thread_cap, (
        f"{peak} OS threads while {conns} connections closed (cap {thread_cap})"
    )


if __name__ == "__main__":
    main()
