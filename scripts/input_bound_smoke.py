#!/usr/bin/env python3
"""Input-bound probe for a running `busytime-cli listen` or `route` process.

A client that writes records faster than they are answered must be
stopped, not buffered: the server holds a bounded amount of its input and
stops reading the socket. This script

  1. sends one `exact-bb` record on a 24-job adversarial instance with a
     bounded `deadline_ms`, so it holds a worker (and, on `listen`, its
     wave) until the deadline cuts it,
  2. pushes small records without reading, on a nonblocking socket, until
     the socket stays blocked for half a second or 128 MB went in,
  3. fails if more than 32 MB went in, or if the server's peak resident
     set (`VmHWM` in /proc/<pid>/status) grew by more than 64 MB,
  4. finishes the last record, half-closes, reads every answer, and
     requires one in-order line per record plus a trailer whose
     `records` equals the records sent.

Usage: input_bound_smoke.py HOST:PORT PID
"""
import json
import select
import socket
import sys
import threading
import time

ADV_1 = [
    [24, 45], [2, 18], [32, 55], [25, 42], [30, 49], [37, 51], [32, 44],
    [18, 30], [6, 33], [16, 41], [38, 50], [19, 30], [4, 33], [21, 44],
    [35, 46], [22, 43], [16, 25], [5, 25], [40, 48], [40, 54], [35, 58],
    [28, 52], [20, 47], [35, 43],
]
HOLD_MS = 5000
PUSH_CAP = 128 << 20
IN_LIMIT = 32 << 20
HWM_LIMIT = 64 << 20
STALL_S = 0.5


def vm_hwm(pid):
    with open(f"/proc/{pid}/status") as fh:
        line = next(l for l in fh if l.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024


def record(i):
    if i == 0:
        return {"id": "r-0", "instance": {"g": 2, "jobs": ADV_1},
                "solver": "exact-bb", "deadline_ms": HOLD_MS}
    return {"id": f"r-{i}", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}


def push(sock):
    """Writes records until the socket stays blocked or PUSH_CAP went in.

    Returns (bytes in, records begun, unwritten tail of the last one).
    """
    sock.setblocking(False)
    sent, records, tail = 0, 0, b""
    while sent <= PUSH_CAP:
        if not tail:
            tail = (json.dumps(record(records)) + "\n").encode()
            records += 1
        try:
            n = sock.send(tail)
        except BlockingIOError:
            # a reader that fell behind frees room soon; one that stopped
            # does not
            if not select.select([], [sock], [], STALL_S)[1]:
                break
            continue
        sent += n
        tail = tail[n:]
    sock.setblocking(True)
    return sent, records, tail


def main():
    addr, pid = sys.argv[1], int(sys.argv[2])
    host, _, port = addr.rpartition(":")
    hwm_before = vm_hwm(pid)
    sock = socket.create_connection((host, int(port)), timeout=120)
    started = time.monotonic()
    sent, records, tail = push(sock)
    hwm_grew = vm_hwm(pid) - hwm_before
    print(
        f"input bound: {sent / 2**20:.1f} MB in ({records} records) before the "
        f"socket stayed blocked, after {time.monotonic() - started:.2f} s; "
        f"server VmHWM grew {hwm_grew / 2**20:.1f} MB"
    )
    failures = []
    if sent > IN_LIMIT:
        failures.append(f"{sent} bytes went in, more than {IN_LIMIT}")
    if hwm_grew > HWM_LIMIT:
        failures.append(f"VmHWM grew {hwm_grew} bytes, more than {HWM_LIMIT}")
    if failures:
        sock.close()
        raise SystemExit("FAIL: " + "; ".join(failures))

    def finish():
        sock.sendall(tail)
        sock.shutdown(socket.SHUT_WR)

    writer = threading.Thread(target=finish)
    writer.start()
    lines = [json.loads(l) for l in sock.makefile("rb") if l.strip()]
    writer.join()
    sock.close()
    answers, trailer = lines[:-1], lines[-1]
    assert len(answers) == records, f"{len(answers)} answers for {records} records"
    for i, answer in enumerate(answers):
        assert answer.get("line") == i + 1, f"answer {i} out of order: {answer}"
        assert answer.get("id") == f"r-{i}", f"answer {i} has the wrong id: {answer}"
        assert answer.get("ok"), f"answer {i} failed: {answer}"
    assert trailer.get("records") == records, f"trailer {trailer} for {records} records"
    print(f"input bound: {records} records answered once, in order, then the trailer")


if __name__ == "__main__":
    main()
