"""The rows of ``latents.csv``, formatted on every usable core.

Formatting a float with ``repr`` (the shortest string that parses back to
it) costs about a microsecond and holds the interpreter lock, so only a
second process can overlap it. ``write`` cuts each block of rows into one
contiguous slice per worker: it formats the first slice itself and child
interpreters format the others. A child is this file run as a script under
``-I -S``: it imports nothing outside the standard library, since importing
numpy would cost more than the work it takes over. It reads raw
float64/int64 columns on stdin and answers with length-prefixed text on
stdout. Both sides call the one ``format_rows``, so the bytes cannot depend
on which process formatted a row.
"""

from __future__ import annotations

import os
import struct
import sys

# a slice's first row index and its row count; then its text's length
_SLICE = struct.Struct("=qq")
_LENGTH = struct.Struct("=q")


def format_rows(first: int, latents, labels, times, events):
    """The CSV lines ``index,z0,...,cluster,time,event`` of rows ``first,
    first + 1, ...``, one at a time, from ``latents`` as one sequence of
    Python floats per latent column and the other columns as sequences of
    Python numbers."""
    fields = zip(map(str, range(first, first + len(labels))), *(map(repr, z) for z in latents),
                 map(str, labels), map(repr, times), map(str, events))
    return (row + "\n" for row in map(",".join, fields))


def usable_cpus() -> int:
    """CPUs this process may run on, or all of them where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on macOS or Windows
        return os.cpu_count() or 1


def write(fh, latents, labels, times, events, block_rows: int) -> None:
    """Write ``latents.csv`` to ``fh``: its header, then the rows of
    ``latents`` (n x d float64) with their ``labels``, ``times`` and
    ``events``, ``block_rows`` rows at a time.

    ``min(usable_cpus(), n // block_rows)`` processes share each block, so
    a cohort under two blocks is formatted here alone; so is every cohort
    when a child cannot be started. No process holds more than its slice
    of one block as Python floats. A child that fails is a
    ``SurvstratError`` naming ``fh.name``; every child is reaped on return,
    on error and on interrupt."""
    n, d = latents.shape
    fh.write("index," + ",".join(f"z{k}" for k in range(d)) + ",cluster,time,event\n")
    children = _start(min(usable_cpus(), n // block_rows) - 1, d)
    try:
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            cuts = [start + (stop - start) * k // (len(children) + 1)
                    for k in range(len(children) + 2)]
            for child, a, b in zip(children, cuts[1:], cuts[2:]):
                _send(child, fh, a, b, latents[a:b].tobytes(order="F"),
                      labels[a:b].astype("q").tobytes(), times[a:b].astype("d").tobytes(),
                      events[a:b].astype("q").tobytes())
            a, b = cuts[0], cuts[1]
            fh.writelines(format_rows(a, latents[a:b].T.tolist(), labels[a:b].tolist(),
                                      times[a:b].tolist(), events[a:b].tolist()))
            for child in children:
                fh.write(_receive(child, fh))
    finally:
        for child in children:
            _stop(child)


def _start(count: int, d: int) -> list:
    """``count`` children formatting rows of ``d`` latents; none when one of
    them cannot be started."""
    if count < 1 or not sys.executable:
        return []
    # imported here: most cohorts start no child, and the import costs every command
    import subprocess

    children = []
    try:
        for _ in range(count):
            children.append(subprocess.Popen(
                [sys.executable, "-I", "-S", os.path.abspath(__file__), str(d)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL))
    except OSError:
        for child in children:
            _stop(child)
        return []
    return children


def _send(child, fh, first: int, stop: int, *columns: bytes) -> None:
    try:
        child.stdin.write(_SLICE.pack(first, stop - first))
        for column in columns:
            child.stdin.write(column)
        child.stdin.flush()
    except BrokenPipeError:
        _fail(child, fh)


def _receive(child, fh) -> str:
    head = child.stdout.read(_LENGTH.size)
    if len(head) == _LENGTH.size:
        size = _LENGTH.unpack(head)[0]
        text = child.stdout.read(size)
        if len(text) == size:
            return text.decode("ascii")
    _fail(child, fh)


def _fail(child, fh):
    # imported here: the children run this file outside its package
    from .errors import SurvstratError

    _stop(child)
    raise SurvstratError(
        f"writing {fh.name}: a row formatter process exited with code {child.returncode}")


def _stop(child) -> None:
    """Kill ``child`` unless it has exited, close its pipes and reap it."""
    child.kill()
    for pipe in (child.stdin, child.stdout):
        try:
            pipe.close()
        except BrokenPipeError:  # unsent input of a child that died
            pass
    child.wait()


def _serve(d: int) -> None:
    """A child's loop: format each slice that arrives on stdin until it closes."""
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while head := stdin.read(_SLICE.size):
        first, rows = _SLICE.unpack(head)
        data = memoryview(stdin.read(8 * rows * (d + 3)))
        if len(data) != 8 * rows * (d + 3):
            sys.exit("a row slice was cut short")
        floats, ints = data.cast("d"), data.cast("q")
        text = "".join(format_rows(
            first, [floats[k * rows:(k + 1) * rows].tolist() for k in range(d)],
            ints[d * rows:(d + 1) * rows].tolist(), floats[(d + 1) * rows:(d + 2) * rows].tolist(),
            ints[(d + 2) * rows:].tolist(),
        )).encode("ascii")
        stdout.write(_LENGTH.pack(len(text)))
        stdout.write(text)
        stdout.flush()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
