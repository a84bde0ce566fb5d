"""Reader of the plain-text matrix format of IntMatrix.to_text.

The package only writes this format (the cache's .mat files); the tests
read it back to check the round trip and the cache contents.
"""

from ordist.zlinalg import IntMatrix, LinalgError


def from_text(text: str) -> IntMatrix:
    """The matrix of a header line "rows cols" followed by one line of
    base-10, space-separated entries per row."""
    lines = text.strip().splitlines()
    if not lines:
        raise LinalgError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise LinalgError("bad matrix header")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) != rows + 1:
        raise LinalgError("bad matrix body")
    data = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != cols:
            raise LinalgError("bad matrix row length")
        data.append([int(x) for x in parts])
    return IntMatrix.from_rows(data, cols)
