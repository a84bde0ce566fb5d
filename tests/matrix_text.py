"""Reader of the plain-text matrix format of CSRMatrix.to_text.

A header line "rows cols nnz", then one line per row of its nonzeros as
space-separated base-10 "column:value" pairs, columns ascending; an
empty row is an empty line, and every line ends in a newline.
IntMatrix.to_text writes the same text for its nonzeros.  The package
only writes this format (the cache's .mat files); the tests read it
back to check the round trip and the cache contents.
"""

from ordist.zlinalg import CSRMatrix, LinalgError


def _int(token: str) -> int:
    """A base-10 int written as str writes it, else LinalgError."""
    try:
        x = int(token)
    except ValueError:
        raise LinalgError(f"bad matrix token {token!r}") from None
    if str(x) != token:
        raise LinalgError(f"bad matrix token {token!r}")
    return x


def from_text(text: str) -> CSRMatrix:
    """The CSRMatrix of the text; LinalgError on a bad header, a row
    count or nnz that does not match, a malformed pair, and (through
    CSRMatrix) a column out of range or out of order or a stored 0."""
    lines = text.split("\n")
    if len(lines) < 2 or lines.pop() != "":
        raise LinalgError("matrix text must end in a newline")
    head = lines[0].split(" ")
    if len(head) != 3:
        raise LinalgError("bad matrix header")
    rows, cols, nnz = map(_int, head)
    if min(rows, cols, nnz) < 0:
        raise LinalgError("bad matrix header")
    if len(lines) != rows + 1:
        raise LinalgError("bad matrix body: row count")
    ptr, idx, val = [0], [], []
    for ln in lines[1:]:
        for pair in ln.split(" ") if ln else ():
            j, sep, x = pair.partition(":")
            if not sep:
                raise LinalgError(f"bad matrix pair {pair!r}")
            idx.append(_int(j))
            val.append(_int(x))
        ptr.append(len(idx))
    if len(idx) != nnz:
        raise LinalgError("bad matrix body: nnz")
    return CSRMatrix(ptr, idx, val, cols)
