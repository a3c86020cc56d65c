"""CSV exchange format for window tables.

Format: an optional context line ``window=lo:hi`` or ``biwindow=l:i,m:n``,
then the header ``q,dim,enumeration=lex``, then one row per point with the
point index followed by the p-1 cyclotomic coefficients as ``num/den``.
The row order is the package-wide enumeration: lexicographic on coordinate
digits, least-significant position first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from fqharmonic.exactnum import CycNum, DomainError


def render_table(q: int, table: Sequence[CycNum], edges: Optional[tuple[int, ...]] = None) -> str:
    """The CSV text of a table, with the context line of the window edges given."""
    dim = 0
    n = len(table)
    while q**dim < n:
        dim += 1
    if q**dim != n:
        raise DomainError("table length is not a power of q")
    lines = [] if edges is None else [context_line(edges)]
    lines.append(f"{q},{dim},enumeration=lex")
    for idx, c in enumerate(table):
        coeffs = ",".join(f"{x.numerator}/{x.denominator}" for x in c.coeffs)
        lines.append(f"{idx},{coeffs}")
    return "\n".join(lines) + "\n"


def context_line(edges: tuple[int, ...]) -> str:
    """The ``window=lo:hi`` or ``biwindow=l:i,m:n`` line of a window's edges."""
    pairs = ",".join(f"{lo}:{hi}" for lo, hi in zip(edges[::2], edges[1::2]))
    return f"{'window' if len(edges) == 2 else 'biwindow'}={pairs}"


def _int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"{where}: {token!r} is not an integer") from None


def parse_table(text: str, p: int) -> tuple[int, int, tuple[CycNum, ...], Optional[tuple[int, ...]]]:
    """Returns (q, dim, table, edges): the edges of the context line, (lo, hi)
    or (l, i, m, n), or None for a table without one.

    Malformed input raises DomainError naming the file line and the row.
    """
    rows, edges = [], None
    for n, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        key, _, value = ln.partition("=")
        if key in ("window", "biwindow"):
            found = tuple(_int(t, f"line {n}: {key}") for t in value.replace(",", ":").split(":"))
            # a context line must read back as written
            if edges is not None or len(found) not in (2, 4) or context_line(found) != ln:
                raise DomainError(f"line {n}: bad or second context line {ln!r}")
            edges = found
        elif ln:
            rows.append((n, ln))
    if not rows:
        raise DomainError("empty table file")
    head_line, head_text = rows[0]
    head = head_text.split(",")
    if len(head) != 3 or head[2] != "enumeration=lex":
        raise DomainError(f"line {head_line}: bad table header {head_text!r}")
    q, dim = _int(head[0], f"line {head_line}: q"), _int(head[1], f"line {head_line}: dim")
    if q < 2 or dim < 0:
        raise DomainError(f"line {head_line}: bad table shape q={q}, dim={dim}")
    table = []
    for expect, (line, ln) in enumerate(rows[1:]):
        where = f"line {line}: row {expect}"
        parts = ln.split(",")
        if _int(parts[0], where) != expect:
            raise DomainError(f"{where} out of order")
        coeffs = []
        for tok in parts[1:]:
            num, _, den = tok.partition("/")
            denominator = _int(den or "1", where)
            if denominator == 0:
                raise DomainError(f"{where}: zero denominator in {tok!r}")
            coeffs.append(Fraction(_int(num, where), denominator))
        if len(coeffs) != p - 1:
            raise DomainError(f"{where} has {len(coeffs)} coefficients, wanted {p - 1}")
        table.append(CycNum(p, tuple(coeffs)))
    # q**dim > dim for q >= 2; testing dim first never raises q to a huge header dim
    if dim > len(table) or len(table) != q**dim:
        raise DomainError("row count does not match the header")
    return q, dim, tuple(table), edges
